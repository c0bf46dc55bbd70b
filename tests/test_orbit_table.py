"""The scheme's orbit table against the walk it replaced.

`_reference_induced` and `_reference_sample` are the lock-step walks that
`induced_potential` and `sample_original_measure` made on every call
before the walk was kept per scheme: induced values, curves and samples
must match them bit for bit.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import eqstate as eq
from eqstate import analysis, inducing
from eqstate.errors import OrbitHitsCritical, ToleranceFailure
from eqstate.maps import _chain_array, _walk_chains
from eqstate.thermo import InducedPotential, _hoelder_data, _potential_many


def _reference_induced(m, s, phi):
    """induced_potential as one lock-step walk of five rows per branch."""
    C, gamma = _hoelder_data(phi, m)
    R = s.return_times()
    nb = len(s.branches)
    lo = np.array([b.lo for b in s.branches])
    hi = np.array([b.hi for b in s.branches])
    eps = 1e-3 * (hi - lo)
    x0 = np.concatenate([s.markers(), lo + eps, hi - eps, lo, hi])
    chains = np.tile(_chain_array([b.chain for b in s.branches]), (5, 1))
    acc = np.zeros(3 * nb)
    crit = np.array(m.critical, dtype=float)
    hit_at = np.full(3 * nb, np.nan)
    adiam = np.zeros(int(R.max()) + 1 if nb else 1)
    for j, e, g, lift, x, _ in _walk_chains(m, chains, x0):
        smp = e < 3 * nb
        es = e[smp]
        if len(crit):
            at = m.space.wrap(lift[smp])
            new = np.isin(at, crit) & np.isnan(hit_at[es])
            hit_at[es[new]] = at[new]
        acc[es] += _potential_many(m, phi, g[smp], x[smp])
        ends = ~smp
        i = e[ends][: ends.sum() // 2] - 3 * nb
        y1, y2 = np.split(lift[ends], 2)
        np.maximum.at(adiam, R[i] - j, np.abs(y2 - y1))
    hits = np.flatnonzero(~np.isnan(hit_at))
    if len(hits):
        k = min(hits, key=lambda k: (k % nb, k // nb))
        i = k % nb
        raise OrbitHitsCritical(
            f"orbit of branch {i} (R={s.branches[i].return_time}) meets the "
            f"critical set at {float(hit_at[k])!r}"
        )
    samples = acc.reshape(3, nb)
    diam = s.diam_base
    a = adiam[1:] / diam if diam > 0 else adiam[1:]
    S = C * float(np.sum(a ** gamma))
    if not s.exhausted and len(a) >= 2 and a[-2] > 0:
        r = min(a[-1] / a[-2], 0.999) ** gamma
        S += C * (a[-1] ** gamma) * r / (1 - r)
    return InducedPotential(
        values=samples[0], lower=samples.min(axis=0), upper=samples.max(axis=0),
        return_times=R, hoelder=(C, gamma), contraction_factors=a,
        variation_bound_constant=S,
        total_variation_bound=S * S * diam ** gamma if C > 0 else 0.0,
        diam_base=diam,
    )


def _reference_sample(s, m, n_samples, seed):
    """sample_original_measure walking the drawn branches' markers."""
    rng = np.random.Generator(np.random.Philox(seed))
    probs = np.asarray(m.branch_weights, dtype=float)
    probs = probs / probs.sum()
    draws = rng.choice(len(probs), size=int(n_samples), p=probs)
    cnt = np.bincount(draws, minlength=len(probs))
    drawn = np.flatnonzero(cnt)
    R = s.return_times()[drawn]
    orbits = np.zeros((len(drawn), int(R.max(initial=0))))
    chains = _chain_array([s.branches[i].chain for i in drawn])
    for j, e, _, _, x, _ in _walk_chains(s.map, chains, s.markers()[drawn]):
        orbits[e, j] = x
    points = np.concatenate([np.tile(orbits[k, :r], cnt[i])
                             for k, (i, r) in enumerate(zip(drawn, R))] or [np.empty(0)])
    return points, cnt


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


_SCHEMES = {
    "lsv15": (lambda: eq.lsv(1.5), (0.5, 1.0), 200),
    "lsv06": (lambda: eq.lsv(0.6), (0.5, 1.0), 300),
    "quadratic": (lambda: eq.quadratic(-2.0), (1.0, 2.0), 14),
    "doubling": (eq.doubling, (0.0, 0.5), 12),
    "tent": (lambda: eq.tent(2.0), (0.0, 0.5), 8),
}
_PHIS = {
    "geometric": eq.geometric_potential(0.7),
    "constant": eq.constant_potential(-0.4),
    "callable": eq.callable_potential(lambda x: 0.3 * math.sin(7.0 * x) - x, hoelder=(8.0, 1.0)),
}


@pytest.fixture(scope="module")
def schemes():
    out = {}
    for name, (make, base, H) in _SCHEMES.items():
        m = make()
        out[name] = eq.first_return_scheme(m, base, H)
    return out


@pytest.mark.parametrize("name", sorted(_SCHEMES))
@pytest.mark.parametrize("phi", sorted(_PHIS))
def test_induced_potential_matches_the_reference_walk(schemes, name, phi):
    s = schemes[name]
    got = eq.induced_potential(s.map, s, _PHIS[phi])
    want = _reference_induced(s.map, s, _PHIS[phi])
    for f in ("values", "lower", "upper", "contraction_factors"):
        assert _bits(getattr(got, f)) == _bits(getattr(want, f)), f
    for f in ("variation_bound_constant", "total_variation_bound", "hoelder"):
        assert getattr(got, f) == getattr(want, f), f
    np.testing.assert_array_equal(got.return_times, want.return_times)


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_pressure_curve_matches_the_reference_walk(schemes, name, monkeypatch):
    s = schemes[name]
    grid = np.arange(0.5, 1.5001, 0.05)
    phi = eq.geometric_potential(1.0)
    got = eq.pressure_curve(s, phi, grid)
    monkeypatch.setattr(analysis, "induced_potential", _reference_induced)
    want = eq.pressure_curve(s, phi, grid)
    for f in ("values", "errors", "left_slopes", "right_slopes"):
        assert _bits(getattr(got, f)) == _bits(getattr(want, f)), f
    assert got.status == want.status


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_sampling_matches_the_reference_walk(schemes, name):
    s = schemes[name]
    counts = eq.level_counts(s)
    mu = eq.mme(counts, eq.pressure_root(counts).h, scheme=s)
    em = eq.sample_original_measure(s, mu, 5000, seed=7)
    points, cnt = _reference_sample(s, mu, 5000, 7)
    assert _bits(em.points) == _bits(points)
    np.testing.assert_array_equal(em.draw_counts, cnt)


def _count_walks(monkeypatch):
    walks = []
    walk = inducing._walk_chains

    def counted(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(inducing, "_walk_chains", counted)
    return walks


def test_a_scheme_walks_its_chains_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    m = eq.lsv(1.5)
    s = eq.first_return_scheme(m, (0.5, 1.0), 40)
    assert len(walks) == 1  # the certificate
    ips = [eq.induced_potential(m, s, eq.geometric_potential(t)) for t in (0.5, 1.0)]
    counts = eq.level_counts(s)
    mu = eq.mme(counts, eq.pressure_root(counts).h, scheme=s)
    eq.sample_original_measure(s, mu, 1000, seed=1)
    eq.sample_original_measure(s, mu, 1000, seed=2)
    eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0, 1.5])
    assert len(walks) == 1
    assert not np.array_equal(ips[0].values, ips[1].values)
    # the table is no field: it leaves equality and copies alone
    assert dataclasses.replace(s) == s and "orbit_table" not in repr(s)


def test_a_loaded_scheme_walks_on_first_read(tmp_path, monkeypatch):
    m = eq.lsv(0.6)
    s = eq.first_return_scheme(m, (0.5, 1.0), 30)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    walks = _count_walks(monkeypatch)
    s2 = eq.load_scheme(str(p))
    eq.pressure_root(eq.level_counts(s2))
    assert walks == []
    a = eq.induced_potential(m, s2, eq.geometric_potential(0.8))
    b = eq.induced_potential(m, s2, eq.geometric_potential(0.8))
    assert len(walks) == 1
    assert _bits(a.values) == _bits(b.values)
    assert _bits(a.values) == _bits(eq.induced_potential(m, s, eq.geometric_potential(0.8)).values)


def _critical_scheme(tent_map):
    # a tent chain whose marker maps onto the critical point 1/2 at step 1
    s = eq.first_return_scheme(tent_map, (0.0, 0.5), 3)
    bad = dataclasses.replace(s.branches[0], lo=0.2, hi=0.3, marker=0.25,
                              chain=(0, 1), return_time=2)
    return dataclasses.replace(s, branches=(s.branches[1], bad), exhausted=True)


def test_orbit_hits_critical_on_every_call(tent_map, monkeypatch):
    s = _critical_scheme(tent_map)
    walks = _count_walks(monkeypatch)
    for phi in (eq.geometric_potential(1.0), eq.constant_potential(0.0), eq.geometric_potential(1.0)):
        with pytest.raises(OrbitHitsCritical, match=r"branch 1 \(R=2\).* at 0\.5"):
            eq.induced_potential(tent_map, s, phi)
        with pytest.raises(OrbitHitsCritical):
            _reference_induced(tent_map, s, phi)
    assert len(walks) == 1


def _moved_end(tmp_path):
    """An lsv(0.6) scheme file whose first cylinder ends inside the base."""
    s = eq.first_return_scheme(eq.lsv(0.6), (0.5, 1.0), 3)
    p = tmp_path / "moved.json"
    eq.save_scheme(s, str(p))
    doc = json.loads(p.read_text())
    b = doc["branches"][0]
    b["hi"] = b["lo"] + 0.6 * (b["hi"] - b["lo"])
    p.write_text(json.dumps(doc))
    return str(p)


def test_a_loaded_scheme_is_certified_when_its_table_is_read(tmp_path):
    s = eq.load_scheme(_moved_end(tmp_path))  # the structure is sound
    counts = eq.level_counts(s)
    h = eq.pressure_root(counts).h
    mu = eq.mme(counts, h, scheme=s)
    for _ in range(2):
        with pytest.raises(ToleranceFailure, match=r"of branch 0 \(R=1\) maps to"):
            eq.induced_potential(s.map, s, eq.geometric_potential(1.0))
        with pytest.raises(ToleranceFailure):
            eq.sample_original_measure(s, mu, 100, seed=1)
        with pytest.raises(ToleranceFailure):
            eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0])
