"""The scheme's orbit table against scalar pullbacks, one chain at a time.

`scalar_reference` pulls each sample's base point back through one chain
at a time (no trie) and sums phi forward along the points: induced
values, curves and samples must match it within 1e-12.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import eqstate as eq
from eqstate import analysis, inducing
from eqstate.errors import OrbitHitsCritical, ToleranceFailure
from scalar_reference import scalar_induced, scalar_mean_value, scalar_orbit


def _reference_sample(s, m, n_samples, seed):
    """sample_original_measure from the scalar orbits of the drawn branches:
    the two samples next to each one's mean-value point, weighted by share."""
    rng = np.random.Generator(np.random.Philox(seed))
    probs = np.asarray(m.branch_weights, dtype=float)
    probs = probs / probs.sum()
    draws = rng.choice(len(probs), size=int(n_samples), p=probs)
    cnt = np.bincount(draws, minlength=len(probs))
    total = float(np.dot(cnt, s.return_times()))
    points, weights = [np.empty(0)], [np.empty(0)]
    for i in np.flatnonzero(cnt):
        side, lam = scalar_mean_value(s, i)
        for c, share in ((0, lam if side == 0 else 0.0), (1, 1.0 - lam),
                         (2, lam if side == 2 else 0.0)):
            if share > 0:
                points.append(np.tile(scalar_orbit(s, i, c), cnt[i]))
                weights.append(np.full(len(points[-1]), share / total))
    return np.concatenate(points), np.concatenate(weights), cnt


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
    want = scalar_induced(s.map, s, _PHIS[phi])
    for f in ("values", "lower", "upper", "contraction_factors"):
        np.testing.assert_allclose(getattr(got, f), getattr(want, f), rtol=1e-12, atol=1e-12,
                                   err_msg=f)
    for f in ("variation_bound_constant", "total_variation_bound"):
        assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12, abs=1e-12), f
    assert got.hoelder == want.hoelder
    np.testing.assert_array_equal(got.return_times, want.return_times)


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_pressure_curve_matches_the_reference_walk(schemes, name, monkeypatch):
    s = schemes[name]
    grid = np.arange(0.5, 1.5001, 0.05)
    phi = eq.geometric_potential(1.0)
    got = eq.pressure_curve(s, phi, grid)
    monkeypatch.setattr(analysis, "induced_potential", scalar_induced)
    want = eq.pressure_curve(s, phi, grid)
    # induced values within 1e-12 move roots by about the solver's tol
    for f in ("values", "errors", "left_slopes", "right_slopes"):
        np.testing.assert_allclose(getattr(got, f), getattr(want, f), rtol=0, atol=1e-9,
                                   err_msg=f)
    assert got.status == want.status


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_sampling_matches_the_reference_walk(schemes, name):
    s = schemes[name]
    counts = eq.level_counts(s)
    mu = eq.mme(counts, eq.pressure_root(counts).h, scheme=s)
    em = eq.sample_original_measure(s, mu, 5000, seed=7)
    points, weights, cnt = _reference_sample(s, mu, 5000, 7)
    np.testing.assert_array_equal(em.draw_counts, cnt)
    np.testing.assert_allclose(em.points, points, rtol=0, atol=1e-12)
    np.testing.assert_allclose(em.weights, weights, rtol=1e-12, atol=0)


def _count_walks(monkeypatch):
    walks = []
    pull = inducing._pull_trie

    def counted(*args):
        walks.append(1)
        return pull(*args)

    monkeypatch.setattr(inducing, "_pull_trie", counted)
    return walks


def test_mean_value_point_rule():
    # rows of log|(f^R)'| at the three samples against log(|B|/|P|): the
    # crossing next to the midpoint, else the nearest sample
    D = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    target = np.array([1.5, 1.5, 0.5, 0.75, 1.0, 3.0])
    w = inducing._mean_value_point(D, target)
    assert w.tolist() == [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                          [0.25, 0.75, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def test_a_scheme_walks_its_chains_once(monkeypatch):
    # one pullback of the base through the chain trie per scheme
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


def _critical_scheme():
    """A doubling scheme whose map declares the critical point 5/8: the base
    midpoint 1/4 pulls back through branch 1 onto it, at step 1 of the
    R = 2 branch, after a branch whose samples stay clear of it."""
    m = dataclasses.replace(eq.doubling(), critical=(0.625,))
    return eq.first_return_scheme(m, (0.0, 0.5), 3)


def test_orbit_hits_critical_on_every_call(monkeypatch):
    walks = _count_walks(monkeypatch)
    s = _critical_scheme()
    for phi in (eq.geometric_potential(1.0), eq.constant_potential(0.0), eq.geometric_potential(1.0)):
        with pytest.raises(OrbitHitsCritical, match=r"branch 1 \(R=2\).* at 0\.625 \(step 1\)"):
            eq.induced_potential(s.map, s, phi)
        with pytest.raises(OrbitHitsCritical):
            scalar_induced(s.map, s, phi)
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
        with pytest.raises(ToleranceFailure, match=r"of branch 0 \(R=1\) is not its pullback"):
            eq.induced_potential(s.map, s, eq.geometric_potential(1.0))
        with pytest.raises(ToleranceFailure):
            eq.sample_original_measure(s, mu, 100, seed=1)
        with pytest.raises(ToleranceFailure):
            eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0])
