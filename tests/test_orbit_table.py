"""The scheme's orbit table against scalar pullbacks, one chain at a time.

`scalar_reference` pulls each sample's base point back through one chain
at a time (no trie) and sums phi forward along the points: induced
values, curves and samples must match it within 1e-12.
"""

import base64
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
    the two samples next to each one's mean-value point, once each,
    weighted by draw count times share."""
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
                points.append(scalar_orbit(s, i, c))
                weights.append(np.full(len(points[-1]), cnt[i] * (share / total)))
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
    "callable": eq.callable_potential(lambda x: 0.3 * math.sin(7.0 * x) - x),
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
    for f in ("values", "lower", "upper"):
        np.testing.assert_allclose(getattr(got, f), getattr(want, f), rtol=1e-12, atol=1e-12,
                                   err_msg=f)


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


@pytest.mark.parametrize("make,base,H", [(lambda: eq.lsv(1.5), (0.5, 1.0), 40),
                                         (lambda: eq.quadratic(-2.0), (1.0, 2.0), 12)],
                         ids=["lsv15", "quadratic"])
def test_geometric_potentials_take_no_derivative_once_the_table_exists(make, base, H):
    # the orbit table holds log|f'| at every sample: no potential takes f' again
    m = make()
    s = eq.first_return_scheme(m, base, H)
    s.orbit_table
    calls = []
    for br in m.branches:
        df = br.df
        object.__setattr__(br, "df", lambda x, df=df: calls.append(x) or df(x))
    for t in (0.5, 1.0):
        eq.induced_potential(m, s, eq.geometric_potential(t))
    eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0, 1.5])
    # the Dirac competitor takes one f' per curve at lsv's neutral point
    assert [x for x in calls if np.ndim(x) or x not in m.neutral] == []
    assert len(calls) == (1 if m.neutral else 0)


def _count_inverses(monkeypatch):
    calls = []
    inverse = eq.Branch.inverse_many

    def counted(self, y):
        calls.append(1)
        return inverse(self, y)

    monkeypatch.setattr(eq.Branch, "inverse_many", counted)
    return calls


def test_a_loaded_scheme_walks_on_first_read(tmp_path, monkeypatch):
    # a loaded scheme makes its table from the stored trie, with no inverse
    m = eq.lsv(0.6)
    s = eq.first_return_scheme(m, (0.5, 1.0), 30)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    calls = _count_inverses(monkeypatch)
    s2 = eq.load_scheme(str(p))
    eq.pressure_root(eq.level_counts(s2))
    a = eq.induced_potential(m, s2, eq.geometric_potential(0.8))
    b = eq.induced_potential(m, s2, eq.geometric_potential(0.8))
    assert calls == []
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
    """An lsv(0.6) scheme file whose first cylinder's upper end, its leaf's
    last value, is moved into the base by 1e-9."""
    s = eq.first_return_scheme(eq.lsv(0.6), (0.5, 1.0), 3)
    return _edited_nodes(tmp_path, s, lambda rows: _moved(rows, _leaf_row(s, 0), 4))


def _moved(rows, n, c):
    rows[n, c] -= 1e-9
    return rows


def test_a_loaded_scheme_is_certified_when_its_table_is_read(tmp_path):
    s = eq.load_scheme(_moved_end(tmp_path))  # the structure is sound
    counts = eq.level_counts(s)
    h = eq.pressure_root(counts).h
    mu = eq.mme(counts, h, scheme=s)
    for _ in range(2):
        with pytest.raises(ToleranceFailure,
                           match=r"branch 0 \(R=1\) fails its pullback at step 0: f\(.*\) is"):
            eq.induced_potential(s.map, s, eq.geometric_potential(1.0))
        with pytest.raises(ToleranceFailure):
            eq.sample_original_measure(s, mu, 100, seed=1)
        with pytest.raises(ToleranceFailure):
            eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0])


# ---------------------------------------------------------------------------
# a scheme file is the trie


def _lifted_doubling():
    """The doubling map written as 2x on both halves: the right half's
    image (1, 2) is a lift, so the trie's edges through it carry nonzero
    lifts (`maps._shift`)."""
    return eq.from_json({"space": {"lo": 0.0, "hi": 1.0, "circle": True},
                         "branches": [{"lo": lo, "hi": hi, "kind": "affine",
                                       "params": {"a": 2.0, "b": 0.0}}
                                      for lo, hi in ((0.0, 0.5), (0.5, 1.0))]})


_STORED = {
    "doubling-lifts": (_lifted_doubling, (0.0, 0.5), 12),
    "lsv15-h200": (lambda: eq.lsv(1.5), (0.5, 1.0), 200),
    "lsv06-h300": (lambda: eq.lsv(0.6), (0.5, 1.0), 300),
    "quadratic-h16": (lambda: eq.quadratic(-2.0), (1.0, 2.0), 16),
    "doubling": (eq.doubling, (0.0, 0.5), 12),
    "tent": (lambda: eq.tent(2.0), (0.0, 0.5), 8),
}


def _same_table(s, t):
    """The two schemes' tries and orbit tables agree bit for bit."""
    for f in ("parent", "symbols", "values", "leaf"):
        assert _bits(getattr(s.trie, f)) == _bits(getattr(t.trie, f)), f
    assert s.trie.at == t.trie.at
    a, b = s.orbit_table, t.orbit_table
    assert _bits(a.weights) == _bits(b.weights)
    assert a.critical_hit == b.critical_hit and a.uncertified == b.uncertified


@pytest.mark.parametrize("name", sorted(_STORED) + ["critical"])
def test_a_loaded_table_is_the_built_one(tmp_path, monkeypatch, name):
    if name == "critical":
        s = _critical_scheme()
    else:
        make, base, H = _STORED[name]
        s = eq.first_return_scheme(make(), base, H)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    calls = _count_inverses(monkeypatch)
    s2 = eq.load_scheme(str(p))
    _same_table(s2, s)
    assert calls == []
    assert (s2.orbit_table.critical_hit is not None) == (name == "critical")
    assert s2 == s
    # re-saving a loaded scheme gives the same bytes
    p2 = tmp_path / "again.json"
    eq.save_scheme(s2, str(p2))
    assert p2.read_bytes() == p.read_bytes()


def _edited_nodes(tmp_path, s, edit):
    """A file of s whose stored node values are edit(rows), rows a writable copy."""
    p = tmp_path / "edited.json"
    eq.save_scheme(s, str(p))
    doc = json.loads(p.read_text())
    rows = np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8").reshape(-1, 5).copy()
    doc["values"] = base64.b64encode(edit(rows).astype("<f8").tobytes()).decode()
    p.write_text(json.dumps(doc))
    return str(p)


def _leaf_row(s, i):
    """The row of branch i's leaf among the stored nodes (no root is stored)."""
    return s.trie.leaf[i] - 1


def test_stored_nodes_are_certified(tmp_path):
    # a deep quadratic leaf's samples mirrored to -x: x^2 - 2 takes them
    # to the same values, so only the domain check catches them
    q = eq.first_return_scheme(eq.quadratic(-2.0), (1.0, 2.0), 16)
    i = len(q) - 1
    n = _leaf_row(q, i)

    def mirror(rows):
        rows[n, 1:4] *= -1.0
        return rows

    s = eq.load_scheme(_edited_nodes(tmp_path, q, mirror))
    R = q.return_times()[i]
    with pytest.raises(ToleranceFailure, match=rf"branch {i} \(R={R}\) fails its pullback at "
                       r"step 0: -[0-9.e-]+ is outside \[0\.0, 2\.0\], the domain of map branch 1"):
        eq.induced_potential(s.map, s, eq.geometric_potential(1.0))
    # an lsv leaf's midpoint sample moved by 1e-9 fails its edge
    lsv = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 40)
    i = len(lsv) - 1
    n = _leaf_row(lsv, i)

    s = eq.load_scheme(_edited_nodes(tmp_path, lsv, lambda rows: _moved(rows, n, 2)))
    with pytest.raises(ToleranceFailure, match=rf"branch {i} \(R=40\) fails its pullback at "
                       r"step 0: f\(.*\) is .* off"):
        eq.induced_potential(s.map, s, eq.geometric_potential(1.0))
    # one row fewer than the trie's nodes fails at load
    with pytest.raises(ValueError, match=r"integers \[0, 1, \.\.\., 80\]: parent, symbols and "
                       r"values hold 79, 79 and 78 nodes below the root"):
        eq.load_scheme(_edited_nodes(tmp_path, lsv, lambda rows: rows[:-1]))


@pytest.mark.parametrize("values,match", [
    ([1.0, 2.0], "values is a list, not a base64 string"),
    (None, "values is a NoneType"),
    ("not base64!", "Non-base64|Only base64"),
    ("AAAA", "holds 3 bytes, not whole rows"),
    ("truncate", "Incorrect padding|whole rows"),
])
def test_malformed_values_fail_at_load(tmp_path, values, match):
    s = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 10)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    doc = json.loads(p.read_text())
    doc["values"] = doc["values"][:-5] if values == "truncate" else values
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        eq.load_scheme(str(p))
