import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import eqstate as eq
from eqstate.errors import AtCriticalOrBoundary, NotInImage, OutOfRange
from eqstate.maps import strict_orbit


def _brentq_inverse(br, y):
    """Reference inverse of a branch: root of f(x) = y on its closure."""
    y = min(max(y, br.img_lo), br.img_hi)
    return brentq(lambda x: float(br.f(x)) - y, br.lo, br.hi, xtol=1e-15)


def test_eval_examples(doubling_map, lsv06):
    assert eq.evaluate(doubling_map, 0.3) == pytest.approx(0.6, abs=1e-15)
    m1 = eq.lsv(1.0)
    # left branch: x (1 + 2x) at x = 1/4
    assert eq.evaluate(m1, 0.25) == pytest.approx(0.25 * 1.5, abs=1e-15)
    # right branch 2x - 1, any alpha
    assert eq.evaluate(lsv06, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_eval_errors(doubling_map, tent_map):
    with pytest.raises(AtCriticalOrBoundary):
        eq.evaluate(doubling_map, 0.5)
    with pytest.raises(AtCriticalOrBoundary):
        eq.evaluate(tent_map, 0.5)
    mq = eq.quadratic(-2.0)
    with pytest.raises(AtCriticalOrBoundary):
        eq.evaluate(mq, 0.0)


def test_deriv_examples(doubling_map):
    assert eq.deriv(doubling_map, 0.123) == pytest.approx(2.0, abs=0)
    m1 = eq.lsv(1.0)
    # indifferent fixed point: f' -> 1 as x -> 0+
    assert eq.deriv(m1, 1e-13) == pytest.approx(1.0, abs=1e-10)
    mq = eq.quadratic(-2.0)
    assert eq.deriv(mq, 1.0) == pytest.approx(2.0, abs=0)
    assert abs(eq.deriv(mq, -1.0)) == pytest.approx(2.0, abs=0)


def test_branch_inverse_examples(doubling_map, lsv06):
    b = doubling_map.branches[0]
    assert _brentq_inverse(b, 0.6) == pytest.approx(0.3, abs=1e-12)
    right = lsv06.branches[1]
    assert _brentq_inverse(right, 0.0) == pytest.approx(0.5, abs=1e-12)
    m1 = eq.lsv(1.0)
    left = m1.branches[0]
    assert _brentq_inverse(left, 0.375) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(NotInImage, match=r"^1\.5 outside image \[0\.0, 1\.0\] of lsv_left branch$"):
        left.inverse_many(np.array([0.375, 1.5]))


def test_wrap_stays_below_the_period_end():
    # Python's % rounds a tiny negative remainder up to the period: wrap
    # gave 1.0, outside [0, 1), and orbits started there
    sp = eq.lsv(0.6).space
    assert sp.wrap(-1e-17) == 0.0
    np.testing.assert_array_equal(sp.wrap(np.array([-1e-17, 0.25, 1.0, 2.5])), [0.0, 0.25, 0.0, 0.5])
    assert eq.orbit(eq.doubling(), -1e-17, 1).points[0] == 0.0
    assert eq.Space(1.0, 2.0, circle=True).wrap(1.0 - 1e-17) == 1.0


def test_lift_nearest_the_midpoint():
    sp = eq.doubling().space
    assert sp.lift(1.0, 0.5, 1.0) == 1.0
    assert sp.lift(1.0, 0.0, 0.5) == 0.0
    assert sp.lift(-0.2, 0.5, 1.0) == 0.8
    y = sp.lift(2.3, 0.0, 1.0)
    assert type(y) is float and y == pytest.approx(0.3, abs=1e-15)
    np.testing.assert_array_equal(sp.lift(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.5, 0.5]), 1.0),
                                  [1.0, 1.0, 1.0])
    assert eq.tent(2.0).space.lift(1.7, 0.0, 0.5) == 1.7


def test_orbit_examples(doubling_map, lsv06):
    o = eq.orbit(doubling_map, 1.0 / 3.0, 4)
    assert o.complete
    assert np.allclose(o.points, [1/3, 2/3, 1/3, 2/3, 1/3], atol=1e-12)
    mq = eq.quadratic(-2.0)
    o2 = eq.orbit(mq, 0.0, 2)
    assert o2.complete
    assert np.allclose(o2.points, [0.0, -2.0, 2.0], atol=0)
    o3 = eq.orbit(lsv06, 0.0, 3)
    assert o3.complete
    assert np.allclose(o3.points, [0, 0, 0, 0], atol=0)


def test_roundtrip_inverse_all_builtins():
    rng = np.random.Generator(np.random.Philox(11))
    for m in (eq.doubling(), eq.lsv(0.6), eq.lsv(1.5), eq.tent(2.0), eq.quadratic(-2.0)):
        xs = rng.uniform(m.space.lo, m.space.hi, 1000)
        for x in xs:
            i = m.branch_index(x)
            if i < 0:
                continue
            b = m.branches[i]
            y = float(b.f(x))
            assert abs(_brentq_inverse(b, y) - x) < 1e-9
        for b in m.branches:
            x = xs[(b.lo < xs) & (xs < b.hi)]
            np.testing.assert_allclose(b.inverse_many(b.f_many(x)), x, rtol=0, atol=1e-9)


def test_inverse_is_the_same_alone_and_in_a_batch():
    # Newton stops each element on its own step: with one stop for the
    # whole batch, 42 of the first 200 inverses changed when two others
    # shared the call
    rng = np.random.Generator(np.random.Philox(21))
    for br in (eq.lsv(1.5).branches[0], eq.lsv(0.6).branches[0]):
        y = rng.uniform(br.img_lo, br.img_hi, 200)
        others = rng.uniform(br.img_lo, br.img_hi, 2)
        alone = np.array([br.inverse_many(y[k:k + 1])[0] for k in range(len(y))])
        assert np.array_equal(br.inverse_many(y), alone)
        for k in range(0, len(y), 7):
            batch = br.inverse_many(np.array([others[0], y[k], others[1]]))
            assert batch[1] == alone[k]
        np.testing.assert_allclose(br.f_many(alone), y, rtol=0, atol=4e-16)


def test_warm_inverse_is_the_same_alone_and_in_a_batch():
    # from caller-supplied starts (the zooming detector's) the inverse
    # still stops each element on its own step, so its exactness argument
    # holds for any batch
    rng = np.random.Generator(np.random.Philox(22))
    m2 = eq.iterate(eq.lsv(0.6), 2)
    for br in (eq.lsv(1.5).branches[0], eq.lsv(0.6).branches[0], m2.branches[0], m2.branches[1]):
        y = rng.uniform(br.img_lo, br.img_hi, 200)
        x0 = br.lo + (y - br.img_lo) / (br.img_hi - br.img_lo) * (br.hi - br.lo)
        alone = np.array([br.inverse_many(y[k:k + 1], x0[k:k + 1])[0] for k in range(len(y))])
        assert np.array_equal(br.inverse_many(y, x0), alone)
        for k in range(0, len(y), 7):
            j = (k + 1) % len(y)
            batch = br.inverse_many(np.array([y[j], y[k], y[0]]), np.array([x0[j], x0[k], x0[0]]))
            assert batch[1] == alone[k]
        # a nan start (a zero slope at the caller's point) starts at the left end
        assert np.array_equal(br.inverse_many(y, np.full_like(y, np.nan)),
                              br.inverse_many(y, np.full_like(y, br.lo)))


def test_orientation_matches_deriv_sign():
    rng = np.random.Generator(np.random.Philox(12))
    for m in (eq.doubling(), eq.lsv(0.9), eq.tent(2.0), eq.quadratic(-2.0)):
        for b in m.branches:
            xs = rng.uniform(b.lo + 1e-9, b.hi - 1e-9, 100)
            signs = np.sign(b.df_many(xs))
            assert np.all(signs == (1.0 if b.increasing else -1.0))


def test_branch_derivative_matches_finite_difference():
    rng = np.random.Generator(np.random.Philox(13))
    for m in (eq.doubling(), eq.lsv(0.6), eq.lsv(1.5), eq.tent(2.0), eq.quadratic(-2.0)):
        for b in m.branches:
            L = b.hi - b.lo
            h = 1e-6 * L
            xs = rng.uniform(b.lo + 2 * h, b.hi - 2 * h, 100)
            fd = (b.f_many(xs + h) - b.f_many(xs - h)) / (2 * h)
            assert np.max(np.abs(fd - b.df_many(xs))) < 1e-5


def test_branch_closures_cover_space():
    for m in (eq.doubling(), eq.lsv(0.6), eq.tent(2.0), eq.quadratic(-2.0)):
        bs = sorted(m.branches, key=lambda b: b.lo)
        assert bs[0].lo == m.space.lo
        assert bs[-1].hi == m.space.hi
        for a, b in zip(bs, bs[1:]):
            assert a.hi == b.lo  # closures meet, no gaps


def test_circle_continuity_of_lsv_extension():
    for alpha in (0.6, 1.0, 1.5):
        m = eq.lsv(alpha)
        eps = 1e-6
        a = eq.evaluate(m, 1.0 - eps)
        b = eq.evaluate(m, eps)
        assert m.space.dist(a, b) < 1e-4


def test_map_json_roundtrip(lsv06):
    doc = eq.to_json(lsv06)
    m2 = eq.from_json(doc)
    assert m2.space == lsv06.space
    assert [b.kind for b in m2.branches] == [b.kind for b in lsv06.branches]
    x = 0.347
    assert eq.evaluate(m2, x) == eq.evaluate(lsv06, x)


def test_table_branch_from_json(tmp_path):
    xs = np.linspace(0.0, 0.5, 33)
    doc = {
        "name": "table-doubling",
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [
            {"lo": 0.0, "hi": 0.5, "kind": "table",
             "params": {"x": list(xs), "y": list(2 * xs)}},
            {"lo": 0.5, "hi": 1.0, "kind": "affine", "params": {"a": 2, "b": -1}},
        ],
        "critical": [],
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    m = eq.from_json(str(p))
    assert eq.evaluate(m, 0.2) == pytest.approx(0.4, abs=1e-12)
    assert eq.deriv(m, 0.2) == pytest.approx(2.0, abs=1e-8)


def test_overlong_circle_branch_is_rejected():
    # an image longer than the circle has no unique lift
    doc = {"space": {"lo": 0.0, "hi": 1.0, "circle": True},
           "branches": [{"lo": 0.0, "hi": 0.5, "kind": "affine", "params": {"a": 3.0, "b": 0.0}},
                        {"lo": 0.5, "hi": 1.0, "kind": "affine", "params": {"a": 2.0, "b": -1.0}}]}
    with pytest.raises(ValueError, match="longer than the circle"):
        eq.from_json(doc)
    doc["space"]["circle"] = False
    assert len(eq.from_json(doc).branches) == 2


def test_map_without_branches_is_rejected():
    with pytest.raises(ValueError, match="at least one branch"):
        eq.from_json({"space": {"lo": 0.0, "hi": 1.0}, "branches": []})


def test_iterate_maps_cannot_be_saved(lsv06):
    # a map file holds no composite branches; writing one made a file
    # that from_json rejects
    with pytest.raises(OutOfRange, match="composite"):
        eq.to_json(eq.iterate(lsv06, 2))
    with pytest.raises(OutOfRange):
        eq.iterate(lsv06, 0)


def _doubling_on(lo, hi, lift):
    """x -> 2x on the circle [lo, hi), reduced into [lo, hi) or as lifts."""
    L, mid = hi - lo, 0.5 * (lo + hi)
    # 2x on the left half lands in [2 lo, 2 lo + L): shift it by -lo
    shifts = (-lo, -lo) if lift else (-lo, -lo - L)
    return eq.from_json({
        "space": {"lo": lo, "hi": hi, "circle": True},
        "branches": [{"lo": a, "hi": b, "kind": "affine", "params": {"a": 2.0, "b": c}}
                     for (a, b), c in zip(((lo, mid), (mid, hi)), shifts)]})


@pytest.mark.parametrize("lift", [False, True])
@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.0, 2.0), (1.0, 2.0), (0.0, 0.5)])
def test_iterate_on_circles_matches_composition(lo, hi, lift):
    m = _doubling_on(lo, hi, lift)
    m3 = eq.iterate(m, 3)
    assert len(m3.branches) == 8
    ends = np.array([(b.lo, b.hi) for b in m3.branches])
    np.testing.assert_allclose(ends.ravel(), lo + (hi - lo) * np.repeat(np.arange(9), 2)[1:-1] / 8,
                               rtol=0, atol=1e-15)
    xs = lo + (hi - lo) * np.concatenate([[0.432], (np.arange(97) + 0.3) / 97])
    for x in xs:
        y = eq.evaluate(m, eq.evaluate(m, eq.evaluate(m, x)))
        assert m.space.dist(eq.evaluate(m3, x), y) < 1e-13
        assert eq.deriv(m3, x) == 8.0


def test_iterate_doubling(doubling_map):
    m2 = eq.iterate(doubling_map, 2)
    assert len(m2.branches) == 4
    x = 0.11
    assert eq.evaluate(m2, x) == pytest.approx(eq.evaluate(doubling_map, eq.evaluate(doubling_map, x)), abs=1e-12)
    assert eq.deriv(m2, x) == pytest.approx(4.0, abs=1e-12)


def test_iterate_lsv(lsv06):
    m2 = eq.iterate(lsv06, 2)
    x = 0.77
    y = eq.evaluate(lsv06, eq.evaluate(lsv06, x))
    assert eq.evaluate(m2, x) == pytest.approx(y, abs=1e-10)
    d = eq.deriv(lsv06, x) * eq.deriv(lsv06, eq.evaluate(lsv06, x))
    assert eq.deriv(m2, x) == pytest.approx(d, rel=1e-9)


@pytest.mark.parametrize("m,ell", [(eq.lsv(0.6), 2), (eq.lsv(0.6), 3), (eq.lsv(1.5), 2),
                                   (eq.doubling(), 3)])
def test_iterate_branches_are_full(m, ell):
    # every branch of an iterate of a full-branch circle map is increasing
    # and maps onto the whole circle
    mi = eq.iterate(m, ell)
    assert len(mi.branches) == 2 ** ell
    for b in mi.branches:
        assert b.increasing
        assert b.img_hi - b.img_lo == pytest.approx(1.0, abs=1e-12)
        assert b.img_lo == pytest.approx(0.0, abs=1e-12)


def test_orbit_truncates_on_ambiguous_boundary():
    # interval map with a genuine jump: orbit must stop, flag unset
    doc = {
        "name": "jump",
        "space": {"lo": 0.0, "hi": 1.0, "circle": False},
        "branches": [
            {"lo": 0.0, "hi": 0.5, "kind": "affine", "params": {"a": 1.0, "b": 0.25}},
            {"lo": 0.5, "hi": 1.0, "kind": "affine", "params": {"a": 0.5, "b": 0.0}},
        ],
        "critical": [],
    }
    m = eq.from_json(doc)
    o = eq.orbit(m, 0.5, 3)
    assert not o.complete and len(o.points) == 1


def test_composite_warm_inverse(lsv06):
    # Newton from a caller's start runs on a composite branch too: a start
    # point that already solves f(x) = y is returned unchanged, bit for bit
    m2 = eq.iterate(lsv06, 2)
    rng = np.random.Generator(np.random.Philox(17))
    for br in m2.branches:
        w = br.lo + rng.uniform(0.05, 0.95, 16) * (br.hi - br.lo)
        y = br.f_many(w)
        assert np.array_equal(br.inverse_many(y, w), w)
        t = br.img_lo + rng.uniform(0.0, 1.0, 16) * (br.img_hi - br.img_lo)
        x = br.inverse_many(t, w)
        want = np.array([_brentq_inverse(br, v) for v in t])
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.6, 1.5])
def test_lsv_left_fused_pair_has_the_bits_of_f_and_df(alpha):
    # Newton evaluates (f, f') through `fdf` from one power; it must
    # reproduce the separate formulas exactly, also at 0, at the break
    # point, on subnormals and near the 1e-5 scale of the laminar phase
    br = eq.lsv(alpha).branches[0]
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308])
    near = 1e-5 * (1.0 + np.arange(-40, 41) * 2.0 ** -50)
    grid = np.concatenate([[0.0, -0.0, 0.5, np.nextafter(0.5, 0.0), 0.25, 1e-300],
                           tiny, -tiny, near, np.linspace(0.0, 0.5, 1001),
                           np.random.Generator(np.random.Philox(5)).uniform(0.0, 0.5, 1000)])
    f, df = br.fdf(grid)
    assert f.tobytes() == br.f_many(grid).tobytes()
    assert df.tobytes() == br.df_many(grid).tobytes()


def _table_branch():
    return eq.from_json({"space": {"lo": 0.0, "hi": 1.0}, "branches": [
        {"lo": 0.0, "hi": 1.0, "kind": "table",
         "params": {"x": [0.0, 0.3, 0.7, 1.0], "y": [0.0, 0.5, 0.8, 1.0]}}]}).branches[0]


@pytest.mark.parametrize("kind", ["affine", "quadratic", "lsv_left", "table", "composite"])
def test_inverse_from_an_exact_start_returns_it(kind):
    # f(w) - f(w) = 0: the first step is 0, so Newton stops at w bit for
    # bit; the closed forms ignore the start and invert these dyadic w exactly
    br = {"affine": lambda: eq.doubling().branches[1],
          "quadratic": lambda: eq.quadratic(-2.0).branches[1],
          "lsv_left": lambda: eq.lsv(0.6).branches[0],
          "table": _table_branch,
          "composite": lambda: eq.iterate(eq.lsv(1.5), 3).branches[1]}[kind]()
    w = br.lo + np.arange(1, 128) / 128 * (br.hi - br.lo)
    assert np.array_equal(br.inverse_many(br.f_many(w), w), w)


# ---------------------------------------------------------------------------
# strict_orbit against a plain scalar loop


def _scalar_strict_orbit(m, x, n):
    """Reference: linear search for the open branch domain, Space.wrap."""
    sp = m.space
    x = sp.wrap(float(x))
    pts, idx = [x], []
    for _ in range(n):
        i = next((i for i, b in enumerate(m.branches) if b.lo < x < b.hi), None)
        if i is None or x in m.critical:
            return pts, idx, False
        idx.append(i)
        x = sp.wrap(float(m.branches[i].f(x)))
        pts.append(x)
    return pts, idx, True


def _affine_circle(a, cuts, shifts, critical=()):
    return eq.from_json({
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [{"lo": lo, "hi": hi, "kind": "affine", "params": {"a": a, "b": b}}
                     for (lo, hi), b in zip(zip(cuts, cuts[1:]), shifts)],
        "critical": list(critical)})


def _table_circle():
    xs = np.linspace(0.0, 0.5, 33)
    return eq.from_json({
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [{"lo": 0.0, "hi": 0.5, "kind": "table",
                      "params": {"x": list(xs), "y": list(xs * (1 + 2 * xs))}},
                     {"lo": 0.5, "hi": 1.0, "kind": "affine", "params": {"a": 2, "b": -1}}]})


_THIRDS = [0.0, 7 / 24, 5 / 8, 23 / 24, 1.0]
_ORBIT_MAPS = {
    "doubling": eq.doubling(),
    "doubling as lifts": _affine_circle(2.0, [0.0, 0.5, 1.0], [0.0, 0.0]),
    "3x + 1/8": _affine_circle(3.0, _THIRDS, [0.125 - k for k in range(4)]),
    "3x + 1/8 as lifts": _affine_circle(3.0, _THIRDS, [0.125] * 4),
    "lsv(0.6)": eq.lsv(0.6),
    "lsv(1.5)": eq.lsv(1.5),
    "tent": eq.tent(1.9),
    "quadratic": eq.quadratic(-1.8),
    "table": _table_circle(),
    "lsv(0.6)^2": eq.iterate(eq.lsv(0.6), 2),
    "doubling on [1, 2)": _doubling_on(1.0, 2.0, lift=False),
    "interior critical point": _affine_circle(2.0, [0.0, 0.5, 1.0], [0.0, -1.0], [0.25]),
    # 2 * 1e-30 - 1e-17 % 1.0 rounds up to 1.0, which wraps to 0.0
    "period end": _affine_circle(2.0, [0.0, 0.5, 1.0], [-1e-17, -1.0]),
}


@pytest.mark.parametrize("name", sorted(_ORBIT_MAPS))
def test_strict_orbit_matches_a_scalar_loop(name):
    m = _ORBIT_MAPS[name]
    sp = m.space
    starts = [sp.lo + sp.length * u for u in (0.1234567, 0.377, 0.5, 0.0, 0.25, 0.8, 1e-30)]
    # below and above the space: reduced on circles, a stop on intervals
    starts += [sp.lo - 0.3, sp.hi + 0.7]
    for x in starts:
        for n in (0, 1, 2000):
            pts, idx, ok = strict_orbit(m, x, n)
            want_pts, want_idx, want_ok = _scalar_strict_orbit(m, x, n)
            assert pts.dtype == np.float64 and idx.dtype == np.int64
            assert pts.tobytes() == np.array(want_pts, dtype=np.float64).tobytes()
            assert idx.tobytes() == np.array(want_idx, dtype=np.int64).tobytes()
            assert ok is want_ok


def test_strict_orbit_stops(lsv06, tent_map):
    # a branch end, an interior critical point, a start outside an interval
    # space: the orbit stops at the point, with no branch index for it
    crit = _ORBIT_MAPS["interior critical point"]
    for m, x, n_pts in ((lsv06, 0.5, 1), (lsv06, 0.75, 2), (crit, 0.25, 1), (crit, 0.125, 2),
                        (tent_map, 1.7, 1), (tent_map, -0.3, 1), (tent_map, 0.25, 2)):
        pts, idx, ok = strict_orbit(m, x, 10)
        assert not ok and len(pts) == n_pts and len(idx) == n_pts - 1
    pts, idx, ok = strict_orbit(lsv06, 0.3, 0)
    assert ok and pts.tolist() == [0.3] and len(idx) == 0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_strict_orbit_rejects_a_non_finite_start(lsv06, tent_map, x):
    # wrap sent nan to 0.0 on circles, and the orbit of 0 looked valid
    for m in (lsv06, tent_map):
        with pytest.raises(OutOfRange, match="not finite"):
            strict_orbit(m, x, 10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_point_operations_reject_a_non_finite_x(lsv06, doubling_map, tent_map, x):
    # orbit(lsv(0.6), nan, 3) gave points [0, 0, 0, 0], complete, and
    # evaluate at nan raised AtCriticalOrBoundary at "x=0.0"
    for m in (lsv06, doubling_map, tent_map):
        for op in (lambda: eq.orbit(m, x, 3), lambda: eq.evaluate(m, x),
                   lambda: eq.deriv(m, x), lambda: eq.branch_at(m, x)):
            with pytest.raises(OutOfRange, match="not finite"):
                op()
