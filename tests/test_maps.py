import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import eqstate as eq
from eqstate import maps
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
            np.testing.assert_allclose(b.inverse_many(b.f(x)), x, rtol=0, atol=1e-9)


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
        np.testing.assert_allclose(br.f(alone), y, rtol=0, atol=4e-16)


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


def _newton_branch(kind):
    return {"lsv_left(0.25)": lambda: eq.lsv(0.25).branches[0],
            "lsv_left(0.6)": lambda: eq.lsv(0.6).branches[0],
            "lsv_left(1.5)": lambda: eq.lsv(1.5).branches[0],
            "composite": lambda: eq.iterate(eq.lsv(1.5), 3).branches[1],
            "table": _table_branch}[kind]()


@pytest.mark.parametrize("start", ["cold", "warm", "nan"])
@pytest.mark.parametrize("kind", ["lsv_left(0.25)", "lsv_left(0.6)", "lsv_left(1.5)",
                                  "composite", "table"])
def test_short_newton_has_the_array_bits(monkeypatch, kind, start):
    # batches of at most maps._SHORT_NEWTON elements step in Python floats,
    # longer ones in numpy: both take the same IEEE steps, so any batching
    # gives the same bytes, at the image ends too
    br = _newton_branch(kind)
    rng = np.random.Generator(np.random.Philox(23))
    y = rng.uniform(br.img_lo, br.img_hi, 200)
    y[:2] = br.img_lo, br.img_hi
    x0 = {"cold": None, "nan": np.full_like(y, np.nan),
          "warm": br.lo + (y - br.img_lo) / (br.img_hi - br.img_lo) * (br.hi - br.lo)}[start]

    def batched(size):
        parts = [br.inverse_many(y[k:k + size], None if x0 is None else x0[k:k + size])
                 for k in range(0, len(y), size)]
        return np.concatenate(parts).tobytes()

    short = maps._SHORT_NEWTON
    full = batched(len(y))
    for size in (1, short, short + 1):
        assert batched(size) == full
    monkeypatch.setattr(maps, "_SHORT_NEWTON", len(y))  # all 200 in floats
    assert batched(len(y)) == full
    monkeypatch.setattr(maps, "_SHORT_NEWTON", 0)  # each alone in numpy
    assert batched(1) == full
    x = np.frombuffer(full)
    assert br.lo <= x.min() and x.max() <= br.hi
    np.testing.assert_allclose(br.f(x), y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("start", ["cold", "warm", "nan"])
@pytest.mark.parametrize("size", [1, 32, 33])
@pytest.mark.parametrize("kind", ["lsv_left(0.6)", "lsv_left(1.5)", "composite", "table",
                                  "affine", "quadratic"])
def test_a_nan_target_is_not_in_the_image(kind, size, start):
    # a nan target has no preimage, whatever the start
    closed = {"affine": lambda: eq.lsv(0.6).branches[1],
              "quadratic": lambda: eq.quadratic(-1.9).branches[1]}
    br = closed[kind]() if kind in closed else _newton_branch(kind)
    y = np.linspace(br.img_lo, br.img_hi, size)
    y[size // 2] = np.nan
    x0 = {"cold": None, "nan": np.full(size, np.nan),
          "warm": np.linspace(br.lo, br.hi, size)}[start]
    with pytest.raises(eq.NotInImage, match="nan outside image"):
        br.inverse_many(y, x0)


def _reference_trie(chains, lo, hi):
    """The chain trie from a dict of (seed, symbols last first) paths:
    nodes by depth, then symbol, then path; a seed numbered by its place
    among the sorted distinct (lo, hi)."""
    seeds = sorted(set(zip(lo, hi)))
    keys = [(seeds.index(s),) + tuple(reversed(c)) for c, s in zip(chains, zip(lo, hi))]
    paths = sorted({k[:d] for k in keys for d in range(1, len(k) + 1)},
                   key=lambda p: (len(p), p[-1] if len(p) > 1 else -1, p))
    ids = {p: i for i, p in enumerate(paths)}
    depth = [len(p) - 1 for p in paths]
    return {"parent": [ids[p[:-1] or p] for p in paths],
            "symbols": [p[-1] if len(p) > 1 else -1 for p in paths],
            "at": [sum(d < k for d in depth) for k in range(max(map(len, keys), default=1) + 1)],
            "leaf": [ids[k] for k in keys]}


@pytest.mark.parametrize("alphabet", [(0, 1, 2), (0, 1, 255, 256, 70000)],
                         ids=["bytes", "wide"])
def test_chain_trie_is_the_suffix_trie(alphabet):
    # random chains over a few seeds, with empty and duplicate chains;
    # symbols of 256 and more take the four-byte layout
    rng = np.random.Generator(np.random.Philox(26))
    pool = [(0.0, 1.0), (0.25, 0.5), (0.25, 0.75)]
    for trial in range(60):
        n = int(rng.integers(1, 25))
        chains = [tuple(rng.choice(alphabet, int(rng.integers(0, 7))).tolist()) for _ in range(n)]
        chains += [()] + [chains[int(k)] for k in rng.integers(0, n, 3)]
        seeds = [pool[int(k)] for k in rng.integers(0, 1 + trial % 3, len(chains))]
        lo, hi = (np.array(v) for v in zip(*seeds))
        T = maps._chain_trie(chains, lo, hi)
        want = _reference_trie(chains, lo.tolist(), hi.tolist())
        got = {"parent": T.parent.tolist(), "symbols": T.symbols.tolist(), "at": T.at,
               "leaf": T.leaf.tolist()}
        assert got == want
        roots = T.values[:T.at[1]]
        assert list(map(tuple, roots[:, [0, 4]].tolist())) == sorted(set(seeds))
        assert np.isnan(T.values[T.at[1]:]).all()
    # one seed for all chains, a lone empty chain, no chain
    T = maps._chain_trie([(1, 0), (0,), (1, 0)], 0.5, 1.0)
    assert (T.parent.tolist(), T.symbols.tolist(), T.at, T.leaf.tolist()) == (
        [0, 0, 1], [-1, 0, 1], [0, 1, 2, 3], [2, 1, 2])
    T = maps._chain_trie([()], 0.5, 1.0)
    assert (T.parent.tolist(), T.symbols.tolist(), T.at, T.leaf.tolist()) == ([0], [-1], [0, 1], [0])
    T = maps._chain_trie([], 0.5, 1.0)
    assert (T.parent.tolist(), T.at, T.leaf.tolist(), T.values.shape) == ([], [0, 0], [], (0, 5))


def test_orientation_matches_deriv_sign():
    rng = np.random.Generator(np.random.Philox(12))
    for m in (eq.doubling(), eq.lsv(0.9), eq.tent(2.0), eq.quadratic(-2.0)):
        for b in m.branches:
            xs = rng.uniform(b.lo + 1e-9, b.hi - 1e-9, 100)
            signs = np.sign(b.df(xs))
            assert np.all(signs == (1.0 if b.increasing else -1.0))


def test_branch_derivative_matches_finite_difference():
    rng = np.random.Generator(np.random.Philox(13))
    for m in (eq.doubling(), eq.lsv(0.6), eq.lsv(1.5), eq.tent(2.0), eq.quadratic(-2.0)):
        for b in m.branches:
            L = b.hi - b.lo
            h = 1e-6 * L
            xs = rng.uniform(b.lo + 2 * h, b.hi - 2 * h, 100)
            fd = (b.f(xs + h) - b.f(xs - h)) / (2 * h)
            assert np.max(np.abs(fd - b.df(xs))) < 1e-5


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


@pytest.mark.parametrize("ell", [2.0, 1.5, True, False, "2", None])
def test_iterate_needs_an_integer_ell(lsv06, ell):
    # 2.0 raised TypeError from range() and True returned the map itself
    with pytest.raises(OutOfRange, match="integer ell"):
        eq.iterate(lsv06, ell)


def test_iterate_caps_its_pieces(monkeypatch, lsv06):
    # the pieces double with each split; past the cap the split stops at
    # once, with no list of the next level built
    made = []
    pieces = maps._image_pieces

    def counted(*a):
        for piece in pieces(*a):
            made.append(piece)
            yield piece

    monkeypatch.setattr(maps, "_MAX_ITERATE_PIECES", 8)
    monkeypatch.setattr(maps, "_image_pieces", counted)
    assert len(eq.iterate(lsv06, 3).branches) == 8
    made.clear()
    with pytest.raises(OutOfRange, match=r"\^4 has over 8 monotonicity pieces"):
        eq.iterate(lsv06, 6)
    assert len(made) == 2 + 4 + 8 + 9  # the levels 1..3, then one piece over


@pytest.mark.parametrize("alpha", [1100.0, 1e308, -1.0, 0.0, math.nan, math.inf])
def test_lsv_left_rejects_alpha(alpha):
    # 1100 and 1e308 raised OverflowError from 2^alpha, -1 ZeroDivisionError,
    # and nan made a map of nan images
    doc = {"space": {"lo": 0.0, "hi": 1.0, "circle": True},
           "branches": [{"lo": 0.0, "hi": 0.5, "kind": "lsv_left", "params": {"alpha": alpha}},
                        {"lo": 0.5, "hi": 1.0, "kind": "lsv_right"}]}
    with pytest.raises(OutOfRange, match="alpha"):
        eq.from_json(doc)
    with pytest.raises(OutOfRange, match="alpha"):
        eq.lsv(alpha)


@pytest.mark.parametrize("a, hi", [(math.inf, 1.0), (math.nan, 1.0), (1e308, 10.0)])
def test_branch_rejects_a_non_finite_image(a, hi):
    # the last: finite formula, but f(hi) = 1e309 overflows
    doc = {"space": {"lo": 0.0, "hi": hi},
           "branches": [{"lo": 0.0, "hi": hi, "kind": "affine", "params": {"a": a, "b": 0.0}}]}
    with pytest.raises(OutOfRange, match="not finite"):
        eq.from_json(doc)


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
        y = br.f(w)
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
    assert f.tobytes() == br.f(grid).tobytes()
    assert df.tobytes() == br.df(grid).tobytes()


@pytest.mark.parametrize("kind", ["affine", "quadratic", "table", "composite"])
def test_every_fused_pair_has_the_bits_and_shape_of_f_and_df(kind):
    # every branch takes (f, f') from one `fdf` call; a kind without a
    # joint formula pairs f and df, and both are arrays of x's shape
    # (an affine f' too, not the scalar slope)
    br = {"affine": lambda: eq.doubling().branches[1],
          "quadratic": lambda: eq.quadratic(-2.0).branches[0],
          "table": _table_branch,
          "composite": lambda: eq.iterate(eq.lsv(1.5), 3).branches[1]}[kind]()
    x = np.linspace(br.lo, br.hi, 60).reshape(3, 4, 5)
    for v in (x, x[0, 0, :1], x[0, 0, :0]):
        pair = br.fdf(v)
        for got, want in zip(pair, (br.f(v), br.df(v))):
            assert type(got) is np.ndarray and got.shape == v.shape and got.dtype == float
            assert got.tobytes() == want.tobytes()


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
    assert np.array_equal(br.inverse_many(br.f(w), w), w)


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


def _same_orbit(m, x, n):
    """strict_orbit(m, x, n) against the scalar loop, byte for byte; the orbit."""
    pts, idx, ok = strict_orbit(m, x, n)
    want_pts, want_idx, want_ok = _scalar_strict_orbit(m, x, n)
    assert pts.dtype == np.float64 and idx.dtype == np.int64
    assert pts.tobytes() == np.array(want_pts, dtype=np.float64).tobytes()
    assert idx.tobytes() == np.array(want_idx, dtype=np.int64).tobytes()
    assert ok is want_ok
    return pts, idx, ok


# the rotation x -> x + 2^-16 on both halves: exact dyadic steps, so an
# orbit from k 2^-16 lands on the boundary 1/2 after 2^15 - k steps
_STEP = 2.0 ** -16


def _rotation(circle=True, formula=None):
    """The rotation by _STEP on (0, 1/2) and (1/2, 1); formula(k, x), when
    given, is branch k's formula in place of x + _STEP."""
    f = formula or (lambda k, x: x + _STEP)
    sp = maps.Space(0.0, 1.0, circle)
    return maps.MapSpec("rotation", sp, tuple(
        maps.Branch(lo, hi, "rotation", {}, lambda x, k=k: f(k, x), lambda x: np.ones(np.shape(x)))
        for k, (lo, hi) in enumerate(((0.0, 0.5), (0.5, 1.0)))))


@pytest.mark.parametrize("circle", [True, False])
@pytest.mark.parametrize("k", [1, 1001])
def test_strict_orbit_stops_deep_in_a_later_block(circle, k):
    # 32767 steps end a block, 31767 stop 3095 steps into one; the fast
    # pass steps past 1/2, and the check hands over to the strict loop
    pts, idx, ok = _same_orbit(_rotation(circle), k * _STEP, 10 ** 6)
    assert not ok and len(pts) == 2 ** 15 - k + 1 and pts[-1] == 0.5
    assert len(pts) > 7 * maps._ORBIT_BLOCK


def test_strict_orbit_wraps_a_point_rounded_up_to_hi_in_a_later_block():
    # 47200 steps of the rotation and the contraction x / 2 - 1e-20 reach
    # -6.4e-21, which the reduction rounds up to hi = 1: the strict loop
    # sends it to lo = 0, a branch end, where the orbit stops
    m = eq.from_json({"space": {"lo": 0.0, "hi": 1.0, "circle": True}, "branches": [
        {"lo": 0.0, "hi": 0.25, "kind": "affine", "params": {"a": 0.5, "b": -1e-20}},
        {"lo": 0.25, "hi": 1.0, "kind": "affine", "params": {"a": 1.0, "b": _STEP}}]})
    pts, _, ok = _same_orbit(m, 0.25 + _STEP / 2 + 2000 * _STEP, 10 ** 6)
    assert not ok and pts[-1] == 0.0 and (0.5 * pts[-2] - 1e-20) % 1.0 == 1.0
    assert len(pts) - 1 > 11 * maps._ORBIT_BLOCK


def test_strict_orbit_ignores_a_raise_past_the_stop():
    # the right branch raises on (0.5 + 500 2^-16, 0.9), which the fast
    # pass reaches after the stop at 1/2; the strict loop never does
    def formula(k, x):
        if k == 1 and 0.5 + 500 * _STEP < x < 0.9:
            raise ValueError(f"no value at {x!r}")
        return x + _STEP

    pts, _, ok = _same_orbit(_rotation(formula=formula), 1001 * _STEP, 10 ** 6)
    assert not ok and pts[-1] == 0.5


def test_strict_orbit_raises_on_a_valid_point_as_the_scalar_loop():
    def formula(k, x):
        if 0.25 < x < 0.26:
            raise ValueError(f"no value at {x!r}")
        return x + _STEP

    m = _rotation(formula=formula)
    with pytest.raises(ValueError) as want:
        _scalar_strict_orbit(m, _STEP, 10 ** 6)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        strict_orbit(m, _STEP, 10 ** 6)


def test_strict_orbit_of_composites_that_return_numpy_values():
    m = eq.iterate(_table_circle(), 2)
    assert not isinstance(m.branches[0].f(0.1), float)
    for x in (0.1234567, 0.377, 0.8):
        _same_orbit(m, x, maps._ORBIT_BLOCK + 10)


@pytest.mark.parametrize("dn", [-1, 0, 1])
def test_strict_orbit_at_the_block_size(lsv06, dn):
    # from 28672 2^-16 the rotation lands on 1/2 after exactly one block:
    # complete one step short of it and on it, stopped one step past it
    n = maps._ORBIT_BLOCK + dn
    _same_orbit(lsv06, 0.1234567, n)
    pts, _, ok = _same_orbit(_rotation(), 0.5 - maps._ORBIT_BLOCK * _STEP, n)
    assert ok is (dn <= 0) and pts[-1] == (0.5 if dn >= 0 else 0.5 - _STEP)


def test_strict_orbit_calls_at_most_one_block_of_formulas_past_a_stop():
    calls = [0]

    def formula(k, x):
        calls[0] += 1
        return x + _STEP

    m = _rotation(formula=formula)
    calls[0] = 0
    pts, _, ok = strict_orbit(m, 1001 * _STEP, 10 ** 6)
    assert not ok and len(pts) - 1 == 31767
    assert len(pts) - 1 < calls[0] <= len(pts) - 1 + maps._ORBIT_BLOCK



def test_strict_orbit_peak_is_about_its_returned_arrays(lsv06):
    # points go into a packed buffer and the indices are made in one pass
    # at the end; an orbit built on Python lists peaked at 5.6 MB
    tracemalloc.start()
    try:
        pts, idx, ok = strict_orbit(lsv06, 0.1234567, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak <= 1.06 * (pts.nbytes + idx.nbytes)

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


@pytest.mark.parametrize("n", [-5, -1, True, False, 2.5, 2.0, np.float64(3), "3", None])
def test_orbits_reject_a_step_count_that_is_no_integer(lsv06, n):
    # -5 gave a one-point orbit marked complete, True took one step and
    # 2.5 raised a TypeError from range
    for op in (strict_orbit, eq.orbit):
        with pytest.raises(OutOfRange, match="integer n >= 0"):
            op(lsv06, 0.3, n)


def test_orbits_take_zero_and_numpy_integer_step_counts(lsv06):
    pts, idx, ok = strict_orbit(lsv06, 0.3, 0)
    assert ok and pts.tolist() == [0.3] and len(idx) == 0
    assert eq.orbit(lsv06, 0.3, 0).points.tolist() == [0.3]
    for got, want in zip(strict_orbit(lsv06, 0.3, np.int64(5)), strict_orbit(lsv06, 0.3, 5)):
        assert np.array_equal(got, want)
    assert np.array_equal(eq.orbit(lsv06, 0.3, np.int64(5)).points, eq.orbit(lsv06, 0.3, 5).points)


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
