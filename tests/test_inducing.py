import base64
import dataclasses
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import eqstate as eq
from eqstate import maps
from eqstate.cli import dispatch
from eqstate.errors import NotMarkovCompatible, OutOfRange, UnknownGenerator
from eqstate.maps import _pull_trie
from scalar_reference import scalar_pull
from test_orbit_table import _lifted_doubling


def test_doubling_scheme(doubling_scheme):
    assert doubling_scheme.return_times().tolist() == [1, 1]
    assert doubling_scheme.exhausted


def test_tent_scheme(tent_scheme):
    assert tent_scheme.return_times().tolist() == [1, 1]


def test_lsv_one_branch_per_level(lsv06_scheme, lsv15_scheme):
    for s, nmax in ((lsv06_scheme, 20), (lsv15_scheme, 40)):
        ctr = Counter(s.return_times().tolist())
        assert ctr == {n: 1 for n in range(1, nmax + 1)}
        assert not s.exhausted
        assert s.complete_up_to == nmax


def test_cylinders_disjoint_and_sorted(lsv06_scheme):
    lo, hi = lsv06_scheme.trie.ends()
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    assert np.all(hi[:-1] <= lo[1:] + lsv06_scheme.tol) and np.all(hi - lo > 0)


def test_full_branch_certificate(lsv06_scheme, doubling_scheme):
    for s in (lsv06_scheme, doubling_scheme):
        m = s.map
        for i, ends in enumerate(zip(*(v.tolist() for v in s.trie.ends()))):
            for e in ends:
                img = _scalar_forward(m, s.chain(i), e)
                assert not math.isnan(img)
                d = min(m.space.dist(img, s.base_lo), m.space.dist(img, s.base_hi))
                assert d <= s.tol


def test_first_return_property(lsv06_scheme):
    # intermediate images of each cylinder never enter the open base
    m = lsv06_scheme.map
    B_lo, B_hi = lsv06_scheme.base
    for i, (y1, y2) in enumerate(zip(*(v.tolist() for v in lsv06_scheme.trie.ends()))):
        for bi in lsv06_scheme.chain(i)[:-1]:
            br = m.branches[bi]
            y1, y2 = sorted((float(br.f(max(br.lo, min(br.hi, y1)))),
                             float(br.f(max(br.lo, min(br.hi, y2))))))
            overlap = min(y2, B_hi) - max(y1, B_lo)
            assert overlap <= lsv06_scheme.tol


def test_kac_polynomial_decay(lsv06_scheme):
    # Lebesgue measure of {R=n} decays like n^(-1/alpha - 1) within factor 3
    ex = 1.0 / 0.6 + 1.0
    lo, hi = lsv06_scheme.trie.ends()
    lens = dict(zip(lsv06_scheme.return_times().tolist(), (hi - lo).tolist()))
    C = lens[10] * 10.0 ** ex
    for n in range(5, 21):
        ratio = lens[n] * n ** ex / C
        assert 1.0 / 3.0 < ratio < 3.0


def test_not_markov_compatible(doubling_map):
    with pytest.raises(NotMarkovCompatible):
        eq.first_return_scheme(doubling_map, (0.1, 0.7), 3)


def test_quadratic_scheme_full_interval():
    m = eq.quadratic(-2.0)
    s = eq.first_return_scheme(m, (-2.0, 2.0), 4)
    assert s.return_times().tolist() == [1, 1]
    assert s.exhausted


def test_constant_one_matches_lsv_enumeration(lsv06_scheme):
    one = eq.analytic_counts("constant_one")
    enum = eq.level_counts(lsv06_scheme)
    for n in range(1, 21):
        assert one.count(n) == enum.count(n)


def test_level_counts(doubling_scheme, lsv06_scheme):
    c = eq.level_counts(doubling_scheme)
    assert c.table == ((1, 2.0),)
    assert c.support == "finite"
    cl = eq.level_counts(lsv06_scheme)
    assert cl.table == tuple((n, 1.0) for n in range(1, 21))
    assert cl.support == "truncated"
    # growth certificate: count(n) <= C e^{rho n}
    for n, cnt in cl.table:
        assert cnt <= cl.prefactor * math.exp(cl.rate * n) + 1e-12


def test_analytic_counts_examples():
    two = eq.analytic_counts("two_at_one")
    assert two.count(1) == 2 and two.count(2) == 0
    one = eq.analytic_counts("constant_one")
    assert all(one.count(n) == 1 for n in range(1, 50))
    g2 = eq.analytic_counts("gouezel", q=2)
    assert g2.count(3) == 4.0 ** 5
    assert g2.rate == pytest.approx(math.log(4), abs=0)
    with pytest.raises(UnknownGenerator):
        eq.analytic_counts("nope")
    ut = eq.analytic_counts("user_table", table={1: 2, 3: 5}, complete=False)
    assert ut.count(3) == 5 and ut.support == "truncated"


@pytest.mark.parametrize("kind,params", [
    # 1.5 was stored as level 1 beside level 1: count(1) read 2, log_count(1)
    # log 3 and the root log 5
    ("user_table", {"table": {1: 2, 1.5: 3}}),
    ("user_table", {"table": {True: 2}}),
    ("user_table", {"table": {"1": 2}}),
    # q = 2.7 ran q = 2, and q = True ran q = 1
    ("gouezel", {"q": 2.7}),
    ("gouezel", {"q": True}),
    ("gouezel", {"q": "2"}),
])
def test_a_level_or_q_that_is_no_integer_is_unknown(kind, params):
    with pytest.raises(UnknownGenerator, match="integer"):
        eq.analytic_counts(kind, **params)


def test_numpy_integers_are_levels_and_q():
    g = eq.analytic_counts("gouezel", q=np.int64(2))
    assert type(g.params["q"]) is int and g.count(3) == 4.0 ** 5
    ut = eq.analytic_counts("user_table", table={np.int64(3): 5, 1: 2})
    assert ut.table == ((1, 2.0), (3, 5.0)) and ut.count(3) == 5.0 and ut.count(2) == 0.0



@pytest.mark.parametrize("n", [2.5, True, False, np.float64(2.0), "2", None])
def test_level_counts_take_only_integer_levels(n):
    # gouezel q = 2 gave count(2.5) = 512, log_count(2.5) = 6.238 and
    # count(True) = 64
    for counts in (eq.analytic_counts("gouezel", q=2), eq.analytic_counts("constant_one"),
                   eq.analytic_counts("user_table", table={1: 2, 3: 5})):
        for read in (counts.count, counts.log_count):
            with pytest.raises(OutOfRange, match="a level is an integer"):
                read(n)


def test_level_counts_at_integer_levels():
    g = eq.analytic_counts("gouezel", q=2)
    assert g.count(0) == 0.0 and g.count(-3) == 0.0 and g.log_count(0) == -math.inf
    assert g.count(np.int64(3)) == g.count(3) == 4.0 ** 5
    assert g.log_count(np.int64(3)) == g.log_count(3) == 5 * math.log(4.0)

def test_refine_doubling(doubling_scheme):
    r = eq.refine(doubling_scheme, 2)
    assert len(r.times) == 4
    assert set(r.times.tolist()) == {2}
    r1 = eq.refine(doubling_scheme, 1)
    assert len(r1.times) == len(doubling_scheme)
    assert sorted(r1.times.tolist()) == sorted(doubling_scheme.return_times().tolist())


def test_refine_lsv_word_counts(lsv06_scheme):
    r = eq.refine(lsv06_scheme, 2)
    wc = r.word_counts()
    for n in range(2, 22):
        assert wc[n] == n - 1


def _convolve_counts(table, ell, cap):
    base = np.zeros(cap + 1)
    for n, c in table:
        if n <= cap:
            base[n] = c
    out = base.copy()
    for _ in range(ell - 1):
        out = np.convolve(out, base)[: cap + 1]
    return out


def test_refine_convolution(doubling_scheme, lsv06_scheme):
    for s, ell in ((doubling_scheme, 3), (doubling_scheme, 4), (lsv06_scheme, 2), (lsv06_scheme, 3)):
        table = sorted(Counter(s.return_times().tolist()).items())
        cap = ell * max(n for n, _ in table)
        conv = _convolve_counts(table, ell, cap)
        wc = eq.refine(s, ell).word_counts()
        for n in range(cap + 1):
            assert wc.get(n, 0) == int(round(conv[n]))


def test_refine_interval(doubling_scheme, lsv06_scheme, tent_scheme):
    r = eq.refine(doubling_scheme, 2)
    lo, hi = r.interval((0, 1))
    # x in (0,1/2) with f(x) in (1/2,1): the (0,1)-cylinder of the full 2-shift
    assert (lo, hi) == (pytest.approx(0.25, abs=1e-12), pytest.approx(0.5, abs=1e-12))
    # a word's cylinder is the base pulled back through its joined chains
    for s in (lsv06_scheme, tent_scheme):
        r, last = eq.refine(s, 3), len(s) - 1
        for word in ((0, 0, 0), (1, 0, last), (last, last // 2, 1)):
            chain = sum((s.chain(i) for i in word), ())
            a, b = _pull_trie(s.map, [chain], *s.base).ends()
            assert r.interval(word) == (float(a[0]), float(b[0]))


@pytest.mark.parametrize("ell", [2.5, True, 2.0, "2"])
def test_refine_order_must_be_an_integer(doubling_scheme, ell):
    with pytest.raises(OutOfRange, match="integer ell"):
        eq.refine(doubling_scheme, ell)


def test_refine_refuses_a_word_table_past_the_cap_before_it_allocates():
    # 200^4 words would take 12.8 GB: refused at once, with nothing made
    s = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 200)
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="too many"):
            eq.refine(s, 4)
        with pytest.raises(OutOfRange, match="too many"):
            eq.refine(s, 10 ** 18)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert len(eq.refine(s, 2).times) == 200 ** 2


@pytest.mark.parametrize("i", [-1, 2, 1.0, True, np.int64(-1)])
def test_a_branch_index_outside_the_scheme_is_out_of_range(doubling_scheme, i):
    # as an index of the leaves, -1 would read the last branch and 2 (= len)
    # lies past them
    with pytest.raises(OutOfRange, match="branch index"):
        doubling_scheme.chain(i)
    with pytest.raises(OutOfRange, match="branch index"):
        eq.refine(doubling_scheme, 2).interval((0, i))
    assert doubling_scheme.chain(np.int64(1)) == doubling_scheme.chain(1)


def test_refine_of_one_branch_or_none_takes_no_loop_over_ell(doubling_map):
    # 1^ell words stay under the cap for every ell: R_ell = ell R is made at
    # once, the bits of the word-by-word sums for small ell
    one = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 1)
    none = eq.first_return_scheme(doubling_map, (0.25, 0.5), 1)
    assert (len(one), len(none)) == (1, 0)
    for s in (one, none):
        R = s.return_times()
        for ell in range(1, 6):
            times = R
            for _ in range(ell - 1):
                times = np.add.outer(times, R).ravel()
            got = eq.refine(s, ell).times
            assert got.dtype == times.dtype and got.tobytes() == times.tobytes()
        t = time.perf_counter()
        assert eq.refine(s, 10 ** 9).times.tolist() == [10 ** 9 * r for r in R.tolist()]
        assert time.perf_counter() - t < 1.0
    assert eq.refine(one, 2 ** 63 - 1).times.tolist() == [2 ** 63 - 1]
    with pytest.raises(OutOfRange, match="int64"):
        eq.refine(one, 2 ** 63)
    assert eq.refine(none, 10 ** 30).times.tolist() == []


def test_refine_order_below_one_is_out_of_range(doubling_scheme):
    with pytest.raises(OutOfRange):
        eq.refine(doubling_scheme, 0)


def test_iterate_scheme_is_not_saved(tmp_path, lsv06):
    # save_scheme fails before it writes a map file that load_scheme rejects
    s = eq.first_return_scheme(eq.iterate(lsv06, 2), (0.5, 1.0), 4)
    assert len(s) > 0
    p = tmp_path / "s.json"
    with pytest.raises(OutOfRange):
        eq.save_scheme(s, str(p))
    assert not p.exists()


def test_scheme_json_roundtrip(tmp_path, lsv06_scheme):
    p = tmp_path / "s.json"
    eq.save_scheme(lsv06_scheme, str(p))
    s2 = eq.load_scheme(str(p))
    assert s2 == lsv06_scheme
    # reload is byte-stable
    p2 = tmp_path / "s2.json"
    eq.save_scheme(s2, str(p2))
    assert p.read_text() == p2.read_text()


def _ints(doc, key):
    """A writable copy of the int64 array doc[key]."""
    return np.frombuffer(base64.b64decode(doc[key]), dtype="<i8").copy()


def _put(doc, key, a, dtype="<i8"):
    doc[key] = base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode()


def _set_entry(doc, key, k, v):
    """Set entry k of the int64 array doc[key] to v."""
    a = _ints(doc, key)
    a[k] = v
    _put(doc, key, a)


_AT = "at is not the strictly increasing integers"


# lsv(0.6) over (1/2, 1) at horizon 20: the suffixes 0^k and 1 0^k, two
# nodes at every depth up to 19 and the leaf of R = 20 alone at depth 20
@pytest.mark.parametrize("edit,match", [
    (lambda d: d.update(base=[0.5, math.nan]), "base"),
    (lambda d: d.update(base=[1.0, 0.5]), "base"),
    (lambda d: d.update(base=[0.5, 1.5]), "base"),
    (lambda d: d.update(tol=math.inf), "tol"),
    # true loaded as tol 1.0, strings and true in the base as numbers
    (lambda d: d.update(tol=True), "tol holds True, not a number"),
    (lambda d: d.update(base=["0.5", "1.0"]), "base holds '0.5', not a number"),
    (lambda d: d.update(base=[0.5, True]), "base holds True, not a number"),
    (lambda d: d.update(base="01"), "base='01' is not a pair of numbers"),
    (lambda d: d.update(tol=10 ** 400), "tol holds an integer beyond the doubles"),
    (lambda d: _set_entry(d, "symbols", 0, 2), "names a branch"),
    (lambda d: _set_entry(d, "symbols", 5, -1), "node 6 names a branch that the map does not"),
    (lambda d: d.update(complete_up_to=19.5), "complete_up_to=19.5 is not an integer"),
    (lambda d: d.update(complete_up_to="20"), "complete_up_to='20' is not an integer"),
    (lambda d: d.update(complete_up_to=19), "complete_up_to=19 is below the deepest leaf"),
    # both were refused as below the deepest leaf
    (lambda d: d.update(complete_up_to=0), "complete_up_to=0 is not an integer >= 1"),
    (lambda d: d.update(complete_up_to=-3), "complete_up_to=-3 is not an integer >= 1"),
    # bool("false") loaded a truncated scheme as exhausted, with finite support
    (lambda d: d.update(exhausted="false"), "exhausted='false' is not true or false"),
    (lambda d: d.update(exhausted=0), "exhausted=0 is not true or false"),
    (lambda d: _put(d, "leaf", [1, 2, 3], "<i4"), "leaf holds 12 bytes, not whole rows of 8"),
    (lambda d: d.update(parent=d["parent"][:-4]), "Incorrect padding|whole rows"),
    (lambda d: d["at"].__setitem__(3, 1.7), "at holds 1.7, not an integer"),
    (lambda d: d["at"].__setitem__(3, True), "at holds True, not an integer"),
    (lambda d: d["at"].__setitem__(3, "1"), "at holds '1', not an integer"),
    (lambda d: d.update(at=d["at"][1:]), _AT),
    (lambda d: d["at"].__setitem__(3, 3), _AT),
    (lambda d: d["at"].append(d["at"][-1] + 1), _AT),
    (lambda d: _put(d, "values", np.zeros((38, 5)), "<f8"),
     r"integers \[0, 1, \.\.\., 40\]: parent, symbols and values hold 39, 39 and 38 nodes"),
    (lambda d: _set_entry(d, "parent", 4, 0), "node 5 has a parent that is not one depth above"),
    (lambda d: _set_entry(d, "parent", 37, 2 ** 62), "node 38 has a parent that is not one"),
    (lambda d: _set_entry(d, "leaf", 0, 0), "not distinct nodes below the root"),
    (lambda d: _set_entry(d, "leaf", 0, 40), "not distinct nodes below the root"),
    (lambda d: _set_entry(d, "leaf", 1, 2), "not distinct nodes below the root"),
    (lambda d: _set_entry(d, "leaf", 19, 3), "node 39 is no leaf and no parent"),
])
def test_load_scheme_checks_the_structure(tmp_path, lsv06_scheme, edit, match):
    p = tmp_path / "s.json"
    eq.save_scheme(lsv06_scheme, str(p))
    doc = json.loads(p.read_text())
    assert doc["base"] == [0.5, 1.0] and doc["at"] == [0, 1, *range(3, 40, 2), 40]
    assert _ints(doc, "leaf")[:2].tolist() == [2, 4]
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        eq.load_scheme(str(p))


def test_saved_schemes_load(tmp_path, doubling_scheme, tent_scheme, lsv06_scheme, lsv15_scheme):
    # branches read off the stored trie are the built ones, chains and cylinders;
    # (1/2, 3/4) first returns under doubling at time 2, so horizon 1 is empty
    for s in (doubling_scheme, tent_scheme, lsv06_scheme, lsv15_scheme,
              eq.first_return_scheme(eq.doubling(), (0.5, 0.75), 1),
              eq.first_return_scheme(eq.quadratic(-2.0), (1.0, 2.0), 12)):
        p = tmp_path / "s.json"
        eq.save_scheme(s, str(p))
        assert eq.load_scheme(str(p)) == s


# ---------------------------------------------------------------------------
# the chain trie against scalar pullbacks, one chain at a time


def _scalar_forward(m, chain, x):
    sp = m.space
    y = float(x)
    for bi in chain:
        br = m.branches[bi]
        for cand in ((y, y - sp.length, y + sp.length) if sp.circle else (y,)):
            if br.lo - 1e-9 <= cand <= br.hi + 1e-9:
                y = float(br.f(min(max(cand, br.lo), br.hi)))
                break
        else:
            return math.nan
    return sp.wrap(y) if sp.circle else y


_SCHEMES = {
    "doubling": (eq.doubling, (0.0, 0.5), 12),
    "tent": (lambda: eq.tent(2.0), (0.0, 0.5), 8),
    "quadratic": (lambda: eq.quadratic(-2.0), (-2.0, 2.0), 4),
    "lsv06": (lambda: eq.lsv(0.6), (0.5, 1.0), 40),
    "lsv15": (lambda: eq.lsv(1.5), (0.5, 1.0), 200),
}


@pytest.mark.parametrize("make, base, H", [
    (lambda: eq.lsv(1.5), (0.5, 1.0), 200), (lambda: eq.lsv(0.6), (0.5, 1.0), 300),
    (lambda: eq.lsv(0.25), (0.5, 1.0), 100), (_lifted_doubling, (0.0, 0.5), 12)],
    ids=["1.5-200", "0.6-300", "0.25-100", "lifted-doubling-12"])
def test_trie_bytes_do_not_depend_on_the_short_newton(monkeypatch, make, base, H):
    # the pullback's few-element groups are lifted and inverted in Python
    # floats; with every group in numpy (threshold 0), through `_shift`,
    # the trie keeps its bytes.  Every lsv lift is 0; the lifted doubling
    # map's are not
    m = make()
    tries = [eq.first_return_scheme(m, base, H).trie]
    monkeypatch.setattr(maps, "_SHORT_NEWTON", 0)
    tries.append(eq.first_return_scheme(m, base, H).trie)
    for key in ("parent", "symbols", "values", "leaf"):
        assert getattr(tries[0], key).tobytes() == getattr(tries[1], key).tobytes()
    assert tries[0].at == tries[1].at
    if make is _lifted_doubling:
        T = tries[0]
        lifts = T.values[T.parent] - maps._shift(m, T, slice(None))
        assert np.count_nonzero(lifts[T.at[1]:, 0]) == 11 and len(T.parent) == 24


@pytest.mark.parametrize("make,base,H", [(lambda: eq.lsv(1.5), (0.5, 1.0), 200),
                                         (lambda: eq.quadratic(-2.0), (1.0, 2.0), 16),
                                         (eq.doubling, (0.0, 0.5), 12)],
                         ids=["lsv15", "quadratic", "doubling"])
def test_a_leaf_does_not_depend_on_its_trie(make, base, H):
    # a leaf is lifted and inverted from its parent alone: its values and
    # its parent's lifted values are those of its chain pulled back alone,
    # byte for byte
    m = make()
    s = eq.first_return_scheme(m, base, H)
    T = s.trie
    for i, n in enumerate(T.leaf.tolist()):
        A = _pull_trie(m, [s.chain(i)], *base)
        k = A.leaf[0]
        assert T.values[n].tobytes() == A.values[k].tobytes()
        assert maps._shift(m, T, [n]).tobytes() == maps._shift(m, A, [k]).tobytes()


def test_iterate_ends_do_not_depend_on_the_trie(monkeypatch):
    # iterate pulls every piece's seed back in one trie; each end is the
    # end of its chain pulled back alone from its own seed
    calls = []
    pull = maps._pull_trie
    monkeypatch.setattr(maps, "_pull_trie", lambda *a: calls.append(a) or pull(*a))
    m = eq.lsv(0.6)
    it = eq.iterate(m, 3)
    [(_, chains, lo, hi)] = calls
    assert len(set(zip(lo, hi))) > 1 and len(it.branches) == len(chains)
    for br, c, a, b in zip(it.branches, chains, lo, hi):
        ends = np.concatenate(pull(m, [c], a, b).ends())
        assert np.array([br.lo, br.hi]).tobytes() == ends.tobytes()


def test_a_build_inverts_each_depth_once_and_the_leaves_once_a_branch(monkeypatch):
    # only nodes with children are pulled back depth by depth (one lsv
    # node a depth); every leaf waits for one call per map branch
    calls = []
    inverse = eq.Branch.inverse_many
    monkeypatch.setattr(eq.Branch, "inverse_many",
                        lambda self, *a: calls.append(self.kind) or inverse(self, *a))
    m = eq.lsv(1.5)
    s = eq.first_return_scheme(m, (0.5, 1.0), 200)
    depths = len(s.trie.at) - 2  # below the root
    assert depths == 200
    assert len(calls) <= depths + len(m.branches)
    assert calls.count("lsv_right") == 1


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_pullback_matches_scalar_loops(name):
    make, base, H = _SCHEMES[name]
    m = make()
    s = eq.first_return_scheme(m, base, H)
    chains = [s.chain(i) for i in range(len(s))]
    trie = _pull_trie(m, chains, *base)
    lo, hi = trie.ends()
    assert all(np.array_equal(a, b) for a, b in zip(s.trie.ends(), (lo, hi)))
    # closed-form inverses give the scalar loop's bits; Newton its values
    atol = 1e-12 if name.startswith("lsv") else 0.0
    got, want = [], []
    for e, chain in enumerate(chains):
        path = scalar_pull(m, chain, *base)
        got.append([lo[e], hi[e]])
        want.append(sorted((path[0][0][0], path[0][0][4])))
        n = trie.leaf[e]  # every node on the way to the root is a suffix's pullback
        for y, g in path:
            got.append(trie.values[n])
            want.append(y)
            assert trie.symbols[n] == g
            n = trie.parent[n]
        assert trie.symbols[n] == -1 and trie.parent[n] == n
    np.testing.assert_allclose(np.concatenate(got), np.concatenate(want), rtol=0, atol=atol)
    assert len(trie.parent) == 1 + len({c[k:] for c in chains for k in range(len(c))})


def _table_lsv():
    """lsv(1) on the circle, its left branch x(1 + 2x) a PCHIP table."""
    xs = np.linspace(0.0, 0.5, 33)
    return eq.from_json({
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [{"lo": 0.0, "hi": 0.5, "kind": "table",
                      "params": {"x": list(xs), "y": list(xs * (1 + 2 * xs))}},
                     {"lo": 0.5, "hi": 1.0, "kind": "affine", "params": {"a": 2, "b": -1}}]})


@pytest.mark.parametrize("m,base,H,tol,branches", [
    (eq.quadratic(-2.0), (1.0, 2.0), 28, 1e-9, 2 ** 14 - 1),
    (eq.quadratic(-2.0), (1.0, 2.0), 28, 1e-6, 2 ** 14 - 1),
    (eq.lsv(0.6), (0.5, 1.0), 1000, 1e-9, 1000),
    (_table_lsv(), (0.5, 1.0), 1000, 1e-9, 1000),
    (eq.iterate(eq.lsv(0.6), 2), (0.5, 1.0), 12, 1e-9, 2 ** 13 - 2),
    (eq.iterate(eq.quadratic(-2.0), 3), (1.0, 2.0), 6, 1e-9, 14103),
], ids=["quadratic-h28", "quadratic-h28-tol1e-6", "lsv06-h1000", "table-h1000",
        "lsv06^2-h12", "quadratic^3-h6"])
def test_deep_schemes_pass_the_edge_certificate(m, base, H, tol, branches):
    # the forward endpoint walk multiplied the pullback's rounding by
    # |(f^R)'|: these failed from quadratic horizon 24 (R = 23) and at lsv
    # horizon 1000 (R = 594).  A composite's inner steps carry their own
    # rounding (Branch.slack): without it quadratic^3 missed by 6 ulps
    s = eq.first_return_scheme(m, base, H, tol)
    assert len(s) == branches and s.orbit_table.uncertified is None


def test_scheme_files_hold_no_marker(tmp_path, lsv15, capsys):
    # a file holds the header and the trie, nothing per branch; the older
    # layout (a row per branch, with or without nodes or a marker) is
    # malformed: scheme build rewrites it
    s = eq.first_return_scheme(lsv15, (0.5, 1.0), 10)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    doc = json.loads(p.read_text())
    assert list(doc) == ["map", "base", "tol", "complete_up_to", "exhausted",
                         "at", "parent", "symbols", "leaf", "values"]
    head = {k: doc[k] for k in list(doc)[:5]}
    lo, hi = (v.tolist() for v in s.trie.ends())
    rows = [{"lo": lo[i], "hi": hi[i], "R": R, "chain": list(s.chain(i))}
            for i, R in enumerate(s.return_times().tolist())]
    for extra in ({}, {"nodes": doc["values"]}):
        for marker in (False, True):
            old = {**head, "branches": [{**r, "marker": r["lo"]} if marker else r
                                        for r in rows], **extra}
            p.write_text(json.dumps(old))
            with pytest.raises(KeyError, match="at"):
                eq.load_scheme(str(p))
            code = dispatch(["thermo", "pressure", "--scheme", str(p)])
            out, err = capsys.readouterr()
            assert code == 2 and out == "" and "malformed scheme file" in err


# ---------------------------------------------------------------------------
# scheme branches on first read, chain(i) and equality


@pytest.mark.parametrize("n_max", [0, -3, 2.5, 3.0, True, None])
def test_horizon_must_be_an_integer_of_at_least_one(lsv15, n_max):
    # --nmax -3 wrote complete_up_to: -3, a file that load_scheme rejects
    with pytest.raises(OutOfRange, match="n_max must be an integer >= 1"):
        eq.first_return_scheme(lsv15, (0.5, 1.0), n_max)
    assert len(eq.first_return_scheme(lsv15, (0.5, 1.0), np.int64(1))) == 1


def test_load_rejects_a_negative_tol(tmp_path, lsv15_scheme):
    # the build refuses tol < 0, so no file holds one
    p = tmp_path / "s.json"
    eq.save_scheme(lsv15_scheme, str(p))
    doc = json.loads(p.read_text())
    for tol, ok in ((0.0, True), (-1e-9, False), (-0.0, True)):
        p.write_text(json.dumps({**doc, "tol": tol}))
        if ok:
            assert eq.load_scheme(str(p)).tol == tol
        else:
            with pytest.raises(ValueError, match="tol finite and >= 0"):
                eq.load_scheme(str(p))


def test_an_empty_scheme_file_needs_complete_up_to_of_at_least_one(tmp_path):
    # the build refuses n_max < 1, and a file with no leaves loaded 0
    p = tmp_path / "s.json"
    eq.save_scheme(eq.first_return_scheme(eq.doubling(), (0.5, 0.75), 1), str(p))
    doc = json.loads(p.read_text())
    for value in (0, -3):
        p.write_text(json.dumps({**doc, "complete_up_to": value}))
        with pytest.raises(ValueError, match=f"complete_up_to={value} is not an integer >= 1"):
            eq.load_scheme(str(p))


def test_a_build_too_long_to_lay_out_is_out_of_range():
    # lsv(0.6) stores about H^2 / 2 chain symbols by horizon H; before the
    # bound, this build grew until the process was killed
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match=r"horizon 10{20} is too long to build: .* "
                                             r"symbols by return time 2896"):
            eq.first_return_scheme(eq.lsv(0.6), (0.5, 1.0), 10 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_build_and_load_make_no_scheme_branches(monkeypatch, tmp_path, lsv15):
    calls = []
    make = eq.inducing._branches
    monkeypatch.setattr(eq.inducing, "_branches", lambda T: calls.append(len(T.leaf)) or make(T))
    s = eq.first_return_scheme(lsv15, (0.5, 1.0), 200)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    s2 = eq.load_scheme(str(p))
    eq.refine(s2, 2).interval((3, 5))
    assert calls == [] and "branches" not in vars(s) and "branches" not in vars(s2)
    assert len(s2.branches) == 200 and s2.branches is s2.branches
    assert calls == [200]


def _eager_branches(s):
    """(index, lo, hi, R, chain) of every branch, each chain its leaf's
    symbols up to the root."""
    T = s.trie
    path = {n: () for n in range(T.at[1])}
    for n in range(T.at[1], len(T.parent)):
        path[n] = (int(T.symbols[n]),) + path[int(T.parent[n])]
    lo, hi = T.ends()
    return [(i, float(lo[i]), float(hi[i]), len(path[n]), path[n])
            for i, n in enumerate(T.leaf.tolist())]


_LAZY = {"lsv15-h200": (lambda: eq.lsv(1.5), (0.5, 1.0), 200),
         "quadratic-h16": (lambda: eq.quadratic(-2.0), (1.0, 2.0), 16)}


@pytest.mark.parametrize("name", sorted(_LAZY))
def test_first_read_of_branches_is_the_eager_tuple(name):
    make, base, H = _LAZY[name]
    s = eq.first_return_scheme(make(), base, H)
    want = _eager_branches(s)
    got = [(b.index, b.lo, b.hi, b.return_time, b.chain) for b in s.branches]
    assert got == want and all(type(b) is eq.SchemeBranch for b in s.branches)
    assert [s.chain(i) for i in range(len(s))] == [w[4] for w in want]
    assert s.return_times().tolist() == [w[3] for w in want]


def test_scheme_equality_reads_the_header_and_the_trie(tmp_path, lsv15):
    s = eq.first_return_scheme(lsv15, (0.5, 1.0), 40)
    p = tmp_path / "s.json"
    eq.save_scheme(s, str(p))
    assert eq.load_scheme(str(p)) == s and dataclasses.replace(s) == s
    assert eq.first_return_scheme(lsv15, (0.5, 1.0), 40) == s
    values = s.trie.values.copy()
    values.view(np.int64)[7, 2] ^= 1  # one bit of one pulled-back value
    flipped = dataclasses.replace(s, trie=dataclasses.replace(s.trie, values=values))
    leaf = s.trie.leaf[::-1].copy()
    reordered = dataclasses.replace(s, trie=dataclasses.replace(s.trie, leaf=leaf))
    assert flipped != s and reordered != s and s != "s"
    # same header but a deeper horizon: the trie tells them apart
    deeper = eq.first_return_scheme(lsv15, (0.5, 1.0), 41)
    assert dataclasses.replace(deeper, complete_up_to=40) != s
    assert deeper != s and dataclasses.replace(s, tol=1e-8) != s
