import base64
import json
import math
from collections import Counter

import numpy as np
import pytest

import eqstate as eq
from eqstate.cli import dispatch
from eqstate.errors import NotMarkovCompatible, OutOfRange, UnknownGenerator
from eqstate.maps import _pull_trie
from scalar_reference import scalar_pull


def test_doubling_scheme(doubling_scheme):
    assert len(doubling_scheme) == 2
    assert all(b.return_time == 1 for b in doubling_scheme.branches)
    assert doubling_scheme.exhausted


def test_tent_scheme(tent_scheme):
    assert len(tent_scheme) == 2
    assert all(b.return_time == 1 for b in tent_scheme.branches)


def test_lsv_one_branch_per_level(lsv06_scheme, lsv15_scheme):
    for s, nmax in ((lsv06_scheme, 20), (lsv15_scheme, 40)):
        ctr = Counter(b.return_time for b in s.branches)
        assert ctr == {n: 1 for n in range(1, nmax + 1)}
        assert not s.exhausted
        assert s.complete_up_to == nmax


def test_cylinders_disjoint_and_sorted(lsv06_scheme):
    bs = sorted(lsv06_scheme.branches, key=lambda b: b.lo)
    for a, b in zip(bs, bs[1:]):
        assert a.hi <= b.lo + lsv06_scheme.tol
        assert a.hi - a.lo > 0


def test_full_branch_certificate(lsv06_scheme, doubling_scheme):
    for s in (lsv06_scheme, doubling_scheme):
        m = s.map
        for b in s.branches:
            for e in (b.lo, b.hi):
                img = _scalar_forward(m, b.chain, e)
                assert not math.isnan(img)
                d = min(m.space.dist(img, s.base_lo), m.space.dist(img, s.base_hi))
                assert d <= s.tol


def test_first_return_property(lsv06_scheme):
    # intermediate images of each cylinder never enter the open base
    m = lsv06_scheme.map
    B_lo, B_hi = lsv06_scheme.base
    for b in lsv06_scheme.branches:
        y1, y2 = b.lo, b.hi
        for j, bi in enumerate(b.chain[:-1]):
            br = m.branches[bi]
            y1, y2 = sorted((float(br.f(max(br.lo, min(br.hi, y1)))),
                             float(br.f(max(br.lo, min(br.hi, y2))))))
            overlap = min(y2, B_hi) - max(y1, B_lo)
            assert overlap <= lsv06_scheme.tol


def test_kac_polynomial_decay(lsv06_scheme):
    # Lebesgue measure of {R=n} decays like n^(-1/alpha - 1) within factor 3
    ex = 1.0 / 0.6 + 1.0
    lens = {b.return_time: b.hi - b.lo for b in lsv06_scheme.branches}
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
    assert len(s) == 2
    assert all(b.return_time == 1 for b in s.branches)
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


def test_refine_doubling(doubling_scheme):
    r = eq.refine(doubling_scheme, 2)
    assert len(r.times) == 4
    assert set(r.times.tolist()) == {2}
    r1 = eq.refine(doubling_scheme, 1)
    assert len(r1.times) == len(doubling_scheme)
    assert sorted(r1.times.tolist()) == sorted(b.return_time for b in doubling_scheme.branches)


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
        table = sorted(Counter(b.return_time for b in s.branches).items())
        cap = ell * max(n for n, _ in table)
        conv = _convolve_counts(table, ell, cap)
        wc = eq.refine(s, ell).word_counts()
        for n in range(cap + 1):
            assert wc.get(n, 0) == int(round(conv[n]))


def test_refine_interval(doubling_scheme):
    r = eq.refine(doubling_scheme, 2)
    lo, hi = r.interval((0, 1))
    # x in (0,1/2) with f(x) in (1/2,1): the (0,1)-cylinder of the full 2-shift
    assert (lo, hi) == (pytest.approx(0.25, abs=1e-12), pytest.approx(0.5, abs=1e-12))


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
    assert len(s2) == len(lsv06_scheme)
    assert s2.base == lsv06_scheme.base
    for a, b in zip(s2.branches, lsv06_scheme.branches):
        assert a.lo == b.lo and a.hi == b.hi
        assert a.return_time == b.return_time and a.chain == b.chain
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
    # branches read off the stored trie are the built ones, chains and cylinders
    for s in (doubling_scheme, tent_scheme, lsv06_scheme, lsv15_scheme,
              eq.first_return_scheme(lsv06_scheme.map, (0.5, 1.0), 0),
              eq.first_return_scheme(eq.quadratic(-2.0), (1.0, 2.0), 12)):
        p = tmp_path / "s.json"
        eq.save_scheme(s, str(p))
        assert eq.load_scheme(str(p)).branches == s.branches


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


@pytest.mark.parametrize("name", sorted(_SCHEMES))
def test_pullback_matches_scalar_loops(name):
    make, base, H = _SCHEMES[name]
    m = make()
    s = eq.first_return_scheme(m, base, H)
    chains = [b.chain for b in s.branches]
    trie = _pull_trie(m, chains, *base)
    lo, hi = trie.ends()
    assert [(b.lo, b.hi) for b in s.branches] == list(zip(lo.tolist(), hi.tolist()))
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
    # rounding (Branch.slack_many): without it quadratic^3 missed by 6 ulps
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
    rows = [{"lo": b.lo, "hi": b.hi, "R": b.return_time, "chain": list(b.chain)}
            for b in s.branches]
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
