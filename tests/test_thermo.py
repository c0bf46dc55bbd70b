import dataclasses
import math

import mpmath
import numpy as np
import pytest

import eqstate as eq
from eqstate import maps
from eqstate.errors import (
    DivergentEntropy,
    InfiniteMeanReturn,
    NoRoot,
    OrbitHitsCritical,
    OutOfRange,
    ToleranceFailure,
)
from eqstate.thermo import (
    _entropy_arr,
    _level_rows,
    _remainders,
    _series_rows,
    _solve_rows,
)
from scalar_reference import scalar_induced, scalar_orbit

LOG2 = math.log(2.0)


def test_entropy_term_examples():
    assert eq.entropy_term(0.0) == 0.0
    assert eq.entropy_term(1.0) == 0.0
    assert eq.entropy_term(1 / math.e) == pytest.approx(1 / math.e, abs=1e-15)
    assert eq.entropy_term(0.5) == pytest.approx(LOG2 / 2, abs=1e-15)
    with pytest.raises(OutOfRange):
        eq.entropy_term(-0.1)
    with pytest.raises(OutOfRange):
        eq.entropy_term(1.5)
    with pytest.raises(OutOfRange):  # it returned nan
        eq.entropy_term(math.nan)


_H_CALLS = {
    "mme": lambda counts, h, s: eq.mme(counts, h),
    "mme_per_branch": lambda counts, h, s: eq.mme(counts, h, scheme=s),
    "delta_F": lambda counts, h, s: eq.delta_F(counts, h),
    "oscillation_budget": lambda counts, h, s: eq.oscillation_budget(counts, h),
    "tail_analysis": lambda counts, h, s: eq.tail_analysis(counts, h),
}


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind, call", [(kind, call) for kind in ("gouezel", "constant_one", "lsv15_h40")
                                        for call in sorted(_H_CALLS)
                                        if kind == "lsv15_h40" or call != "mme_per_branch"])
def test_mme_type_calls_need_a_finite_h(kind, call, h, lsv15_scheme):
    # inf ended in a math domain error on the closed forms, made a zero-mass
    # measure on the table and a certified tail of epsilon inf; nan raised
    # DivergentEntropy or returned a nan pressure (per-branch weights take
    # the lsv scheme of the table)
    counts = (eq.level_counts(lsv15_scheme) if kind == "lsv15_h40"
              else eq.analytic_counts(kind, **({"q": 2} if kind == "gouezel" else {})))
    with pytest.raises(OutOfRange, match="h must be finite"):
        _H_CALLS[call](counts, h, lsv15_scheme)


def _entropy_by_mask(w):
    """-w log w on (0, 1) by a mask, a gather and a scatter, 0 elsewhere."""
    out = np.zeros_like(w)
    pos = (w > 0) & (w < 1)
    out[pos] = -w[pos] * np.log(w[pos])
    return out


def test_entropy_arr_has_the_bits_of_the_mask_form():
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0,
                        -0.5, math.nan, math.inf, -math.inf, 5e-324, 1e-310, tiny,
                        np.nextafter(tiny, 0.0), 1 / math.e, 0.5])
    rng = np.random.default_rng(30)
    for w in (special, np.concatenate([special, rng.random(10_000),
                                       np.exp(-rng.uniform(0.0, 745.0, 10_000))]),
              rng.permutation(np.concatenate([special] * 50 + [rng.random(4_000)])),
              np.zeros(0), special.reshape(4, 4)):
        got = _entropy_arr(w)
        assert got.shape == w.shape and got.tobytes() == _entropy_by_mask(w).tobytes()


def test_pressure_closed_forms():
    assert eq.pressure_root(eq.analytic_counts("two_at_one"), 1e-12).h == pytest.approx(LOG2, abs=1e-12)
    assert eq.pressure_root(eq.analytic_counts("constant_one"), 1e-12).h == pytest.approx(LOG2, abs=1e-12)
    for q in (1, 2, 3):
        rep = eq.pressure_root(eq.analytic_counts("gouezel", q=q), 1e-12)
        assert rep.h == pytest.approx(math.log(4 * (4 ** q + 1)), abs=1e-12)


def test_pressure_report_fields():
    rep = eq.pressure_root(eq.analytic_counts("two_at_one"), 1e-12)
    assert rep.mean_return == pytest.approx(1.0, abs=1e-12)
    assert rep.delta_f == 0.0 and rep.delta_f_boundary
    rep1 = eq.pressure_root(eq.analytic_counts("constant_one"), 1e-12)
    assert rep1.mean_return == pytest.approx(2.0, abs=1e-10)
    assert rep1.delta_f == pytest.approx(LOG2, abs=1e-10)
    # constant counts attain the upper end delta(F) = h: flagged boundary
    assert rep1.delta_f_boundary
    repg = eq.pressure_root(eq.analytic_counts("gouezel", q=1), 1e-12)
    assert 0 < repg.delta_f < repg.h
    assert not repg.delta_f_boundary
    # bracket straddles 1 on success
    lo, hi = rep1.bracket
    assert _series(eq.analytic_counts("constant_one"), lo) > 1.0 > _series(eq.analytic_counts("constant_one"), hi)


def test_pressure_no_root_horizon():
    bad = eq.analytic_counts("user_table", table={1: 1}, complete=False)
    with pytest.raises(NoRoot):
        eq.pressure_root(bad, 1e-12)


def _series(counts, s):
    """sum_n count(n) e^{-s n}, through the solver's own series.

    Closed forms: the first 64 levels plus their certified remainder, which
    is exact for counts that equal their certificate.
    """
    if counts.support == "infinite":
        n = np.arange(1, 65)
        head = _series_rows(n, counts.log_counts(n)[None], np.array([s]))[0]
        x = math.exp(counts.rate - s)
        return float(head + _remainders(math.log(counts.prefactor), x, 64)[0])
    n, c = counts.occupied
    return float(_series_rows(n, np.log(c)[None], np.array([s]))[0])



@pytest.mark.parametrize("n", [2.5, True, np.float64(2.0), 0, 10 ** 9])
def test_level_weight_takes_only_stored_integer_levels(n):
    # 2.5 raised numpy's IndexError, and True read level 1
    dist = eq.mme(eq.analytic_counts("constant_one"), 0.7)
    with pytest.raises(OutOfRange, match="stored levels"):
        dist.level_weight(n)
    assert dist.level_weight(np.int64(2)) == dist.level_weight(2) == float(dist.level_weights[1])

def test_series_monotone():
    for counts in (eq.analytic_counts("constant_one"),
                   eq.analytic_counts("gouezel", q=1),
                   eq.analytic_counts("two_at_one")):
        lo = counts.rate + 0.05
        vals = [_series(counts, lo + 0.2 * k) for k in range(8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mme_examples():
    two = eq.analytic_counts("two_at_one")
    dist = eq.mme(two, LOG2)
    assert dist.level_weight(1) == pytest.approx(0.5, abs=1e-12)
    one = eq.analytic_counts("constant_one")
    d1 = eq.mme(one, LOG2)
    for n in (1, 3, 7):
        assert d1.level_weight(n) == pytest.approx(2.0 ** (-n), abs=1e-15)
    g = eq.analytic_counts("gouezel", q=1)
    h = math.log(20.0)
    dg = eq.mme(g, h)
    for n in (1, 2, 5):
        assert dg.level_weight(n) == pytest.approx(20.0 ** (-n), rel=1e-12)
        level_mass = g.count(n) * dg.level_weight(n)
        assert level_mass == pytest.approx(4.0 ** (1 + n) * 20.0 ** (-n), rel=1e-12)
    assert dg.residual < 1e-12


def test_table_mme_has_no_levels_beyond_the_table():
    # the level form of a table, finite or truncated: the sums stop at its
    # last level, also after fat_perturbation makes the weight decay finite
    for complete in (True, False):
        counts = eq.analytic_counts("user_table", table={1: 1, 2: 3, 5: 4, 7: 30},
                                    complete=complete)
        h = eq.pressure_root(counts, 1e-12).h
        dist = eq.mme(counts, h)
        n = np.arange(1, 8)
        np.testing.assert_array_equal(dist.level_weights, np.exp(-h * n))
        mass = np.array([counts.count(k) for k in n]) * dist.level_weights
        assert eq.total_mass(dist) == pytest.approx(1.0, abs=1e-12)
        assert eq.mean_return(dist) == pytest.approx(float(np.dot(n, mass)), rel=1e-14)
        fat = eq.fat_perturbation(dist, counts, 0.5)
        assert math.isfinite(fat.weight_decay)
        assert eq.total_mass(fat) == pytest.approx(1.0, abs=1e-12)
    # a level array past 2^20 levels is refused before it is made
    far = eq.analytic_counts("user_table", table={2 ** 21: 1})
    with pytest.raises(OutOfRange):
        eq.mme(far, eq.pressure_root(far, 1e-12).h)


def test_bernoulli_entropy_examples(doubling_scheme):
    counts = eq.level_counts(doubling_scheme)
    uniform = eq.MassDistribution(counts=counts,
                                  branch_weights=np.array([0.5, 0.5]),
                                  branch_times=np.array([1.0, 1.0]))
    assert eq.bernoulli_entropy(uniform) == pytest.approx(LOG2, abs=1e-15)
    point = eq.MassDistribution(counts=counts,
                                branch_weights=np.array([1.0, 0.0]),
                                branch_times=np.array([1.0, 1.0]))
    assert eq.bernoulli_entropy(point) == 0.0
    one = eq.analytic_counts("constant_one")
    d1 = eq.mme(one, LOG2)
    assert eq.bernoulli_entropy(d1) == pytest.approx(2 * LOG2, abs=1e-12)


def test_divergent_entropy_and_infinite_mean():
    # weights 1/2 on every level: they decay at rate 0, no faster than
    # constant_one's counts grow, so every level sum diverges
    one = eq.analytic_counts("constant_one")
    flat = eq.MassDistribution(counts=one, level_weights=np.full(8, 0.5), weight_decay=0.0)
    with pytest.raises(DivergentEntropy):
        eq.bernoulli_entropy(flat)
    with pytest.raises(InfiniteMeanReturn):
        eq.mean_return(flat)
    with pytest.raises(InfiniteMeanReturn):
        eq.normalized_entropy(flat)


def test_closed_form_level_arrays():
    g = eq.analytic_counts("gouezel", q=2)
    h = eq.pressure_root(g, 1e-12).h
    dist = eq.mme(g, h)
    N = len(dist.level_weights)
    # the array reaches where the dyadic spread 2^-n of fat_perturbation is negligible
    assert 60 <= N <= 80 and dist.weight_decay == h
    np.testing.assert_array_equal(dist.level_weights, np.exp(-h * np.arange(1, N + 1)))
    assert dist.level_weight(N) == dist.level_weights[-1]
    for n in (0, N + 1):
        with pytest.raises(OutOfRange):
            dist.level_weight(n)
    fat = eq.fat_perturbation(dist, g, 0.5)
    assert fat.weight_decay == pytest.approx(math.log(8.0), abs=1e-15)
    assert eq.total_mass(fat) == pytest.approx(1.0, abs=1e-14)
    # weights that stop at a level where a tenth of the mass is still to come
    one = eq.analytic_counts("constant_one")
    with pytest.raises(OutOfRange, match="store more levels"):
        eq.MassDistribution(counts=one, level_weights=2.0 ** -np.arange(1, 5),
                            weight_decay=LOG2)
    for bad in ([0.5, -0.1], [0.5, math.nan]):
        with pytest.raises(OutOfRange):
            eq.MassDistribution(counts=one, level_weights=bad)
    # weights with no mass beyond the stored levels (the default decay)
    short = eq.MassDistribution(counts=one, level_weights=[0.5, 0.5])
    assert eq.total_mass(short) == 1.0 and eq.mean_return(short) == 1.5
    assert short.residual == 0.0


def test_normalized_entropy_and_delta():
    two = eq.analytic_counts("two_at_one")
    assert eq.normalized_entropy(eq.mme(two, LOG2)) == pytest.approx(LOG2, abs=1e-12)
    one = eq.analytic_counts("constant_one")
    assert eq.normalized_entropy(eq.mme(one, LOG2)) == pytest.approx(LOG2, abs=1e-12)
    g = eq.analytic_counts("gouezel", q=1)
    h = math.log(20.0)
    assert eq.normalized_entropy(eq.mme(g, h)) == pytest.approx(h, abs=1e-10)
    # delta examples
    assert eq.delta_F(two, LOG2) == 0.0
    assert eq.delta_F(one, LOG2) == pytest.approx(LOG2, abs=1e-12)
    dg = eq.delta_F(g, h)
    assert dg == pytest.approx(math.log(5) - 0.8 * math.log(4), abs=1e-10)
    assert 0 < dg < h


def test_root_identity_all_fixtures(doubling_scheme, lsv06_scheme):
    fixtures = [eq.analytic_counts("two_at_one"),
                eq.analytic_counts("constant_one"),
                eq.analytic_counts("gouezel", q=1),
                eq.analytic_counts("gouezel", q=2),
                eq.analytic_counts("user_table", table={1: 1, 2: 3, 5: 4}),
                eq.level_counts(doubling_scheme),
                eq.level_counts(lsv06_scheme)]
    for counts in fixtures:
        rep = eq.pressure_root(counts, 1e-12)
        dist = eq.mme(counts, rep.h)
        assert eq.normalized_entropy(dist) == pytest.approx(rep.h, abs=1e-11)


def test_induced_potential_constant(lsv06, lsv06_scheme):
    ip = eq.induced_potential(lsv06, lsv06_scheme, eq.constant_potential(0.7))
    R = lsv06_scheme.return_times()
    assert np.allclose(ip.values, 0.7 * R, atol=1e-12)


def test_induced_potential_doubling_geometric(doubling_map, doubling_scheme):
    ip = eq.induced_potential(doubling_map, doubling_scheme, eq.geometric_potential(1.0))
    assert np.allclose(ip.values, [-LOG2, -LOG2], atol=1e-14)
    assert np.allclose(ip.upper - ip.lower, 0.0, atol=1e-14)


def test_induced_potential_lsv_chain_rule(lsv06, lsv06_scheme):
    # phibar at each sample must equal -log|(f^R)'| computed by direct product,
    # and at the mean-value point it is log(|P|/|B|)
    ip = eq.induced_potential(lsv06, lsv06_scheme, eq.geometric_potential(1.0))
    lo, hi = lsv06_scheme.trie.ends()
    for i in range(8):
        sums = []
        for c in range(3):
            y = float(scalar_orbit(lsv06_scheme, i, c)[0])
            prod = 1.0
            for bi in lsv06_scheme.chain(i):
                br = lsv06.branches[bi]
                prod *= abs(float(br.df(y)))
                y = lsv06.space.wrap(float(br.f(y)))
            sums.append(-math.log(prod))
        assert ip.lower[i] == pytest.approx(min(sums), rel=1e-12)
        assert ip.upper[i] == pytest.approx(max(sums), rel=1e-12)
        assert ip.values[i] == pytest.approx(
            math.log((hi[i] - lo[i]) / lsv06_scheme.diam_base), rel=1e-12)


def test_gibbs_reduction_bitwise(doubling_scheme, lsv06_scheme):
    for s in (doubling_scheme, lsv06_scheme):
        counts = eq.level_counts(s)
        rep = eq.pressure_root(counts, 1e-12)
        dist = eq.mme(counts, rep.h, scheme=s)
        ip0 = eq.induced_potential(s.map, s, eq.constant_potential(0.0))
        g = eq.gibbs_equilibrium(s, ip0, 1e-12)
        assert g.pressure == rep.h
        assert np.array_equal(g.mass.branch_weights, dist.branch_weights)


@pytest.mark.parametrize("m,base,H", [(eq.lsv(1.5), (0.5, 1.0), 200), (eq.lsv(0.6), (0.5, 1.0), 300),
                                      (eq.quadratic(-2.0), (1.0, 2.0), 16)],
                         ids=["lsv15-h200", "lsv06-h300", "quadratic-h16"])
def test_gibbs_reduction_covers_the_truncation_error(m, base, H):
    # a truncated table has one tail rule: pressure_root took the growth
    # certificate's remainder and Gibbs the extrapolated tail, which differed
    # in the last digits (lsv(1.5) h200: 6.223015277861142e-61 against ...121e-61)
    s = eq.first_return_scheme(m, base, H)
    rep = eq.pressure_root(eq.level_counts(s), 1e-12)
    g = eq.gibbs_equilibrium(s, eq.induced_potential(m, s, eq.constant_potential(0.0)), 1e-12)
    assert rep.support == "truncated" and rep.truncation_error > 0.0
    assert g.pressure == rep.h and g.truncation_error == rep.truncation_error


def test_gibbs_two_symbol_closed_form(doubling_map, doubling_scheme):
    phi = eq.callable_potential(lambda x: 0.2 if x < 0.5 else -0.1)
    ip = eq.induced_potential(doubling_map, doubling_scheme, phi)
    g = eq.gibbs_equilibrium(doubling_scheme, ip, 1e-12)
    exact = math.log(math.exp(0.2) + math.exp(-0.1))
    assert g.pressure == pytest.approx(exact, abs=1e-12)
    w = g.mass.branch_weights
    assert w[0] / w[1] == pytest.approx(math.exp(0.3), rel=1e-12)


def test_gibbs_lsv_zero_potential_matches_constant_one(lsv06, lsv06_scheme):
    ip = eq.induced_potential(lsv06, lsv06_scheme, eq.geometric_potential(0.0))
    g = eq.gibbs_equilibrium(lsv06_scheme, ip, 1e-12)
    assert g.pressure == pytest.approx(LOG2, abs=1e-6)


def test_gibbs_optimality_against_random_mass(doubling_map, doubling_scheme, lsv06_scheme):
    rng = np.random.Generator(np.random.Philox(5))
    for s, phi in ((doubling_scheme, eq.callable_potential(lambda x: 0.2 if x < 0.5 else -0.1)),
                   (lsv06_scheme, eq.geometric_potential(0.4))):
        ip = eq.induced_potential(s.map, s, phi)
        g = eq.gibbs_equilibrium(s, ip, 1e-12)
        n = 12
        R = s.return_times()
        keep = R <= n
        w = g.mass.branch_weights[keep]
        w = w / w.sum()
        phv = ip.values[keep]
        Rv = R[keep].astype(float)
        from eqstate.thermo import _entropy_arr
        best = float(np.sum(_entropy_arr(w)) + np.dot(w, phv) - g.pressure * np.dot(w, Rv))
        for _ in range(1000):
            q = rng.random(len(w)) + 1e-9
            q /= q.sum()
            val = float(np.sum(_entropy_arr(q)) + np.dot(q, phv) - g.pressure * np.dot(q, Rv))
            assert val <= best + 1e-9


def test_truncated_gurevich(doubling_scheme, lsv06_scheme, lsv06, doubling_map):
    ip0 = eq.induced_potential(doubling_map, doubling_scheme, eq.constant_potential(0.0))
    assert eq.truncated_gurevich(doubling_scheme, ip0, 0) == -math.inf
    assert eq.truncated_gurevich(doubling_scheme, ip0, 1) == pytest.approx(LOG2, abs=1e-12)
    ipl = eq.induced_potential(lsv06, lsv06_scheme, eq.constant_potential(0.0))
    vals = [eq.truncated_gurevich(lsv06_scheme, ipl, n) for n in range(1, 21)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    g = eq.gibbs_equilibrium(lsv06_scheme, ipl, 1e-12)
    assert all(v <= g.pressure + 1e-9 for v in vals)
    assert vals[-1] == pytest.approx(g.pressure, abs=1e-6)


def test_project_integral_examples(doubling_map, doubling_scheme):
    counts = eq.level_counts(doubling_scheme)
    rep = eq.pressure_root(counts, 1e-12)
    dist = eq.mme(counts, rep.h, scheme=doubling_scheme)
    ipc = eq.induced_potential(doubling_map, doubling_scheme, eq.constant_potential(0.33))
    assert eq.project_integral(dist, ipc) == pytest.approx(0.33, abs=1e-12)
    ipg = eq.induced_potential(doubling_map, doubling_scheme, eq.geometric_potential(1.0))
    assert eq.project_integral(dist, ipg) == pytest.approx(-LOG2, abs=1e-12)


def test_project_entropy_examples():
    two = eq.analytic_counts("two_at_one")
    assert eq.normalized_entropy(eq.mme(two, LOG2)) == pytest.approx(LOG2, abs=1e-12)
    one = eq.analytic_counts("constant_one")
    assert eq.normalized_entropy(eq.mme(one, LOG2)) == pytest.approx(LOG2, abs=1e-11)
    point = eq.MassDistribution(counts=one, branch_weights=np.array([1.0]),
                                branch_times=np.array([1.0]))
    assert eq.normalized_entropy(point) == 0.0


def test_sampling_uniform_two_branches(doubling_scheme):
    counts = eq.level_counts(doubling_scheme)
    dist = eq.mme(counts, LOG2, scheme=doubling_scheme)
    emp = eq.sample_original_measure(doubling_scheme, dist, 40_000, seed=3)
    assert emp.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # each branch's orbit is its pullback of the base midpoint (R = 1 here)
    markers = {float(scalar_orbit(doubling_scheme, i)[0]) for i in range(len(doubling_scheme))}
    assert set(np.unique(emp.points)) == markers
    frac = emp.draw_counts[0] / emp.draw_counts.sum()
    assert abs(frac - 0.5) < 0.01


def test_sampling_point_mass(lsv06_scheme):
    counts = eq.level_counts(lsv06_scheme)
    w = np.zeros(len(lsv06_scheme))
    i = 4  # R = 5 branch
    w[i] = 1.0
    dist = eq.MassDistribution(counts=counts, branch_weights=w,
                               branch_times=lsv06_scheme.return_times().astype(float))
    emp = eq.sample_original_measure(lsv06_scheme, dist, 100, seed=1)
    R = lsv06_scheme.return_times()[i]
    # the branch's mean-value point lies between two samples: both orbits,
    # once each, each point weighted by the 100 draws times its sample's share
    lam = 1.0 - float(lsv06_scheme.orbit_table.weights[i, 1])
    assert 0.0 < lam < 1.0
    assert len(emp.points) == len(np.unique(emp.points)) == 2 * R
    shares, counts = np.unique(emp.weights, return_counts=True)
    np.testing.assert_allclose(shares * R, sorted([lam, 1.0 - lam]), rtol=1e-15)
    assert counts.tolist() == [R, R]


def test_sampling_position_mass_geometric(lsv06_scheme):
    counts = eq.level_counts(lsv06_scheme)
    rep = eq.pressure_root(counts, 1e-12)
    dist = eq.mme(counts, rep.h, scheme=lsv06_scheme)
    emp = eq.sample_original_measure(lsv06_scheme, dist, 100_000, seed=12)
    R = lsv06_scheme.return_times()
    mass = np.zeros(8)
    for i, r in enumerate(R):
        for j in range(min(int(r), 8)):
            mass[j] += emp.draw_counts[i]
    mass /= emp.draw_counts.sum()
    # mass at position j is nu({R > j}) ~ 2^{-j} (up to horizon truncation)
    for j in range(6):
        assert mass[j] == pytest.approx(2.0 ** (-j), rel=0.05)


def test_sampling_deterministic(doubling_scheme):
    counts = eq.level_counts(doubling_scheme)
    dist = eq.mme(counts, LOG2, scheme=doubling_scheme)
    a = eq.sample_original_measure(doubling_scheme, dist, 1000, seed=9)
    b = eq.sample_original_measure(doubling_scheme, dist, 1000, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.draw_counts, b.draw_counts)


def test_tail_certificates():
    one = eq.analytic_counts("constant_one")
    h1 = eq.pressure_root(one, 1e-12).h
    tr = eq.tail_analysis(one, h1)
    assert tr.certificate and tr.rate == 0.0
    for q in (1, 2):
        g = eq.analytic_counts("gouezel", q=q)
        hq = eq.pressure_root(g, 1e-12).h
        tg = eq.tail_analysis(g, hq)
        assert tg.certificate and tg.rate == pytest.approx(math.log(4), abs=0)
    denied = eq.analytic_counts("user_table", table={1: 2}, complete=False)
    td = eq.tail_analysis(denied, LOG2)
    assert not td.certificate
    finite = eq.analytic_counts("two_at_one")
    tf = eq.tail_analysis(finite, LOG2)
    assert tf.certificate and tf.finite_support
    assert tf.bound(1) == 0.0


def test_truncated_table_grants_no_tail_certificate():
    # quadratic(-2) over (1, 2) has #{R=k} = 2^((k-1)/2) at odd k; the rate
    # fitted to the levels below horizon 16 sits below h, and a bound from
    # it falls short of the true tail (3.6e-8 < 6.4e-8 at n = 60)
    s = eq.first_return_scheme(eq.quadratic(-2.0), (1.0, 2.0), 16)
    counts = eq.level_counts(s)
    assert counts.support == "truncated"
    h = eq.pressure_root(counts, 1e-12).h
    assert counts.rate < h
    tr = eq.tail_analysis(counts, h)
    assert not tr.certificate
    for n in (60, 100, 200):
        true = sum(k * math.exp((k - 1) / 2 * LOG2 - h * k) for k in range(n + 1, n + 4000, 2))
        assert true <= tr.bound(n), n


def _true_tail(counts, h, n, cap=600):
    return sum(k * math.exp(counts.log_count(k) - h * k) for k in range(n + 1, cap))


def test_tail_bound_dominates():
    for counts in (eq.analytic_counts("constant_one"),
                   eq.analytic_counts("gouezel", q=1),
                   eq.analytic_counts("gouezel", q=2)):
        h = eq.pressure_root(counts, 1e-12).h
        tr = eq.tail_analysis(counts, h)
        for n in (5, 10, 20):
            assert _true_tail(counts, h, n) <= tr.bound(n)


@pytest.mark.parametrize("q", [None, 1, 5], ids=["constant_one", "gouezel1", "gouezel5"])
def test_tail_bound_is_the_exact_remainder(q):
    # within the pad of the 50-digit tail sum, and a positive double where
    # the tail underflows (gouezel q = 5 at n >= 200)
    counts = eq.analytic_counts("constant_one") if q is None else eq.analytic_counts("gouezel", q=q)
    h = eq.pressure_root(counts, 1e-12).h
    tr = eq.tail_analysis(counts, h)
    with mpmath.workdps(50):
        H = mpmath.mpf(h)
        log_count = (lambda k: 0) if q is None else (lambda k: (q + k) * mpmath.log(4))
        for n in (0, 1, 2, 5, 10, 30, 200, 300):
            # the terms decay at least like 2^-k: 400 of them leave 2^-400 out
            true = mpmath.fsum(k * mpmath.exp(log_count(k) - H * k) for k in range(n + 1, n + 400))
            b = tr.bound(n)
            assert b >= true, n
            if true > 1e-300:
                assert b <= true * (1 + 2e-12), n
            else:
                assert b == 1e-300, n


def test_fat_perturbation_point_mass():
    two = eq.analytic_counts("two_at_one")
    pm = eq.MassDistribution(counts=two, branch_weights=np.array([1.0, 0.0]),
                             branch_times=np.array([1.0, 1.0]))
    out = eq.fat_perturbation(pm, two, 0.5)
    assert np.allclose(out.branch_weights, [0.75, 0.25], atol=1e-15)


def test_fat_perturbation_of_branches_is_the_per_branch_formula(lsv06_scheme):
    # one count per distinct return time gives every branch the bits of
    # 2^-R / (W count(R)), W = sum of 2^-n over the occupied levels; the
    # quadratic table has several branches a level and empty levels
    quad = eq.first_return_scheme(eq.quadratic(-2.0), (1.0, 2.0), 12)
    for s in (lsv06_scheme, quad):
        counts = eq.level_counts(s)
        dist = eq.mme(counts, eq.pressure_root(counts, 1e-12).h, scheme=s)
        W = sum(2.0 ** -n for n, c in counts.table if c > 0)
        m0 = np.array([2.0 ** -R / (W * counts.count(int(R))) for R in dist.branch_times])
        for gamma in (0.1, 0.5):
            want = (1.0 - gamma) * dist.branch_weights + gamma * m0
            got = eq.fat_perturbation(dist, counts, gamma).branch_weights
            assert got.tobytes() == want.tobytes()


def _level_sums(m):
    """(total mass, mean return, entropy) of m, an error's name in place of a sum."""
    out = []
    for f in (eq.total_mass, eq.mean_return, eq.bernoulli_entropy):
        try:
            out.append(f(m))
        except eq.EqstateError as e:
            out.append(type(e).__name__)
    return tuple(out)


def _spread_mix(m, counts, gamma):
    """(1 - gamma) m + gamma 2^-n / (W count(n)), each level made from the counts."""
    occupied = counts.occupied
    W = 1.0 if occupied is None else sum(2.0 ** -n for n in occupied[0].tolist())
    n = np.arange(1, len(m.level_weights) + 1)
    logc = counts.log_counts(n)
    m0 = np.exp(-math.log(2.0) * n - math.log(W) - logc)
    m0[logc == -np.inf] = 0.0
    return eq.MassDistribution(counts=counts,
                               level_weights=(1.0 - gamma) * m.level_weights + gamma * m0,
                               weight_decay=min(m.weight_decay, LOG2 + counts.rate))


@pytest.mark.parametrize("counts", [
    eq.analytic_counts("constant_one"), eq.analytic_counts("two_at_one"),
    *(eq.analytic_counts("gouezel", q=q) for q in (1, 5, 10)),
    eq.analytic_counts("user_table", table={1: 1, 3: 2, 4: 5}),  # level 2 is empty
], ids=lambda c: f"{c.kind}{c.params.get('q', '')}")
def test_fat_sweep_of_level_weights_is_the_spread_formula_bit_for_bit(counts):
    # the sweep reuses the base measure's level arrays when handed its counts
    # and makes them for equal counts in another object: the weights, the
    # residual, the decay and the three sums are those of a measure made
    # afresh from the spread formula, and of one made from the same weights
    dist = eq.mme(counts, eq.pressure_root(counts, 1e-12).h)
    twin = dataclasses.replace(counts)
    assert twin == counts and twin is not counts
    for gamma in np.linspace(0.05, 0.95, 16).tolist():
        want = _spread_mix(dist, counts, gamma)
        for c in (counts, twin):
            got = eq.fat_perturbation(dist, c, gamma)
            fresh = eq.MassDistribution(counts=c, level_weights=got.level_weights.copy(),
                                        weight_decay=got.weight_decay)
            for other in (want, fresh):
                assert got.level_weights.tobytes() == other.level_weights.tobytes()
                assert (got.residual, got.weight_decay) == (other.residual, other.weight_decay)
                assert _level_sums(got) == _level_sums(other)


@pytest.mark.parametrize("bad", [[0.5, math.nan], [math.nan], [0.5, math.inf], [-math.inf],
                                 [0.5, -0.1], [-5e-324, 0.5]])
def test_level_weights_that_are_not_finite_and_non_negative_are_out_of_range(bad):
    for counts in (eq.analytic_counts("constant_one"), eq.analytic_counts("two_at_one")):
        with pytest.raises(OutOfRange, match="finite and non-negative"):
            eq.MassDistribution(counts=counts, level_weights=bad)


def test_empty_and_zero_level_weights_hold_no_mass():
    # no level, or zero weight at every level: no mass, and no remainder beyond
    for counts in (eq.analytic_counts("gouezel", q=2), eq.analytic_counts("constant_one"),
                   eq.analytic_counts("two_at_one")):
        for w in ([], [0.0, 0.0, 0.0], [-0.0]):
            for decay in (math.inf, 1.0):
                m = eq.MassDistribution(counts=counts, level_weights=w, weight_decay=decay)
                assert m.level_weights.dtype == float and len(m.level_weights) == len(w)
                assert _level_sums(m) == (0.0, 0.0, 0.0) and m.residual == 1.0


def test_remainders_of_an_array_are_its_elements_alone():
    # the one geometric remainder: each element has the bits it has alone,
    # 0 at x = 0, inf where x >= 1 or x is nan, and no numpy warning
    x = np.array([0.5, 0.9, 0.0, 1.0, 1.5, np.nan])
    for log_a in (0.0, 1.5, -3.0):
        t0, t1 = _remainders(log_a, x, 7)
        for k in range(len(x)):
            assert (t0[k], t1[k]) == _remainders(log_a, float(x[k]), 7)
        assert t0[2] == t1[2] == 0.0 and np.all(np.isinf(t0[3:])) and np.all(np.isinf(t1[3:]))
    t0, t1 = _remainders(0.0, x, 7)
    assert t0[0] == pytest.approx(0.5 ** 8 / 0.5, rel=1e-15)
    assert t1[0] == pytest.approx(sum(n * 0.5 ** n for n in range(8, 200)), rel=1e-15)
    assert _remainders(0.0, np.zeros((2, 3)), 4)[0].shape == (2, 3)


def test_fat_perturbation_gamma_to_zero(lsv06_scheme):
    counts = eq.level_counts(lsv06_scheme)
    rep = eq.pressure_root(counts, 1e-12)
    dist = eq.mme(counts, rep.h, scheme=lsv06_scheme)
    for gam in (1e-3, 1e-6):
        out = eq.fat_perturbation(dist, counts, gam)
        assert np.max(np.abs(out.branch_weights - dist.branch_weights)) < 2 * gam
    with pytest.raises(OutOfRange):
        eq.fat_perturbation(dist, counts, 0.0)


def test_fat_perturbation_bounds_random(lsv06_scheme):
    rng = np.random.Generator(np.random.Philox(21))
    counts = eq.level_counts(lsv06_scheme)
    times = lsv06_scheme.return_times().astype(float)
    for trial in range(20):
        w = rng.random(len(times)) ** 3
        w /= w.sum()
        dist = eq.MassDistribution(counts=counts, branch_weights=w, branch_times=times)
        gam = float(rng.uniform(0.05, 0.95))
        out = eq.fat_perturbation(dist, counts, gam)
        assert np.all(out.branch_weights > 0)
        assert eq.bernoulli_entropy(out) >= (1 - gam) * eq.bernoulli_entropy(dist) - 1e-12
        assert eq.mean_return(out) <= (1 - gam) * eq.mean_return(dist) + 2 * gam + 1e-12


# ---------------------------------------------------------------------------
# induced potential from the chain trie against scalar pullbacks


_STEP = eq.callable_potential(lambda x: 0.3 * math.sin(7.0 * x) - x)


@pytest.mark.parametrize("name", ["doubling", "tent", "quadratic", "lsv06", "lsv15"])
@pytest.mark.parametrize("phi", [eq.geometric_potential(0.7), eq.constant_potential(-0.4), _STEP],
                         ids=["geometric", "constant", "callable"])
def test_induced_potential_matches_scalar_walk(name, phi):
    m, base, H = {
        "doubling": (eq.doubling(), (0.0, 0.5), 12),
        "tent": (eq.tent(2.0), (0.0, 0.5), 8),
        "quadratic": (eq.quadratic(-2.0), (-2.0, 2.0), 4),
        "lsv06": (eq.lsv(0.6), (0.5, 1.0), 30),
        "lsv15": (eq.lsv(1.5), (0.5, 1.0), 60),
    }[name]
    s = eq.first_return_scheme(m, base, H)
    ip = eq.induced_potential(m, s, phi)
    want = scalar_induced(m, s, phi)
    for f in ("values", "lower", "upper"):
        np.testing.assert_allclose(getattr(ip, f), getattr(want, f), rtol=1e-12, atol=1e-12)


def test_induced_potential_orbit_hits_critical():
    # a doubling map that declares the critical point 5/8: the base midpoint
    # 1/4 pulls back onto it at step 1 of the R = 2 branch, after a branch
    # whose samples stay clear of it
    m = dataclasses.replace(eq.doubling(), critical=(0.625,))
    s = eq.first_return_scheme(m, (0.0, 0.5), 3)
    phi = eq.geometric_potential(1.0)
    with pytest.raises(OrbitHitsCritical) as want:
        scalar_induced(m, s, phi)
    with pytest.raises(OrbitHitsCritical) as got:
        eq.induced_potential(m, s, phi)
    assert str(got.value) == str(want.value)


def test_induced_potential_needs_the_scheme_map(lsv15):
    s = eq.first_return_scheme(lsv15, (0.5, 1.0), 10)
    phi = eq.geometric_potential(1.0)
    with pytest.raises(OutOfRange, match="scheme's map"):
        eq.induced_potential(eq.lsv(0.6), s, phi)
    # an equal map, built apart or read from a file, is the scheme's map
    want = eq.induced_potential(s.map, s, phi).values
    for m in (eq.lsv(1.5), eq.from_json(eq.to_json(lsv15))):
        np.testing.assert_array_equal(eq.induced_potential(m, s, phi).values, want)


def _circle_map(a, cuts, shifts):
    """x -> a x + shifts[k] on (cuts[k], cuts[k + 1]), on the circle [0, 1)."""
    return eq.from_json({
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [{"lo": lo, "hi": hi, "kind": "affine", "params": {"a": a, "b": b}}
                     for (lo, hi), b in zip(zip(cuts, cuts[1:]), shifts)]})


def _depth_diameters(s):
    """The largest trie node diameter at each depth 1, 2, ..., over diam B."""
    T = s.trie
    diam = np.abs(T.values[:, 4] - T.values[:, 0])
    return np.maximum.reduceat(diam, T.at[:-1])[1:] / s.diam_base


def _three_x_map(lift=False):
    """f(x) = 3x + 1/8 mod 1, as four affine branches whose images end at 0
    or 1, or as the lift 3x + 1/8 on every branch."""
    return _circle_map(3.0, [0.0, 7 / 24, 5 / 8, 23 / 24, 1.0],
                       [0.125 - (0 if lift else k) for k in range(4)])


@pytest.mark.parametrize("reduced,lifted,base,H", [
    (eq.doubling(), _circle_map(2.0, [0.0, 0.5, 1.0], [0.0, 0.0]), (0.0, 0.5), 12),
    (_three_x_map(), _three_x_map(lift=True), (5 / 8, 1.0), 8),
])
def test_lift_and_reduced_forms_agree(reduced, lifted, base, H):
    # the scheme search placed no lift: written as lifts, doubling gave one
    # branch marked exhausted (h = 0) and 3x + 1/8 an empty scheme
    s1 = eq.first_return_scheme(reduced, base, H)
    s2 = eq.first_return_scheme(lifted, base, H)
    assert [s1.chain(i) for i in range(len(s1))] == [s2.chain(i) for i in range(len(s2))]
    assert len(s1) >= H and not s1.exhausted and not s2.exhausted
    ends = [np.array(s.trie.ends()) for s in (s1, s2)]
    np.testing.assert_allclose(ends[1], ends[0], rtol=0, atol=1e-15)
    assert eq.pressure_root(eq.level_counts(s2)) == eq.pressure_root(eq.level_counts(s1))
    phi = eq.geometric_potential(0.7)
    ip1 = eq.induced_potential(reduced, s1, phi)
    ip2 = eq.induced_potential(lifted, s2, phi)
    for got, want in ((ip2.values, ip1.values), (ip2.lower, ip1.lower), (ip2.upper, ip1.upper),
                      (_depth_diameters(s2), _depth_diameters(s1))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    g1, g2 = eq.gibbs_equilibrium(s1, ip1), eq.gibbs_equilibrium(s2, ip2)
    assert g2.pressure == pytest.approx(g1.pressure, rel=1e-12)


def test_induced_potential_on_a_circle_takes_the_nearest_lift(monkeypatch):
    # chain values of 1.0 feed branches that end at 1; wrapping them to 0.0
    # first gave node diameters 4/3, 8/9, 8/27 of diam B on this map
    m = _three_x_map()
    s = eq.first_return_scheme(m, (5 / 8, 1.0), 8)
    phi = eq.geometric_potential(0.7)
    ip = eq.induced_potential(m, s, phi)
    a = _depth_diameters(s)
    np.testing.assert_allclose(a, 3.0 ** -np.arange(1, len(a) + 1), rtol=1e-11, atol=0)
    want = scalar_induced(m, s, phi)
    for f in ("values", "lower", "upper"):
        np.testing.assert_allclose(getattr(ip, f), getattr(want, f), rtol=1e-12, atol=1e-12)
    # an inverse perturbed by 1e-9 at one trie edge fails the edge
    # certificate, which names the first branch through that edge: here the
    # midpoint's pullback at the last node of depth 3
    T = s.trie
    n = T.at[4] - 1
    br, y = m.branches[T.symbols[n]], maps._shift(m, T, [n])[0, 2]
    suffix, k = [], n
    while T.symbols[k] >= 0:
        suffix.append(int(T.symbols[k]))
        k = T.parent[k]
    i = next(i for i in range(len(s)) if s.chain(i)[-3:] == tuple(suffix))
    inverse = eq.Branch.inverse_many

    def perturbed(self, ys):
        x = inverse(self, ys)
        return np.where(ys == y, x * (1 + 1e-9), x) if self is br else x

    monkeypatch.setattr(eq.Branch, "inverse_many", perturbed)
    R = s.return_times()[i]
    with pytest.raises(ToleranceFailure,
                       match=rf"branch {i} \(R={R}\) fails its pullback at step {R - 3}:"):
        eq.first_return_scheme(m, (5 / 8, 1.0), 8)


# ---------------------------------------------------------------------------
# negative pressures and the truncation tail


def test_gibbs_negative_pressure(lsv15, lsv15_scheme):
    # one branch per level, W_n = e^{-2n}: the root is -2 + log 2 < 0
    ip = eq.induced_potential(lsv15, lsv15_scheme, eq.constant_potential(-2.0))
    g = eq.gibbs_equilibrium(lsv15_scheme, ip, 1e-12)
    assert g.pressure == pytest.approx(-2.0 + LOG2, abs=g.truncation_error + 1e-12)
    # the neglected levels n > 40 add 2^{-40} at the true root
    true_tail = sum(math.exp(-(2.0 + g.pressure) * n) for n in range(41, 2000))
    assert true_tail == pytest.approx(2.0 ** -40, rel=1e-9)
    assert g.truncation_error >= true_tail * (1.0 - 1e-9)


def test_tail_estimate_tracks_horizon_shift(lsv15, lsv15_scheme):
    phi = eq.geometric_potential(0.8)
    g40 = eq.gibbs_equilibrium(lsv15_scheme, eq.induced_potential(lsv15, lsv15_scheme, phi))
    s200 = eq.first_return_scheme(lsv15, (0.5, 1.0), 200)
    g200 = eq.gibbs_equilibrium(s200, eq.induced_potential(lsv15, s200, phi))
    shift = g200.pressure - g40.pressure
    assert 5e-5 < shift < 1e-4
    assert shift / 10.0 <= g40.truncation_error <= 10.0 * shift


def test_solve_rows_batch_equals_rows_alone():
    # rows leave the batch as they finish; every row's root must equal its solo root
    rng = np.random.Generator(np.random.Philox(8))
    batches = []
    for _ in range(40):
        L, K = int(rng.integers(1, 200)), int(rng.integers(2, 12))
        n = np.sort(rng.choice(np.arange(1, 400), L, replace=False))
        logW = rng.normal(0.0, 3.0, (K, L)) + rng.normal(0.0, 0.3, (K, 1)) * n
        batches.append((n, logW, bool(rng.integers(0, 2))))
    # levels far apart, and many levels: no Newton step may overflow a term
    for n, w in ((np.array([1, 2 ** 40]), np.zeros(2)),
                 (np.array([1, 2 ** 53]), np.log([0.5, 1e6])),
                 (np.arange(1, 2 ** 20 + 1), np.zeros(2 ** 20))):
        batches.append((n, w + np.array([[0.0], [1.0]]), False))
    for i, (n, logW, truncated) in enumerate(batches):
        roots, res = _solve_rows(n, logW, truncated, 1e-12)[:2]
        alone = [_solve_rows(n, logW[k:k + 1], truncated, 1e-12)[0][0] for k in range(len(logW))]
        np.testing.assert_array_equal(roots, alone)
        if i >= 40:  # the wide rows all solve
            assert np.all(res <= 1e-12)


def _newton_steps(n, row):
    """Steps of one row in _solve_rows: Newton from its growth exponent
    until a step no longer increases p."""
    n = np.asarray(n, dtype=float)
    p, steps = float(np.max(row / n)), 0
    while True:
        E = np.exp(row - p * n)
        g = E.sum()
        nxt = p + math.log(g) * g / (E * n).sum()
        steps += 1
        if not nxt > p:
            return steps
        p = nxt


def test_solve_rows_batch_has_the_bits_of_each_row_alone(lsv15, lsv15_scheme):
    # steps read whole arrays until a row stops, then gather the rest:
    # every output of every row is its own solve's, byte for byte
    n = np.arange(1, 65)
    closed = np.array([eq.analytic_counts("gouezel", q=q).log_counts(n) for q in (1, 3, 6, 10)]
                      + [eq.analytic_counts("constant_one").log_counts(n)])
    ip = eq.induced_potential(lsv15, lsv15_scheme, eq.geometric_potential(1.0))
    levels, W = _level_rows(lsv15_scheme.return_times(),
                            np.array([t * ip.values for t in (-2.0, 0.3, 0.8, 1.0, 1.4, 3.0)]))
    for n, logW, truncated in ((n, closed, False), (levels, np.log(W), True),
                               (levels, np.log(W), False)):
        steps = [_newton_steps(n, row) for row in logW]
        assert min(steps) >= 2 and len(set(steps)) >= 3  # whole-array, then gathered steps
        got = _solve_rows(n, logW, truncated, 1e-12)
        for k in range(len(logW)):
            alone = _solve_rows(n, logW[k:k + 1], truncated, 1e-12)
            for a, b in zip(got[:4], alone[:4]):
                assert a[k:k + 1].tobytes() == b.tobytes()
            assert got[4][k] == alone[4][0]
        # a row with no level weight leaves the batch before its first step
        dead = np.vstack([logW, np.full(len(n), -np.inf)])
        got2 = _solve_rows(n, dead, truncated, 1e-12)
        assert got2[4][-1] == "series has no positive level weight"
        for a, b in zip(got2[:4], got[:4]):
            assert a[:-1].tobytes() == b.tobytes()


def test_pressure_root_certified_tail():
    # truncated counts: count(n) <= e^{rate n}, rate = log 2, tail at h
    counts = eq.analytic_counts("user_table", table={1: 2, 2: 1}, complete=False)
    rep = eq.pressure_root(counts, 1e-12)
    q = math.exp(counts.rate - rep.h)
    assert rep.truncation_error == pytest.approx(q ** 3 / (1.0 - q), rel=1e-12)


def test_truncated_tail_continues_the_trailing_ratio():
    # the counts still double at the horizon: continuing them gives the
    # tail; with the ratio capped at 1 it read 0.0323 against 0.5355
    table = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 4, 7: 8, 8: 16}
    rep = eq.pressure_root(eq.analytic_counts("user_table", table=table, complete=False))
    with mpmath.workdps(40):
        h = mpmath.mpf(rep.h)
        want = mpmath.nsum(lambda n: 2 ** (n - 4) * mpmath.exp(-h * n), [9, mpmath.inf])
    assert rep.truncation_error == pytest.approx(float(want), rel=1e-13)
    assert rep.tail_rate == LOG2  # the rate that made the tail, not the fitted log(16) / 8


def test_tail_rate_names_the_tail_rule(lsv15):
    # one branch a level: the ratio 1 continues the table, at rate 0
    rep = eq.pressure_root(eq.level_counts(eq.first_return_scheme(lsv15, (0.5, 1.0), 200)))
    assert rep.support == "truncated" and rep.truncation_error > 0.0
    assert rep.tail_rate == 0.0
    # no two consecutive levels: the certificate's rate makes the tail
    counts = eq.analytic_counts("user_table", table={1: 1, 3: 4, 5: 2, 7: 2}, complete=False)
    assert eq.pressure_root(counts).tail_rate == counts.rate == math.log(4.0) / 3


# ---------------------------------------------------------------------------
# the closed-form engine against 50-digit sums

_MP_CASES = ([eq.analytic_counts("constant_one")]
             + [eq.analytic_counts("gouezel", q=q) for q in range(1, 11)]
             + [eq.analytic_counts("user_table", table={1: 1, 2: 3, 5: 4}),
                eq.analytic_counts("user_table", table={1: 2, 2: 1, 4: 3}, complete=False)])


def _mp_level_sum(counts, f, lo=1):
    """sum_{n >= lo} f(n) over the levels of counts, at mpmath precision."""
    if counts.support == "infinite":
        return mpmath.nsum(f, [lo, mpmath.inf])
    return mpmath.fsum(f(n) for n, c in counts.table if c > 0 and n >= lo)


def _mp_log_count(counts, n):
    if counts.kind == "gouezel":
        return (counts.params["q"] + n) * mpmath.log(4)
    if counts.kind == "constant_one":
        return mpmath.mpf(0)
    return mpmath.log(dict(counts.table)[n])


@pytest.mark.parametrize("counts", _MP_CASES,
                         ids=lambda c: f"{c.kind}{c.params.get('q', '')}-{c.support}")
def test_closed_form_engine_against_mpmath(counts):
    rep = eq.pressure_root(counts, 1e-12)
    with mpmath.workdps(50):
        def mass(h):
            return lambda n: mpmath.exp(_mp_log_count(counts, n) - h * n)

        def mean_delta(h):
            M = mass(h)
            mean = _mp_level_sum(counts, lambda n: n * M(n))
            ent = _mp_level_sum(counts, lambda n: -M(n) * mpmath.log(M(n)) if M(n) < 1 else 0)
            return mean, ent / mean

        h_mp = mpmath.findroot(lambda h: _mp_level_sum(counts, mass(h)) - 1, mpmath.mpf(rep.h))
        mean_mp, delta_mp = mean_delta(h_mp)
        # sensitivities of the mean and of delta(F) to h, to carry the root's error
        dmean = abs(mpmath.diff(lambda h: mean_delta(h)[0], h_mp))
        ddelta = abs(mpmath.diff(lambda h: mean_delta(h)[1], h_mp))
        h = mpmath.mpf(rep.h)
        if counts.support == "finite":
            tail_mp = mpmath.mpf(0)
        elif counts.support == "truncated":  # the certificate's law beyond the horizon
            tail_mp = counts.prefactor * mpmath.nsum(
                lambda n: mpmath.exp((counts.rate - h) * n), [rep.levels + 1, mpmath.inf])
        else:
            tail_mp = _mp_level_sum(counts, mass(h), lo=rep.levels + 1)
        # the root: Newton residual plus the truncated levels, and the float
        # evaluation of the series at h, which the residual cannot see (a few ulps of h)
        h_err = rep.residual + rep.truncation_error + 4 * math.ulp(rep.h)
        assert abs(rep.h - h_mp) <= h_err
        assert abs(rep.mean_return - mean_mp) <= dmean * h_err + 4 * math.ulp(rep.mean_return)
        assert abs(rep.delta_f - delta_mp) <= ddelta * h_err + 4 * math.ulp(rep.delta_f)
        # the reported tail bounds the 50-digit tail, up to the rounding of a float bound
        assert rep.truncation_error >= tail_mp * (1 - 1e-12)
    if counts.support == "infinite":
        assert 0 < rep.truncation_error <= 2.0 ** -60


def _mp_root(n, W, p):
    """40-digit root of sum_j W_j e^{-p n_j} = 1 over the float rows, by Newton from p."""
    with mpmath.workdps(40):
        n = [int(k) for k in n]
        W = [mpmath.mpf(float(w)) for w in W]
        p = mpmath.mpf(float(p))
        for _ in range(100):
            terms = [w * mpmath.exp(-p * k) for w, k in zip(W, n)]
            step = (mpmath.fsum(terms) - 1) / mpmath.fsum(k * t for k, t in zip(n, terms))
            p += step
            if abs(step) < mpmath.mpf(10) ** -35:
                return p
    raise AssertionError("the 40-digit Newton did not converge")


def test_roots_against_40_digit_roots(lsv15):
    # the Newton root of a row is within 2 ulps of the 40-digit root of the same floats
    cases = []
    s = eq.first_return_scheme(lsv15, (0.5, 1.0), 200)
    for t in np.round(np.arange(0.5, 1.5001, 0.05), 10):
        ip = eq.induced_potential(lsv15, s, eq.geometric_potential(t))
        cases.append((s, ip.values))
    m = eq.quadratic(-2.0)
    s = eq.first_return_scheme(m, (1.0, 2.0), 20)
    x = eq.induced_potential(m, s, eq.callable_potential(lambda x: x)).values
    cases += [(s, t * x) for t in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    for s, values in cases:
        R = s.return_times()
        p = eq.gibbs_equilibrium(s, eq.InducedPotential(values, values, values)).pressure
        n, W = _level_rows(R, values)
        assert abs(p - _mp_root(n, W[0], p)) <= 2 * math.ulp(max(1.0, abs(p)))
    wide = eq.analytic_counts("user_table", table={1: 1, 2 ** 40: 3})
    h = eq.pressure_root(wide, 1e-12).h
    assert abs(h - _mp_root([1, 2 ** 40], [1.0, 3.0], h)) <= 2 * math.ulp(1.0)
    assert eq.pressure_root(eq.analytic_counts("two_at_one"), 1e-12).h == math.log(2.0)


def test_delta_f_is_one_computation():
    # delta_F and pressure_root's delta_f share one function: equal bit for bit,
    # and the oscillation budget is exactly half of it
    for counts in _MP_CASES + [eq.analytic_counts("two_at_one")]:
        rep = eq.pressure_root(counts, 1e-12)
        assert eq.delta_F(counts, rep.h) == rep.delta_f
        assert eq.oscillation_budget(counts, rep.h).value == 0.5 * rep.delta_f


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_bad_tol_is_out_of_range(doubling_map, doubling_scheme, tol):
    # tol = nan built an empty scheme marked exhausted and solved roots;
    # tol = -1 ended in NoRoot or NotMarkovCompatible
    ip = eq.induced_potential(doubling_map, doubling_scheme, eq.geometric_potential(1.0))
    calls = (lambda: eq.first_return_scheme(doubling_map, (0.0, 1.0), 5, tol),
             lambda: eq.pressure_root(eq.analytic_counts("constant_one"), tol),
             lambda: eq.pressure_root(eq.level_counts(doubling_scheme), tol),
             lambda: eq.gibbs_equilibrium(doubling_scheme, ip, tol),
             lambda: eq.truncated_gurevich(doubling_scheme, ip, 3, tol),
             lambda: eq.pressure_curve(doubling_scheme, eq.geometric_potential(1.0), [0.5, 1.0], tol))
    for call in calls:
        with pytest.raises(OutOfRange, match="tol"):
            call()


def test_zero_tol_is_accepted(doubling_map, doubling_scheme):
    assert len(eq.first_return_scheme(doubling_map, (0.0, 1.0), 5, 0.0))


# ---------------------------------------------------------------------------
# one construction path for both forms of a measure


def _branch_measure(w, times=None, counts=None):
    w = np.asarray(w, dtype=float)
    return eq.MassDistribution(counts=counts or eq.analytic_counts("constant_one"),
                               branch_weights=w,
                               branch_times=np.ones(np.shape(w)) if times is None else times)


@pytest.mark.parametrize("bad", [[0.5, -0.1], [-5e-324, 0.5], [0.5, math.nan], [math.inf],
                                 [0.5, -math.inf], [[0.5, 0.5]], 0.5])
def test_branch_weights_are_checked_like_level_weights(bad):
    # branch weights were stored unchecked: a NaN weight read as a NaN mass
    with pytest.raises(OutOfRange, match="finite and non-negative"):
        _branch_measure(bad)
    with pytest.raises(OutOfRange, match="finite and non-negative"):
        eq.MassDistribution(counts=eq.analytic_counts("constant_one"), level_weights=bad)


def test_a_measure_has_one_form_and_times_of_its_weights_shape():
    one = eq.analytic_counts("constant_one")
    w = np.array([0.5, 0.5])
    for times in (None, [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0):
        with pytest.raises(OutOfRange, match="branch_times"):
            eq.MassDistribution(counts=one, branch_weights=w, branch_times=times)
    with pytest.raises(OutOfRange, match="exactly one"):
        eq.MassDistribution(counts=one)
    with pytest.raises(OutOfRange, match="exactly one"):
        eq.MassDistribution(counts=one, branch_weights=w, branch_times=[1.0, 1.0],
                            level_weights=[0.5])


def test_branch_sums_that_overflow_are_out_of_range():
    # the mass, or the mean return, beyond a double; no numpy warning
    for w, times in (([1e308, 1e308], [1.0, 1.0]), ([1e300, 0.5], [1e10, 1.0]),
                     ([0.0, 0.5], [math.inf, 1.0]), ([0.5], [math.nan])):
        with pytest.raises(OutOfRange, match="not finite"):
            _branch_measure(w, times)


def test_residual_and_level_arrays_are_not_constructor_arguments():
    # a passed residual was kept by branch weights (0.7 at mass 1), and
    # level arrays handed in gave sums that were not the weights' own
    one = eq.analytic_counts("constant_one")
    with pytest.raises(TypeError):
        eq.MassDistribution(counts=one, branch_weights=np.array([0.5, 0.5]),
                            branch_times=np.ones(2), residual=0.7)
    g = eq.analytic_counts("gouezel", q=2)
    w = eq.mme(g, eq.pressure_root(g, 1e-12).h).level_weights
    with pytest.raises(TypeError):
        eq.MassDistribution(counts=g, level_weights=w,
                            _levels=(np.arange(1, len(w) + 1), np.zeros(len(w))))
    assert eq.total_mass(eq.MassDistribution(counts=g, level_weights=w)) == pytest.approx(1.0)


def test_branch_sums_have_the_bits_of_the_reader_formulas(lsv06_scheme):
    # the sums made once at construction are the ones the readers made on
    # every read, and the residual is |1 - total mass| in both forms
    rng = np.random.Generator(np.random.Philox(5))
    times = lsv06_scheme.return_times().astype(float)
    counts = eq.level_counts(lsv06_scheme)
    for k in range(10):
        w = rng.random(len(times)) ** 3 * 10.0 ** rng.integers(-3, 3)
        w[rng.random(len(w)) < 0.2] = 0.0
        m = eq.MassDistribution(counts=counts, branch_weights=w, branch_times=times)
        assert eq.total_mass(m) == float(np.sum(w))
        assert eq.mean_return(m) == float(np.dot(w, times))
        assert eq.bernoulli_entropy(m) == float(np.sum(_entropy_arr(w)))
        assert m.residual == abs(1.0 - eq.total_mass(m))
    for c in (eq.analytic_counts("gouezel", q=3), eq.analytic_counts("two_at_one"), counts):
        m = eq.mme(c, eq.pressure_root(c, 1e-12).h)
        assert not m.enumerated and m.residual == abs(1.0 - eq.total_mass(m))


def test_a_series_chain_makes_each_level_array_once(monkeypatch):
    # pressure_root, mme, delta_F, oscillation_budget and a fat sweep read
    # the levels 1..N of LevelCounts.levels: each length is made once (the
    # one-element call is _closed_root's log_count(1)); shared, read-only
    made = []
    log_counts = eq.LevelCounts.log_counts

    def counting(self, n):
        made.append(len(n))
        return log_counts(self, n)

    monkeypatch.setattr(eq.LevelCounts, "log_counts", counting)
    gammas = np.linspace(0.05, 0.95, 16).tolist()
    for kind, kw in (("gouezel", {"q": 2}), ("gouezel", {"q": 7}), ("constant_one", {})):
        counts = eq.analytic_counts(kind, **kw)
        made.clear()
        for tol in (1e-6, 1e-12):
            rep = eq.pressure_root(counts, tol)
            mu = eq.mme(counts, rep.h)
            assert eq.delta_F(counts, rep.h) == rep.delta_f
            assert eq.oscillation_budget(counts, rep.h).value == 0.5 * rep.delta_f
            for g in gammas:
                eq.normalized_entropy(eq.fat_perturbation(mu, counts, g))
        dense = [k for k in made if k > 1]
        assert dense and len(dense) == len(set(dense)), (kind, made)
        n, logc = counts.levels(len(mu.level_weights))
        assert counts.levels(len(n)) is counts.levels(len(n))
        assert not (n.flags.writeable or logc.flags.writeable)


def test_pressure_root_on_a_truncated_table_reads_its_tail_rates_once(monkeypatch, lsv15_scheme):
    from eqstate import thermo

    counts = eq.level_counts(lsv15_scheme)
    n, c = counts.occupied
    want = eq.pressure_root(counts, 1e-12)
    assert want.truncation_error == float(thermo._tail_estimate(n, c[None], [want.h])[0])
    assert want.tail_rate == float(thermo._tail_rates(n, c[None])[1][0])
    calls = []
    tail_rates = thermo._tail_rates
    monkeypatch.setattr(thermo, "_tail_rates", lambda *a: calls.append(1) or tail_rates(*a))
    assert eq.pressure_root(counts, 1e-12) == want and len(calls) == 1


# ---------------------------------------------------------------------------
# scheme-indexed inputs line up, and scalar arguments are checked


def test_scheme_indexed_inputs_must_line_up(doubling_map):
    s5 = eq.first_return_scheme(doubling_map, (0.0, 0.5), 5)
    s8 = eq.first_return_scheme(doubling_map, (0.0, 0.5), 8)
    c5, c8 = eq.level_counts(s5), eq.level_counts(s8)
    m8 = eq.mme(c8, eq.pressure_root(c8, 1e-12).h, scheme=s8)
    ip5 = eq.induced_potential(doubling_map, s5, eq.geometric_potential(1.0))
    ip8 = eq.induced_potential(doubling_map, s8, eq.geometric_potential(1.0))
    with pytest.raises(OutOfRange, match="branch"):
        eq.sample_original_measure(s5, m8, 10, 1)
    with pytest.raises(OutOfRange, match="phibar"):
        eq.project_integral(m8, ip5)
    with pytest.raises(OutOfRange, match="phibar"):
        eq.gibbs_equilibrium(s5, ip8)
    with pytest.raises(OutOfRange, match="phibar"):
        eq.truncated_gurevich(s5, ip8, 3)
    # counts with no branch at return times 6..8 of the weights
    with pytest.raises(OutOfRange, match="no branch"):
        eq.fat_perturbation(m8, c5, 0.5)
    # the lined-up calls still work
    assert eq.project_integral(m8, ip8) == pytest.approx(-LOG2, rel=1e-9)
    assert len(eq.sample_original_measure(s8, m8, 10, 1).draw_counts) == len(s8)


def test_sampling_needs_integer_counts_and_seeds_and_positive_mass(doubling_scheme):
    counts = eq.level_counts(doubling_scheme)
    dist = eq.mme(counts, LOG2, scheme=doubling_scheme)
    for n_samples in (2.7, -3, math.nan, True, 10.0):
        with pytest.raises(OutOfRange, match="n_samples"):
            eq.sample_original_measure(doubling_scheme, dist, n_samples, 1)
    for seed in (-1, 1.5, False, "1"):
        with pytest.raises(OutOfRange, match="seed"):
            eq.sample_original_measure(doubling_scheme, dist, 10, seed)
    zero = eq.MassDistribution(counts=counts, branch_weights=np.zeros(2), branch_times=np.ones(2))
    with pytest.raises(OutOfRange, match="positive mass"):
        eq.sample_original_measure(doubling_scheme, zero, 10, 1)
    none = eq.sample_original_measure(doubling_scheme, dist, 0, np.int64(2))
    assert len(none.points) == 0 and none.draw_counts.tolist() == [0, 0]
    assert eq.sample_original_measure(doubling_scheme, dist, np.int64(7), 0).draw_counts.sum() == 7


def test_truncated_gurevich_needs_an_integer_level(doubling_map, lsv15, lsv15_scheme):
    ip = eq.induced_potential(lsv15, lsv15_scheme, eq.geometric_potential(0.8))
    for n in (math.nan, 2.5, True, 3.0, "3"):
        with pytest.raises(OutOfRange, match="integer n"):
            eq.truncated_gurevich(lsv15_scheme, ip, n)
    for n in (0, -3):
        assert eq.truncated_gurevich(lsv15_scheme, ip, n) == -math.inf
    assert eq.truncated_gurevich(lsv15_scheme, ip, np.int64(5)) == \
        eq.truncated_gurevich(lsv15_scheme, ip, 5)
