import dataclasses
import math

import mpmath
import numpy as np
import pytest

import eqstate as eq
from eqstate.errors import (
    DivergentEntropy,
    InfiniteMeanReturn,
    NoRoot,
    OrbitHitsCritical,
    OutOfRange,
    ToleranceFailure,
)
from eqstate.thermo import (
    _certified_tail,
    _count_rows,
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
        return float(head + _certified_tail(counts.rate, counts.prefactor, 64, s))
    n, logW = _count_rows(counts)
    return float(_series_rows(n, logW, np.array([s]))[0])


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
    for b in lsv06_scheme.branches[:8]:
        sums = []
        for c in range(3):
            y = float(scalar_orbit(lsv06_scheme, b.index, c)[0])
            prod = 1.0
            for bi in b.chain:
                br = lsv06.branches[bi]
                prod *= abs(float(br.df(y)))
                y = lsv06.space.wrap(float(br.f(y)))
            sums.append(-math.log(prod))
        assert ip.lower[b.index] == pytest.approx(min(sums), rel=1e-12)
        assert ip.upper[b.index] == pytest.approx(max(sums), rel=1e-12)
        assert ip.values[b.index] == pytest.approx(
            math.log((b.hi - b.lo) / lsv06_scheme.diam_base), rel=1e-12)


def test_gibbs_reduction_bitwise(doubling_scheme, lsv06_scheme):
    for s in (doubling_scheme, lsv06_scheme):
        counts = eq.level_counts(s)
        rep = eq.pressure_root(counts, 1e-12)
        dist = eq.mme(counts, rep.h, scheme=s)
        ip0 = eq.induced_potential(s.map, s, eq.constant_potential(0.0))
        g = eq.gibbs_equilibrium(s, ip0, 1e-12)
        assert g.pressure == rep.h
        assert np.array_equal(g.mass.branch_weights, dist.branch_weights)


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
    markers = {float(scalar_orbit(doubling_scheme, b.index)[0]) for b in doubling_scheme.branches}
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
    R = lsv06_scheme.branches[i].return_time
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
    assert [b.chain for b in s1.branches] == [b.chain for b in s2.branches]
    assert len(s1) >= H and not s1.exhausted and not s2.exhausted
    ends = [np.array([(b.lo, b.hi) for b in s.branches]) for s in (s1, s2)]
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
    br, y = m.branches[T.symbols[n]], T.values[T.parent[n], 2] - T.shift[n]
    suffix, k = [], n
    while T.symbols[k] >= 0:
        suffix.append(int(T.symbols[k]))
        k = T.parent[k]
    b = next(b for b in s.branches if b.chain[-3:] == tuple(suffix))
    inverse = eq.Branch.inverse_many

    def perturbed(self, ys):
        x = inverse(self, ys)
        return np.where(ys == y, x * (1 + 1e-9), x) if self is br else x

    monkeypatch.setattr(eq.Branch, "inverse_many", perturbed)
    R = b.return_time
    with pytest.raises(ToleranceFailure,
                       match=rf"branch {b.index} \(R={R}\) fails its pullback at step {R - 3}:"):
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
    # the last open row finishes in floats; every row's root must equal its solo root
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(40):
        L, K = int(rng.integers(1, 200)), int(rng.integers(2, 12))
        n = np.sort(rng.choice(np.arange(1, 400), L, replace=False))
        logW = rng.normal(0.0, 3.0, (K, L)) + rng.normal(0.0, 0.3, (K, 1)) * n
        truncated = bool(rng.integers(0, 2))
        roots = _solve_rows(n, logW, truncated, 1e-12)[0]
        alone = [_solve_rows(n, logW[k:k + 1], truncated, 1e-12)[0][0] for k in range(K)]
        np.testing.assert_array_equal(roots, alone)


def test_pressure_root_certified_tail():
    # truncated counts: count(n) <= e^{rate n}, rate = log 2, tail at h
    counts = eq.analytic_counts("user_table", table={1: 2, 2: 1}, complete=False)
    rep = eq.pressure_root(counts, 1e-12)
    q = math.exp(counts.rate - rep.h)
    assert rep.truncation_error == pytest.approx(q ** 3 / (1.0 - q), rel=1e-12)


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
        # the root: bisection residual plus the truncated levels, and the float
        # evaluation of the series at h, which the residual cannot see (a few ulps of h)
        h_err = rep.residual + rep.truncation_error + 4 * math.ulp(rep.h)
        assert abs(rep.h - h_mp) <= h_err
        assert abs(rep.mean_return - mean_mp) <= dmean * h_err + 4 * math.ulp(rep.mean_return)
        assert abs(rep.delta_f - delta_mp) <= ddelta * h_err + 4 * math.ulp(rep.delta_f)
        # the reported tail bounds the 50-digit tail, up to the rounding of a float bound
        assert rep.truncation_error >= tail_mp * (1 - 1e-12)
    if counts.support == "infinite":
        assert 0 < rep.truncation_error <= 2.0 ** -60


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
    assert eq.first_return_scheme(doubling_map, (0.0, 1.0), 5, 0.0).branches
