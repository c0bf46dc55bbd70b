import dataclasses
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

import eqstate as eq
from eqstate import analysis
from eqstate.analysis import _curve_point
from eqstate.errors import NoNeutralPoints, OrbitEscaped, OutOfRange, UnknownGenerator
from eqstate.thermo import _entropy_arr, _level_rows, _tail_estimate
from scalar_reference import documented_draws, scalar_ce

LOG2 = math.log(2.0)


def test_doubling_geometric_curve_exact(doubling_scheme):
    grid = [round(-1.0 + 0.1 * k, 10) for k in range(31)]
    curve = eq.pressure_curve(doubling_scheme, eq.geometric_potential(1.0), grid, 1e-12)
    for t, v in zip(curve.t, curve.values):
        assert v == pytest.approx((1 - t) * LOG2, abs=1e-9)
    assert np.min(curve.convexity_defects()) >= -1e-9
    assert eq.phase_transition_scan(curve, 0.05) == []


def test_curve_zero_potential_matches_pressure_root(doubling_scheme, lsv06_scheme):
    for s in (doubling_scheme, lsv06_scheme):
        h = eq.pressure_root(eq.level_counts(s), 1e-12).h
        curve = eq.pressure_curve(s, eq.geometric_potential(1.0), [0.0, 0.5, 1.0], 1e-12)
        assert curve.values[0] == h  # same code path, bit identical


def test_lsv_curve_phase_transition(lsv15_scheme):
    grid = [round(0.5 + 0.01 * k, 10) for k in range(101)]
    curve = eq.pressure_curve(lsv15_scheme, eq.geometric_potential(1.0), grid, 1e-12)
    for t, v in zip(curve.t, curve.values):
        if t >= 1.0:
            assert abs(v) <= 1e-6
        if t <= 0.95:
            assert v > 0
    flags = eq.phase_transition_scan(curve, 0.05)
    assert flags and all(abs(f - 1.0) <= 0.05 for f in flags)


def test_curve_point_status(lsv15_scheme):
    phi = eq.geometric_potential(1.0)
    curve = eq.pressure_curve(lsv15_scheme, phi, [0.6, 1.2, 1.5], 1e-12)
    assert curve.status == ("induced", "dirac", "dirac")
    # the curve takes phi at the neutral point once, with dirac_competitor's bits
    dirac = [eq.dirac_competitor(lsv15_scheme.map, phi, t) for t in curve.t[1:].tolist()]
    assert curve.values[1:].tobytes() == np.array(dirac).tobytes()


@pytest.mark.parametrize("H, t0", [(40, -1000.0), (200, -100.0)])
def test_an_overflowing_point_does_not_abort_the_curve(lsv15, H, t0):
    # at t0 the level weights overflow: that point alone reads
    # error:NoFiniteRoot, and the others are solved as without it
    s = eq.first_return_scheme(lsv15, (0.5, 1.0), H)
    phi = eq.geometric_potential(1.0)
    curve = eq.pressure_curve(s, phi, [0.5, t0, 1.0])
    alone = eq.pressure_curve(s, phi, [0.5, 1.0])
    assert curve.status == ("error:NoFiniteRoot",) + alone.status
    assert math.isnan(curve.values[0]) and curve.errors[0] == math.inf
    assert curve.values[1:].tobytes() == alone.values.tobytes()
    assert curve.errors[1:].tobytes() == alone.errors.tobytes()
    # the single-row solvers still refuse such a potential
    ip = eq.induced_potential(lsv15, s, eq.geometric_potential(t0))
    with pytest.raises(eq.NoFiniteRoot):
        eq.gibbs_equilibrium(s, ip)
    with pytest.raises(eq.NoFiniteRoot):
        eq.truncated_gurevich(s, ip, H)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_curve_at_a_non_finite_t_is_out_of_range(lsv15_scheme, t):
    with pytest.raises(OutOfRange, match="finite t"):
        eq.pressure_curve(lsv15_scheme, eq.geometric_potential(1.0), [0.5, t, 1.0])


def test_dirac_competitor(lsv06, doubling_map):
    phi = eq.geometric_potential(1.0)
    for t in (-1.0, 0.5, 1.0, 2.0):
        assert eq.dirac_competitor(lsv06, phi, t) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NoNeutralPoints):
        eq.dirac_competitor(doubling_map, phi, 1.0)
    assert eq.dirac_competitor(lsv06, eq.constant_potential(0.4), 2.0) == pytest.approx(0.8, abs=1e-15)


def test_oscillation_budget():
    one = eq.analytic_counts("constant_one")
    ob = eq.oscillation_budget(one, LOG2)
    assert ob.value == pytest.approx(LOG2 / 2, abs=1e-12)
    # constant counts attain delta(F) = h, which pressure_root flags too
    assert ob.boundary
    two = eq.analytic_counts("two_at_one")
    ob2 = eq.oscillation_budget(two, LOG2)
    assert ob2.value == 0.0 and ob2.boundary
    g = eq.analytic_counts("gouezel", q=1)
    h = math.log(20.0)
    assert eq.oscillation_budget(g, h).value == pytest.approx(eq.delta_F(g, h) / 2, abs=1e-14)


def test_oscillation_budget_flags_the_boundary_as_pressure_root_does(lsv06_scheme, doubling_scheme):
    # one rule: constant_one's budget read no boundary at delta(F) = h,
    # where pressure_root flags one
    cases = [eq.analytic_counts("constant_one"), eq.analytic_counts("two_at_one"),
             eq.analytic_counts("gouezel", q=1), eq.analytic_counts("gouezel", q=3),
             eq.analytic_counts("user_table", table={1: 1, 2: 3, 5: 4}),
             eq.level_counts(lsv06_scheme), eq.level_counts(doubling_scheme)]
    flags = []
    for counts in cases:
        rep = eq.pressure_root(counts, 1e-12)
        ob = eq.oscillation_budget(counts, rep.h)
        assert ob.boundary == rep.delta_f_boundary and ob.value == rep.delta_f / 2
        flags.append(ob.boundary)
    assert flags == [True, True, False, False, False, True, True]


def test_ce_chebyshev():
    diag = eq.collet_eckmann_diagnostic(-2.0, 400)
    assert diag.liminf_estimate == pytest.approx(math.log(4), abs=1e-9)
    assert diag.liminf_estimate > 0
    assert not diag.hit_zero_derivative
    assert diag.heuristic


def test_ce_superattracting():
    diag = eq.collet_eckmann_diagnostic(-1.0, 100)
    assert diag.hit_zero_derivative
    assert diag.liminf_estimate == -math.inf


def test_ce_escape_and_attracting():
    # c = 0.3 > 1/4: the critical orbit escapes (no real fixed point)
    with pytest.raises(OrbitEscaped) as ei:
        eq.collet_eckmann_diagnostic(0.3, 200)
    assert ei.value.partial is not None
    # c = 0.2: attracting fixed point, negative exponent
    diag = eq.collet_eckmann_diagnostic(0.2, 400)
    assert diag.liminf_estimate < 0


_CE_NS = (1, 2, analysis._CE_BLOCK - 1, analysis._CE_BLOCK, analysis._CE_BLOCK + 1, 20_000)


@pytest.mark.parametrize("c", [-2.0, -1.509196, -1.868919, -1.962656, -1.0, 0.0, 0.3, -2.5, 1e308])
def test_ce_has_the_bits_of_the_one_step_loop(c):
    # blocks with libm's log after the loop: exponents, liminf, the zero
    # flag, and an escape's message and partial, byte for byte
    for N in _CE_NS:
        expo, hit_zero, escaped = scalar_ce(c, N)
        if escaped is not None:
            with pytest.raises(OrbitEscaped) as ei:
                eq.collet_eckmann_diagnostic(c, N)
            assert str(ei.value) == f"critical orbit of c={c:g} escaped [-2,2] at step {escaped}"
            partial = ei.value.partial
            assert partial.shape == expo.shape and partial.tobytes() == expo.tobytes()
            continue
        diag = eq.collet_eckmann_diagnostic(c, N)
        assert diag.exponents.shape == (N, 2)
        assert diag.exponents.tobytes() == expo.tobytes()
        window = max(1, N // 2)
        assert diag.window == window
        assert repr(diag.liminf_estimate) == repr(float(np.min(expo[-window:, 1])))
        assert diag.hit_zero_derivative is hit_zero
    assert scalar_ce(-1.0, 2)[1] and scalar_ce(0.0, 1)[1]  # both zero cases are covered


def test_ce_escape_stops_within_its_block():
    # c = 0.3 leaves [-2, 2] at step 11: no more than one block is iterated
    start = time.perf_counter()
    with pytest.raises(OrbitEscaped, match="at step 11$") as ei:
        eq.collet_eckmann_diagnostic(0.3, 10 ** 7)
    assert time.perf_counter() - start < 0.5
    assert ei.value.partial.tobytes() == scalar_ce(0.3, 10 ** 7)[0].tobytes()


def test_ce_holds_one_block_of_buffers():
    eq.collet_eckmann_diagnostic(-1.5, 100)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        eq.collet_eckmann_diagnostic(-1.509196, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        logs = np.empty(200_000)
        analysis._ce_logs(-1.509196, logs)
        loop_peak = tracemalloc.get_traced_memory()[1] - logs.nbytes
    finally:
        tracemalloc.stop()
    # about 0.96 MB, most of it the exponent table; the loop's own buffers
    # are about 0.7 MB whatever N (a list of a 200 000-step orbit is 6.4 MB)
    assert peak < 1.25e6
    assert loop_peak < 1e6


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_ce_non_finite_c_is_out_of_range(c):
    # nan ran all N steps and reported a nan liminf as a valid estimate
    with pytest.raises(OutOfRange, match="c must be finite"):
        eq.collet_eckmann_diagnostic(c, 100)


def test_log_sum_examples():
    rep = eq.log_sum_check(eq.SequencePair([0.5, 0.5], [1.0, 1.0]))
    assert rep.lhs == pytest.approx(LOG2, abs=1e-14)
    assert rep.rhs == pytest.approx(LOG2, abs=1e-14)
    assert rep.equality
    rep2 = eq.log_sum_check(eq.SequencePair([1.0, 0.0], [0.5, 0.5]))
    assert rep2.lhs == pytest.approx(-LOG2, abs=1e-14)
    assert rep2.rhs == pytest.approx(0.0, abs=1e-14)
    assert not rep2.equality and rep2.slack > 0
    beta = np.array([1.0, 2.0, 4.0])
    rep3 = eq.log_sum_check(eq.SequencePair(beta / beta.sum(), beta))
    assert rep3.equality and abs(rep3.slack) < 1e-12


def test_log_sum_random_pairs():
    rng = np.random.Generator(np.random.Philox(31337))
    for _ in range(10_000):
        k = int(rng.integers(1, 10))
        a = rng.random(k) + 1e-12
        a /= a.sum()
        beta = rng.random(k) * 5 + 1e-9
        rep = eq.log_sum_check(eq.SequencePair(a, beta))
        assert rep.slack >= -1e-12


def test_log_sum_equality_both_directions():
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(200):
        k = int(rng.integers(2, 10))
        beta = rng.random(k) + 0.1
        a = beta / beta.sum()
        assert eq.log_sum_check(eq.SequencePair(a, beta)).equality
        a2 = a.copy()
        a2[0] += 1e-6
        a2 /= a2.sum()
        assert not eq.log_sum_check(eq.SequencePair(a2, beta)).equality


def test_entropy_ratio_examples():
    rep = eq.entropy_ratio_check([1.0])
    assert rep.lhs == 0.0 and rep.holds
    a = [2.0 ** (-n) for n in range(1, 31)]
    rep2 = eq.entropy_ratio_check(a)
    assert rep2.lhs == pytest.approx(2 * LOG2, abs=1e-6)
    assert rep2.holds
    with pytest.raises(OutOfRange):
        eq.entropy_ratio_check([0.7, 0.7])


def test_entropy_ratio_random():
    rng = np.random.Generator(np.random.Philox(404))
    for _ in range(1000):
        k = int(rng.integers(1, 2000))
        a = rng.random(k)
        a /= max(1.0, a.sum())
        assert eq.entropy_ratio_check(a).holds


def test_ratio_decay_probe():
    rows = eq.ratio_decay_probe([2, 5, 10, 30, 100])
    ratios = [r for _, r, _ in rows]
    assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.2
    # geometric instance at r=2 is the dyadic sequence: H-sum 2 log 2, mean 2
    per = rows[0][2]
    assert per["geometric"] == pytest.approx(LOG2, abs=1e-6)
    # degenerate point mass: uniform block at r=1 is a = (1)
    row1 = eq.ratio_decay_probe([1], families=("uniform_block",))[0]
    assert row1[1] == 0.0


def test_ratio_decay_probe_builds_no_long_array():
    # the dense moment weights peaked at 6.4 MB: 200 000 floats and their products
    tracemalloc.start()
    try:
        eq.ratio_decay_probe([2, 5, 10, 30, 100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def _bisection_heavy_tail(r, horizon=200_000):
    # the 80-step bisection the Newton solve replaced, kept as the reference
    n = np.arange(1, horizon + 1, dtype=float)
    logn = np.log(n)

    def mean(s):
        w = np.exp(-s * logn)
        return float(np.dot(n, w) / w.sum())

    lo, hi = 1.01, 6.0
    if mean(lo) < r:
        s = lo
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mean(mid) > r:
                lo = mid
            else:
                hi = mid
        s = 0.5 * (lo + hi)
    a = np.exp(-s * logn)
    a /= a.sum()
    return float(np.sum(_entropy_arr(a))) / float(np.dot(n, a))


def test_heavy_tail_newton_matches_bisection(monkeypatch):
    evals = []
    moments = analysis._power_moments
    monkeypatch.setattr(analysis, "_power_moments",
                        lambda s, grid: evals.append(s) or moments(s, grid))
    # at r = 832.6818 a Newton step falls below one ulp onto a bracket end;
    # taken as a bracket exit it cost 31 evaluations
    for r in (1.5, 2, 3, 5, 10, 30, 100, 832.6818, 1000, 5000, 14_000):
        evals.clear()
        ratio = eq.ratio_decay_probe([r], families=("heavy_tail",))[0][1]
        assert len(evals) <= 15
        assert ratio == pytest.approx(_bisection_heavy_tail(r), rel=1e-12, abs=0)


def test_heavy_tail_mean_beyond_reach_is_out_of_range():
    # the flattest law on the grid (s = 1.01) has mean ~14 816: r = 50 000 is beyond it
    with pytest.raises(OutOfRange, match="14816"):
        eq.ratio_decay_probe([50_000], families=("heavy_tail",))
    with pytest.raises(OutOfRange):
        eq.ratio_decay_probe([2, 50_000])


def test_heavy_tail_ratio_from_moments_matches_the_sequence():
    # sum H(a_n) = s E[log n] + log Z for a_n = n^-s / Z; r = 1.02 solves at
    # s ~ 5.95, the largest exponent the moments see, and r = 1.0 lies below
    # the mean ~1.0193 at s = 6, so its law may only have a mean above r
    horizon = 200_000
    n = np.arange(1, horizon + 1, dtype=float)
    grid = analysis._power_grid(horizon)
    rs = (1.0, 1.02, 1.5, 2, 5, 10, 30, 100, 1000, 14_000)
    for r, ratio in zip(rs, analysis._heavy_tail_ratios(rs, horizon)):
        a = np.exp(-analysis._heavy_tail_exponent(r, grid) * np.log(n))
        a /= a.sum()
        want = float(np.sum(_entropy_arr(a))) / float(np.dot(n, a))
        assert ratio == pytest.approx(want, rel=1e-12, abs=0)
        if r == 1.0:
            assert float(np.dot(n, a)) >= r


def _hurwitz_moments(s, horizon):
    # 40 digits: sum_{n<=N} n^-a = zeta(a) - zeta(a, N+1), the log-weighted
    # sum is minus the same difference of zeta'(a), at a = s and s - 1
    with mpmath.workdps(40):
        sums = []
        for a in (mpmath.mpf(s), mpmath.mpf(s) - 1):
            sums.append(mpmath.zeta(a) - mpmath.zeta(a, horizon + 1))
            sums.append(-(mpmath.zeta(a, 1, 1) - mpmath.zeta(a, horizon + 1, 1)))
        z, l0, m, l1 = sums
        mean, mean_log = m / z, l0 / z
        return mean, mean * mean_log - l1 / z, mean_log, mpmath.log(z)


def _dense_moments(s, horizon):
    # the 200 000-term weights the Euler-Maclaurin sums replaced
    n = np.arange(1, horizon + 1, dtype=float)
    logn = np.log(n)
    w = np.exp(-s * logn)
    z = w.sum()
    mean = float(np.dot(n, w) / z)
    mean_log = float(np.dot(logn, w) / z)
    return mean, mean * mean_log - float(np.dot(n * logn, w) / z), mean_log, math.log(z)


def test_power_moments_match_hurwitz_zeta_and_the_dense_sums():
    grid = analysis._power_grid(200_000)
    # s = 2 exactly is left to the dense sums: zeta(s - 1) has its pole there
    for s in (1.01, 1.37, 1.9, 2 - 1e-9, 2 + 1e-9, 2.5, 3.7, 5.5, 6.0):
        got = analysis._power_moments(s, grid)
        for g, want in zip(got, _hurwitz_moments(s, 200_000)):
            assert g == pytest.approx(float(want), rel=1e-13, abs=0)
    # s = 2 takes the b = 0 branch of the integral at a = s - 1 = 1
    for s in [*np.linspace(1.01, 6.0, 50), 2.0]:
        got = analysis._power_moments(float(s), grid)
        assert got == pytest.approx(_dense_moments(float(s), 200_000), rel=1e-13, abs=0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_ratio_decay_probe_rejects_a_bad_r(monkeypatch, r):
    # nan and inf raised ValueError/OverflowError, 0 ZeroDivisionError and
    # -1 a math domain error; no family may run before the check
    monkeypatch.setattr(analysis, "_FAMILIES", {})
    with pytest.raises(OutOfRange, match="finite r > 0"):
        eq.ratio_decay_probe([2, r])


def test_ratio_decay_probe_rejects_bad_families():
    # a bare KeyError and a ValueError from max() before
    with pytest.raises(UnknownGenerator, match="'bogus'"):
        eq.ratio_decay_probe([2, 5], families=("geometric", "bogus"))
    with pytest.raises(OutOfRange, match="at least one family"):
        eq.ratio_decay_probe([2, 5], families=())


def test_ratio_decay_majorant():
    # proof-side majorant: ratio <= 40/r + 9 log(m0)/r + 9 log(m0)/m0 at m0 = r
    rows = eq.ratio_decay_probe([10, 30, 100])
    for r, ratio, _ in rows:
        m0 = r
        bound = 40.0 / r + 9.0 * math.log(m0) / r + 9.0 * math.log(m0) / m0
        assert ratio <= bound


def test_run_verification_quick():
    from eqstate.analysis import run_verification
    rep = run_verification(quick=True)
    assert rep["violations"] == []
    # pinned from the one-pair-at-a-time suites: same draws, same pairs
    assert {k: rep[k] for k in ("log_sum_pairs", "proportional_pairs", "equality_errors",
                                "entropy_ratio_sequences", "entropy_ratio_failures")} == {
        "log_sum_pairs": 2000, "proportional_pairs": 50, "equality_errors": 0,
        "entropy_ratio_sequences": 200, "entropy_ratio_failures": 0}
    assert rep["log_sum_min_slack"] == 0.0
    want = [(2.0, 0.6931471805599453), (5.0, 0.5004024235381876),
            (10.0, 0.3250829733914482), (30.0, 0.14614474600856384),
            (100.0, 0.05600153435484738)]
    assert [r for r, _ in rep["ratio_decay"]] == [r for r, _ in want]
    for (_, got), (_, ref) in zip(rep["ratio_decay"], want):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def _scalar_log_sum(a, beta):
    # the one-pair arithmetic the batched suites must reproduce bit for bit
    nz = a > 0
    lhs = float(np.sum(a[nz] * np.log(beta[nz] / a[nz])))
    total = float(np.sum(beta))
    equality = bool(np.sum(np.abs(a - beta / total)) <= 1e-12)
    return math.log(total) - lhs, equality


def _stream_state(rng):
    """The generator's bit_generator.state with its arrays as lists."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("seed, n_pairs, n_prop", [(20240501, 2000, 50), (7, 3000, 100)])
def test_pair_suites_match_scalar_loop(seed, n_pairs, n_prop):
    rng = np.random.Generator(np.random.Philox(seed))
    got = [analysis._pair_suite(rng, n_pairs, 2, analysis._random_pairs),
           analysis._pair_suite(rng, n_prop, 1, analysis._proportional_pairs)]
    pairs, proportional, _, ref = documented_draws(seed, n_pairs, n_prop, 0, 1)
    want = [[], []]
    for a, beta in pairs:
        a = a + 1e-12
        a /= a.sum()
        want[0].append((a, beta * 10 + 1e-9))
    for beta in proportional:
        beta = beta * 10 + 1e-9
        want[1].append((beta / beta.sum(), beta))
    for (slack, equality), pairs in zip(got, want):
        assert slack.tolist() == [_scalar_log_sum(a, b)[0] for a, b in pairs]
        assert equality.tolist() == [_scalar_log_sum(a, b)[1] for a, b in pairs]
        reps = [eq.log_sum_check(eq.SequencePair(a, b)) for a, b in pairs]
        assert slack.tolist() == [r.slack for r in reps]
        assert equality.tolist() == [r.equality for r in reps]
    # both streams consumed the same draws
    assert _stream_state(rng) == _stream_state(ref)


@pytest.mark.parametrize("seed", [20240501, 7, 1])
def test_merged_draws_are_the_documented_draws(seed):
    # one random(vectors * k) per pair and one random(k + 1) per entropy
    # sequence give the documented separate calls' doubles, bit for bit,
    # and leave the stream in the same state
    for max_len in (1, 300):
        pairs, proportional, seqs, ref = documented_draws(seed, 500, 60, 40, max_len)
        rng = np.random.Generator(np.random.Philox(seed))
        for count, vectors, want in ((500, 2, pairs), (60, 1, [(b,) for b in proportional])):
            got = [None] * count
            for idx, rows in analysis._draw_rows(rng, count, vectors):
                for j, i in enumerate(idx.tolist()):
                    got[i] = tuple(r[j] for r in rows)
            assert any(len(g[0]) == 1 for g in got)  # k = 1 is drawn
            for g, w in zip(got, want):
                assert len(g) == len(w) == vectors
                assert all(np.array_equal(x, y) for x, y in zip(g, w))
        drawn = list(analysis._entropy_draws(rng, 40, max_len))
        for a, (raw, scale) in zip(drawn, seqs, strict=True):
            assert np.array_equal(a, np.minimum(raw / (raw.sum() / min(1.0, scale + 0.5)), 1.0))
        assert _stream_state(rng) == _stream_state(ref)


def _scalar_entropy_ratio(a):
    # the one-sequence arithmetic with np.sum, which the blocked rows
    # match up to the order of their additions
    lhs = float(np.sum(_entropy_arr(np.minimum(a, 1.0))))
    rhs = 9.0 * float(np.sum(np.log(np.arange(1, len(a) + 1, dtype=float)) * a)) + 40.0
    return lhs, rhs


def test_entropy_rows_in_blocks_equal_one_row_checks():
    rng = np.random.default_rng(12)
    block = analysis._ENTROPY_BLOCK
    lengths = [0, 1, 1, 2, 0, 7, block - 12, 3, 0, 1, block + 5, 1, 0, 2 * block, 9, 0]
    seqs = []
    for k in lengths:
        a = rng.random(k)
        a /= max(1.0, a.sum()) * rng.uniform(1.0, 3.0)
        seqs.append(a)
    seqs[1] = np.array([1.0])
    seqs[2] = np.array([0.0])
    seqs[3] = np.array([1.0, 0.0])
    seqs[5][[0, 3]] = 0.0
    lhs, rhs, holds = analysis._entropy_suite(iter(seqs))
    assert len(lhs) == len(rhs) == len(holds) == len(seqs)
    for i, a in enumerate(seqs):
        rep = eq.entropy_ratio_check(a)
        # a row checked inside a block has the bits of its one-row check
        assert (lhs[i], rhs[i], holds[i]) == (rep.lhs, rep.rhs, rep.holds), i
        want_lhs, want_rhs = _scalar_entropy_ratio(a)
        assert rep.lhs == pytest.approx(want_lhs, rel=1e-12, abs=0)
        assert rep.rhs == pytest.approx(want_rhs, rel=1e-12, abs=0)
        assert rep.holds == (want_lhs <= want_rhs + 1e-9)
    for i in (0, 1, 2, 3, 4, 8, 12, 15):  # empty, [1], [0], [1, 0]: no entropy, no n-weight
        assert lhs[i] == 0.0 and rhs[i] == 40.0, i
    assert [len(col) for col in analysis._entropy_suite(iter([]))] == [0, 0, 0]


def test_entropy_rows_reject_a_bad_row_anywhere_in_a_block():
    good = np.full(10, 0.05)
    for bad in ([0.5, math.nan], [0.7, 0.7], [-1e-3, 0.5], [math.inf]):
        with pytest.raises(OutOfRange):
            analysis._entropy_suite(iter([good, np.array(bad), good]))


def test_entropy_suite_holds_one_block_at_c10_sizes():
    # c10 draws 10^4 sequences of up to 10^4 entries, about 400 MB if they
    # were held together; 200 such sequences (about 8 MB) stay within a
    # block of 2^13 entries, one sequence and their temporaries
    rng = np.random.Generator(np.random.Philox(20240501))
    draws = analysis._entropy_draws(rng, 200, 10_000)
    tracemalloc.start()
    try:
        holds = analysis._entropy_suite(draws)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds.all() and len(holds) == 200
    assert peak < 2_000_000, peak


def test_entropy_ratio_check_takes_one_sequence():
    rep = eq.entropy_ratio_check([])
    assert (rep.lhs, rep.rhs, rep.holds) == (0.0, 40.0, True)
    for bad in ([[0.1, 0.2], [0.3, 0.1]], 0.5, [[0.5]]):
        with pytest.raises(OutOfRange):
            eq.entropy_ratio_check(bad)


@pytest.mark.parametrize("kw", [
    {"n_pairs": -1}, {"n_prop": -1}, {"n_entropy": 2.5}, {"n_entropy": True},
    {"max_len": 0}, {"max_len": 1.0}, {"n_pairs": "10"},
])
def test_run_verification_rejects_bad_sizes(kw):
    sizes = {"n_pairs": 10, "n_prop": 2, "n_entropy": 3, "max_len": 5}
    with pytest.raises(OutOfRange):
        analysis.run_verification(**{**sizes, **kw})


def test_run_verification_takes_zero_sizes():
    rep = analysis.run_verification(n_pairs=0, n_prop=0, n_entropy=0, max_len=1)
    assert rep["violations"] == [] and rep["entropy_ratio_failures"] == 0
    assert rep["log_sum_min_slack"] == math.inf


@pytest.mark.parametrize("N", [2.5, True, 0, -3, 100.0])
def test_collet_eckmann_needs_an_integer_n(N):
    with pytest.raises(OutOfRange):
        eq.collet_eckmann_diagnostic(-2.0, N)


def test_log_sum_rows_keep_libm_log():
    # rhs is libm's log of the row total, as in the one-pair check; on
    # one-entry rows the slack is math.log(beta) - np.log(beta), 0 or one ulp
    # (c10's minimum slack, -2.2e-16, is such a row)
    beta = np.random.default_rng(5).uniform(1.0, 2.0, 20_000)
    lhs, rhs, equality = analysis._log_sum_rows(np.ones((beta.size, 1)), beta[:, None])
    assert rhs.tolist() == [math.log(b) for b in beta.tolist()]
    assert lhs.tolist() == np.log(beta).tolist() and equality.all()


def test_equality_flag_disagreeing_with_slack_is_an_error():
    # 10^4 entries of mass 1e-4 and 10^4 of mass 0 next to beta = 1e-9:
    # every entry is within 1e-12 of beta / sum beta, yet the slack is ~1e-9;
    # the row's L1 distance (~2e-9) does not call that equality
    a = np.concatenate([np.full(10_000, 1e-4), np.zeros(10_000)])
    beta = np.concatenate([np.ones(10_000), np.full(10_000, 1e-9)])
    rep = eq.log_sum_check(eq.SequencePair(a, beta))
    assert not rep.equality and rep.slack == pytest.approx(1e-9, rel=1e-6)
    assert np.max(np.abs(a - beta / beta.sum())) <= 1e-12
    # the same row made proportional is equality
    prop = eq.log_sum_check(eq.SequencePair(beta / beta.sum(), beta))
    assert prop.equality and abs(prop.slack) <= 1e-10
    slack = np.array([rep.slack, 0.0, rep.slack])
    flags = np.array([True, True, False])
    assert analysis._equality_errors(slack, flags).tolist() == [True, False, False]


@pytest.mark.parametrize("pair", [
    ([math.nan], [1.0]),
    ([1.0], [math.nan]),
    ([1.0], [math.inf]),
    ([[0.5, 0.5]], [[1.0, 1.0]]),
])
def test_sequence_pair_rejects_invalid(pair):
    with pytest.raises(OutOfRange):
        eq.log_sum_check(eq.SequencePair(*pair))


@pytest.mark.parametrize("a", [[math.nan], [0.5, math.nan]])
def test_entropy_ratio_rejects_non_finite(a):
    with pytest.raises(OutOfRange):
        eq.entropy_ratio_check(a)


def _gibbs_at(s, ip, t, values=None):
    vals = t * ip.values if values is None else values
    return eq.gibbs_equilibrium(s, dataclasses.replace(ip, values=vals), 1e-12)


def test_curve_rows_equal_pointwise_gibbs(lsv15_scheme, doubling_scheme):
    # one batched Newton solve over all rows gives every row its own root
    for s, grid in ((lsv15_scheme, [0.3, 0.5, 0.8, 0.95, 1.0]),
                    (doubling_scheme, [-1.0, 0.0, 0.5, 2.0])):
        phi = eq.geometric_potential(1.0)
        curve = eq.pressure_curve(s, phi, grid, 1e-12)
        ip = eq.induced_potential(s.map, s, phi)
        for t, v, st in zip(curve.t, curve.values, curve.status):
            if st == "induced":
                assert v == pytest.approx(_gibbs_at(s, ip, t).pressure, abs=1e-14)


def test_curve_side_root_below_competitor(lsv15_scheme):
    # at t = 0.97 the root with the lower branch values lies below the Dirac
    # competitor 0; the error bar then uses the competitor in its place
    s, t, tol = lsv15_scheme, 0.97, 1e-12
    phi = eq.geometric_potential(1.0)
    curve = eq.pressure_curve(s, phi, [t], tol)
    ip = eq.induced_potential(s.map, s, phi)
    g = _gibbs_at(s, ip, t)
    sides = [_gibbs_at(s, ip, t, v).pressure for v in (t * ip.lower, t * ip.upper)]
    assert sides[0] < 0.0 < g.pressure and curve.status[0] == "induced"
    want = max(abs(max(p, 0.0) - g.pressure) for p in sides) + g.truncation_error + 10 * tol
    assert curve.errors[0] == pytest.approx(want, rel=1e-12)
    # the rule itself: a side below the competitor, or missing, counts as it
    assert _curve_point(0.02, [-0.05, 0.03], 0.1, 0.0, 0.0, 0.0) == (0.02, 0.02, "induced")
    assert _curve_point(0.02, [None, 0.03], 0.1, 0.0, 0.0, 0.0) == (0.02, 0.02, "induced")
    assert _curve_point(0.02, [-0.05, 0.03], 0.1, 0.0, None, 0.0) == (0.02, 0.07, "induced")
    # where the competitor wins, its bar reaches up to the induced root's
    assert _curve_point(-0.01, [-0.05, 0.03], 0.1, 0.0, 0.0, 0.0) == (0.0, 0.03, "dirac")
    assert _curve_point(-0.01, [-0.02, -0.005], 0.1, 0.0, 0.0, 0.0) == (0.0, 0.0, "dirac")


def test_curve_competitor_bar_reaches_the_upper_root(lsv15_scheme):
    # at t = 1 the induced root lies below the competitor 0 but the root with
    # the upper branch values does not: the point is the competitor, with a
    # bar up to that root plus the truncation's shift at 0 (it read 0 +- 0)
    s, t, tol = lsv15_scheme, 1.0, 1e-12
    phi = eq.geometric_potential(1.0)
    curve = eq.pressure_curve(s, phi, [t], tol)
    ip = eq.induced_potential(s.map, s, phi)
    up = _gibbs_at(s, ip, t, t * ip.upper).pressure
    assert _gibbs_at(s, ip, t).pressure < 0.0 < up
    assert curve.status[0] == "dirac" and curve.values[0] == 0.0
    n, W = _level_rows(s.return_times(), t * ip.values)
    shift = float(_tail_estimate(n, W, [0.0])[0])
    assert 0.0 < shift < up
    assert curve.errors[0] == pytest.approx(up + shift + 10 * tol, rel=1e-9)


def test_curve_of_a_truncated_scheme_with_no_branch_has_no_root(doubling_map):
    # the tail of an empty truncated table read its last level: IndexError
    s = eq.first_return_scheme(doubling_map, (0.25, 0.5), 1)
    assert len(s) == 0 and not s.exhausted
    curve = eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0], 1e-12)
    assert curve.status == ("error:NoRoot",) * 2 and np.all(np.isnan(curve.values))


def test_curve_negative_induced_root(lsv15_scheme):
    # phi = -1: the induced root log 2 - t beats the competitor -t
    curve = eq.pressure_curve(lsv15_scheme, eq.constant_potential(-1.0), [0.9, 1.0, 1.1], 1e-12)
    assert curve.status == ("induced",) * 3
    for t, v, e in zip(curve.t, curve.values, curve.errors):
        assert v == pytest.approx(LOG2 - t, abs=e)
    assert curve.values[1] == pytest.approx(-0.307, abs=1e-3)


def test_phase_transition_scan_needs_a_finite_non_negative_slope_tol(doubling_map):
    # nan flagged nothing, and a negative tolerance flagged t = 1 on the
    # doubling curve, which is linear
    s = eq.first_return_scheme(doubling_map, (0.0, 0.5), 6)
    curve = eq.pressure_curve(s, eq.geometric_potential(1.0), [0.5, 1.0, 1.5])
    for bad in (math.nan, -1.0, math.inf, -math.inf):
        with pytest.raises(OutOfRange, match="slope_tol"):
            eq.phase_transition_scan(curve, bad)
    assert eq.phase_transition_scan(curve, 0.0) == []
