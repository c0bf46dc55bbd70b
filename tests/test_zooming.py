import math
import sys

import numpy as np
import pytest

import eqstate as eq
from eqstate.errors import OrbitTruncated, OutOfRange

# Binary maps (doubling, tent s=2) collapse to the fixed point after ~52
# float iterations (mantissa exhaustion), so orbit-based tests on them use
# N <= 50; LSV orbits are nonlinear and run to any length.
NBIN = 50


def test_contraction_values():
    c = eq.Contraction.exponential(math.log(2))
    assert c.value(3, 1.0) == pytest.approx(0.125, abs=1e-15)
    cs = eq.Contraction.sqrt_exponential(1.0)
    assert cs.value(4, 1.0) == pytest.approx(math.exp(-2), abs=1e-15)
    assert c.value(1, 0.0) == 0.0


def test_contraction_validation():
    with pytest.raises(OutOfRange):
        eq.Contraction.exponential(0.0)
    with pytest.raises(OutOfRange):
        eq.Contraction.from_table([0.9, 0.5])  # a1*a1 = 0.81 > a2 = 0.5
    with pytest.raises(OutOfRange, match=r"violates a_n\*a_m <= a_\(n\+m\) at \(1,1\)"):
        eq.Contraction.from_table([0.9, 0.5])
    with pytest.raises(OutOfRange):
        eq.Contraction.from_table([0.5, float("nan")])
    tab = eq.Contraction.from_table([0.5, 0.26, 0.131])
    assert tab.factor(2) == 0.26
    with pytest.raises(OutOfRange):
        tab.factor(4)
    # submultiplicativity and summability of the closed forms
    for c in (eq.Contraction.exponential(0.3), eq.Contraction.sqrt_exponential(0.7)):
        for n in range(1, 10):
            for m in range(1, 10):
                assert c.factor(n) * c.factor(m) <= c.factor(n + m) * (1 + 1e-12)
        assert c.summable_bound() < math.inf


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_non_finite_contraction_rate_is_rejected(lsv06, rate):
    # a nan rate passed `rate <= 0`; every factor was then nan, no diameter
    # test failed, and lsv(0.6) reported frequency 1.0
    for make in (eq.Contraction.exponential, eq.Contraction.sqrt_exponential):
        with pytest.raises(OutOfRange, match="finite rate"):
            make(rate)


def test_non_finite_zooming_and_pliss_parameters_are_rejected(lsv06):
    c = eq.Contraction.exponential(0.3)
    # delta = nan gave frequency 0.0, not flagged as truncated
    with pytest.raises(OutOfRange, match="delta"):
        eq.zooming_frequency(lsv06, 0.3, 200, c, math.nan)
    # lam = nan gave no times (and a RuntimeWarning); lam = -inf gave none
    # either, though every time satisfies the condition
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange, match="finite lambda"):
            eq.pliss_times(lsv06, 0.3, 200, lam)


@pytest.mark.parametrize("N", [True, False, 2.5, 3.0, 0, -1, "10"])
@pytest.mark.parametrize("call", [
    lambda m, N: eq.zooming_frequency(m, 0.3, N, eq.Contraction.exponential(0.3), 0.1),
    lambda m, N: eq.pliss_times(m, 0.3, N, 0.2),
    lambda m, N: eq.lyapunov(m, 0.3, N),
])
def test_orbit_length_must_be_an_integer_of_at_least_one(lsv06, call, N):
    # lyapunov(lsv(0.6), 0.3, True) returned the exponent of a one-step orbit
    with pytest.raises(OutOfRange, match="integer >= 1"):
        call(lsv06, N)


def test_orbit_length_takes_numpy_integers(lsv06):
    assert eq.lyapunov(lsv06, 0.3, np.int64(50)) == eq.lyapunov(lsv06, 0.3, 50)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda m, x: eq.zooming_frequency(m, x, 200, eq.Contraction.exponential(0.3), 0.1),
    lambda m, x: eq.zooming_frequency(m, x, 200, eq.Contraction.exponential(0.3), 0.0),
    lambda m, x: eq.pliss_times(m, x, 200, 0.2),
    lambda m, x: eq.lyapunov(m, x, 200),
])
def test_non_finite_start_is_rejected(lsv06, tent_map, call, x):
    # on circles wrap sent nan to 0.0, whose orbit looked valid
    for m in (lsv06, tent_map):
        with pytest.raises(OutOfRange, match="not finite"):
            call(m, x)


def test_degenerate_ball_reports_truncation(doubling_map):
    # delta = 0 returned before the orbit was built, always untruncated
    c = eq.Contraction.exponential(math.log(2))
    for delta in (0.0, 0.1):
        rep = eq.zooming_frequency(doubling_map, 0.3141, 80, c, delta)
        assert rep.truncated and rep.n_effective < 60


def test_short_table_raises_where_full_pullback_needs_it(lsv06):
    # at delta = 1e-15 the pullback offsets become exactly 0 within a few
    # steps, so candidates longer than the table are decided early; they
    # still need a factor for every step, as without the shortcut
    tab = eq.Contraction.from_table([0.5 ** k for k in range(1, 6)])
    assert list(eq.zooming_frequency(lsv06, 0.377, 5, tab, 1e-15).times) == [1, 2, 3, 4, 5]
    for N in (6, 8, 12):
        with pytest.raises(OutOfRange, match="contraction table has no entry"):
            eq.zooming_frequency(lsv06, 0.377, N, tab, 1e-15)
    tab40 = eq.Contraction.from_table([0.9 ** k for k in range(1, 41)])
    assert len(eq.zooming_frequency(lsv06, 0.377, 30, tab40, 0.1).times) == 30
    with pytest.raises(OutOfRange, match="n=41"):
        eq.zooming_frequency(lsv06, 0.377, 60, tab40, 0.1)


@pytest.mark.parametrize("call", [
    lambda m, N: eq.zooming_frequency(m, 0.377, N, eq.Contraction.exponential(0.2), 0.1),
    lambda m, N: eq.pliss_times(m, 0.377, N, 0.2),
    lambda m, N: eq.lyapunov(m, 0.377, N),
])
def test_horizon_below_one_rejected(lsv06, call):
    for N in (0, -3):
        with pytest.raises(OutOfRange):
            call(lsv06, N)


def test_times_is_a_packed_tuple(lsv06):
    N = 10_000
    rep = eq.zooming_frequency(lsv06, 0.377, 2000, eq.Contraction.exponential(0.2), 0.1)
    t = rep.times
    tup = tuple(t)
    assert t == tup and t == list(tup) and tup == tuple(rep.to_json()["times"])
    assert all(type(v) is int for v in t)
    assert list(t) == sorted(set(t))
    assert len(t) == len(tup) and bool(t)
    assert t[:20] == tup[:20] and t[5:-5:3] == tup[5:-5:3] and t[-1] == tup[-1]
    assert t[3] == tup[3] and type(t[3]) is int
    assert t != tup[1:] and t != list(tup[:-1]) + [tup[-1] + 1]
    assert hash(t) == hash(tup)
    assert rep.frequency == len(tup) / 2000
    big = eq.Times(range(1, N + 1, 3), N)
    assert len(big) == len(range(1, N + 1, 3)) and big == tuple(range(1, N + 1, 3))
    assert sys.getsizeof(big) + sys.getsizeof(big._bits) <= N / 8 + 200
    assert eq.Times([], 5) == () and not eq.Times([], 5)
    assert t[len(t) - 1] == tup[-1] and t[-len(t)] == tup[0]
    with pytest.raises(IndexError):
        t[len(t)]
    assert tuple(t) + (0,) == tup + (0,)
    assert eq.Times([2, 4], 5) == eq.Times([2, 4], 9)
    with pytest.raises(ValueError):
        eq.Times([0, 2], 5)


def test_times_whole_sequence_ops_decode_once(monkeypatch):
    N = 100_000
    ref = tuple(range(2, N + 1, 7))
    t = eq.Times(ref, N)
    decode = eq.Times._array
    calls = []

    def counted(self):
        calls.append(1)
        return decode(self)

    monkeypatch.setattr(eq.Times, "_array", counted)
    assert list(reversed(t)) == list(reversed(ref))
    assert len(calls) == 1
    calls.clear()
    assert t.index(ref[-1]) == len(ref) - 1 and t.index(ref[5], 3, 9) == 5
    assert len(calls) == 2
    with pytest.raises(ValueError):
        t.index(1)
    with pytest.raises(ValueError):
        t.index(ref[5], 6)
    calls.clear()
    assert ref[-1] in t and 3 not in t and t.count(ref[3]) == 1
    assert len(calls) == 3


def test_pliss_doubling_all_detected(doubling_map):
    rep = eq.pliss_times(doubling_map, 0.3141, NBIN, 0.5 * math.log(2))
    assert rep.frequency == 1.0
    assert rep.times == tuple(range(1, NBIN + 1))


def test_pliss_tent_all_detected(tent_map):
    rep = eq.pliss_times(tent_map, 0.3, NBIN, math.log(2) - 1e-9)
    assert rep.frequency == 1.0


def test_pliss_lsv_alpha3_starved():
    m = eq.lsv(3.0)
    rep = eq.pliss_times(m, 0.01, 1000, 0.3)
    assert rep.frequency < 0.5


def test_pliss_monotone_in_lambda(lsv06, doubling_map):
    for m, x, N in ((lsv06, 0.377, 2000), (doubling_map, 0.3141, NBIN)):
        weak = set(eq.pliss_times(m, x, N, 0.15).times)
        strong = set(eq.pliss_times(m, x, N, 0.3).times)
        assert strong <= weak


def test_zooming_doubling_all_detected(doubling_map):
    c = eq.Contraction.exponential(math.log(2))
    rep = eq.zooming_frequency(doubling_map, 0.3141, NBIN, c, 0.2)
    assert rep.frequency == 1.0


def test_zooming_degenerate_ball(doubling_map):
    c = eq.Contraction.exponential(math.log(2))
    rep = eq.zooming_frequency(doubling_map, 0.3141, 30, c, 0.0)
    assert rep.times == ()


def test_zooming_lsv_positive_frequency(lsv06):
    c = eq.Contraction.exponential(0.2)
    rng = np.random.Generator(np.random.Philox(99))
    x = float(rng.uniform(0, 1))
    rep = eq.zooming_frequency(lsv06, x, 2000, c, 0.1)
    assert rep.frequency > 0


def test_zooming_times_are_pliss_times_with_allowance(doubling_map, tent_map):
    # geometric detection at exponential rate lam implies the Pliss condition
    # at 0.9 lam on bounded-distortion maps
    lam = math.log(2)
    c = eq.Contraction.exponential(lam)
    for m, x in ((doubling_map, 0.3141), (tent_map, 0.2718)):
        z = set(eq.zooming_frequency(m, x, NBIN, c, 0.2).times)
        p = set(eq.pliss_times(m, x, NBIN, 0.9 * lam).times)
        assert z <= p


def test_frequency_shift_invariance(doubling_map):
    N = 40
    lam = 0.5 * math.log(2)
    x = 0.3141
    fx = eq.evaluate(doubling_map, x)
    r1 = eq.pliss_times(doubling_map, x, N, lam)
    r2 = eq.pliss_times(doubling_map, fx, N, lam)
    sym = len(set(r1.times) ^ set(r2.times))
    assert abs(r1.frequency - r2.frequency) <= 2.0 / N + sym / N


def test_lyapunov_examples(doubling_map, tent_map):
    assert eq.lyapunov(doubling_map, 0.3141, NBIN) == pytest.approx(math.log(2), abs=1e-14)
    assert eq.lyapunov(tent_map, 0.2718, NBIN) == pytest.approx(math.log(2), abs=1e-14)


def test_lyapunov_chebyshev():
    mq = eq.quadratic(-2.0)
    lam = eq.lyapunov(mq, 0.3, 100_000)
    assert lam == pytest.approx(math.log(2), abs=0.02)


@pytest.mark.parametrize("make", [lambda: eq.lsv(0.6), lambda: eq.quadratic(-1.9),
                                  lambda: eq.iterate(eq.lsv(0.6), 2)],
                         ids=["lsv06", "quadratic", "lsv06^2"])
def test_log_slopes_have_the_point_tables_bits(make):
    # lyapunov and pliss_times take f' alone (Branch.df), with the bits of
    # the f' that the point table takes with f (Branch.fdf)
    from eqstate.maps import strict_orbit
    from eqstate.zooming import _log_slopes, _point_table
    m = make()
    pts, bidx, _ = strict_orbit(m, 0.3141, 20_000)
    M = len(bidx)
    assert M > 1000
    want = np.log(np.abs(_point_table(m, pts[:M], bidx).dfw))
    assert _log_slopes(m, pts[:M], bidx).tobytes() == want.tobytes()
    assert eq.lyapunov(m, 0.3141, M) == float(np.mean(want))


def test_lyapunov_truncation_raises(doubling_map):
    with pytest.raises(OrbitTruncated):
        eq.lyapunov(doubling_map, 0.3141, 1000)


def test_zooming_report_fields(lsv06):
    c = eq.Contraction.exponential(0.2)
    rep = eq.zooming_frequency(lsv06, 0.777, 500, c, 0.1)
    assert rep.N == 500
    assert rep.frequency == len([t for t in rep.times if 1 <= t <= 500]) / 500
    assert rep.params["delta"] == 0.1
    d = rep.to_json()
    assert d["N"] == 500 and d["times"] == list(rep.times)


def test_zooming_deterministic(lsv06):
    c = eq.Contraction.exponential(0.2)
    a = eq.zooming_frequency(lsv06, 0.377, 1500, c, 0.1)
    b = eq.zooming_frequency(lsv06, 0.377, 1500, c, 0.1)
    assert a.times == b.times and a.frequency == b.frequency


def test_zooming_on_iterate(lsv06):
    # ell > 1 is handled by running the detector on the iterate map
    m2 = eq.iterate(lsv06, 2)
    c = eq.Contraction.exponential(0.3)
    rep = eq.zooming_frequency(m2, 0.88, 300, c, 0.05)
    assert rep.n_effective > 0


def test_zero_offsets_pull_back_to_exact_zeros_along_the_c11_orbit(lsv06):
    # a step on zero offsets starts the inverse at w + (f(w) - f(w)) / f'(w)
    # = w, takes a zero step there, and returns every offset as exactly 0.0
    from eqstate.maps import strict_orbit
    from eqstate.zooming import _hop_table, _point_table, _pullback

    x0 = float(np.random.Generator(np.random.Philox(20240501)).uniform(0.0, 1.0))
    pts, bidx, ok = strict_orbit(lsv06, x0, 10_000)
    M = len(bidx)
    assert ok and M == 10_000
    P = _point_table(lsv06, pts[:M], bidx)
    lo, hi, fail = _pullback(lsv06, _hop_table(lsv06), P, np.arange(M), np.zeros(M), np.zeros(M))
    assert not fail.any()
    assert np.all(lo == 0.0) and np.all(hi == 0.0)


def _orbit_growth(m, x0, N):
    from eqstate.maps import strict_orbit
    from eqstate.zooming import _growth, _point_table

    pts, bidx, ok = strict_orbit(m, x0, N)
    assert ok
    P = _point_table(m, pts[:N], bidx)
    return P, _growth(P.dfw)


def test_growth_bound_is_one_where_the_map_expands(lsv06, doubling_map):
    # |f'| >= 1 along the orbit: the log-derivative sums never fall, so the
    # pullback from any time to an earlier one never widens an interval
    for m, N in ((lsv06, 10_000), (doubling_map, NBIN)):
        P, G = _orbit_growth(m, 0.377, N)
        assert len(G) == N and np.all(G == 1.0)
        if m is lsv06:
            assert np.abs(P.dfw).min() < 1.01  # laminar steps near 0


def test_growth_bound_exceeds_one_after_a_pass_near_the_critical_point():
    m = eq.quadratic(-2.0)
    P, G = _orbit_growth(m, 0.3, 300)
    assert G[0] == 1.0 and np.all(G >= 1.0) and np.all(np.isfinite(G))
    j = int(np.argmin(np.abs(P.w[:-1])))  # |f'(w_j)| = 2 |w_j| < 1
    assert abs(P.w[j]) < 0.5
    # pulling back from time j + 1 to time j widens by 1 / |f'(w_j)|
    assert G[j + 1] >= 1.0 / abs(P.dfw[j]) * (1 - 1e-12) > 1.0
    np.testing.assert_allclose(
        G[:120], [max(math.prod(1.0 / abs(d) for d in P.dfw[i:n]) for i in range(n + 1))
                  for n in range(120)], rtol=1e-12)


@pytest.mark.parametrize("name", ["quadratic", "quadratic_squared", "lsv06"])
def test_growth_bound_is_the_widest_the_pullback_gets(name):
    # offsets r G[j] <= 1e-9 at time j, pulled back to every earlier time,
    # stay within 1e-9 and reach it where G[j] > 1 (up to second order)
    from eqstate.zooming import _hop_table, _pullback

    m, x0 = {"quadratic": (eq.quadratic(-1.7), 0.45),
             "quadratic_squared": (eq.iterate(eq.quadratic(-2.0), 2), 0.3),
             "lsv06": (eq.lsv(0.6), 0.377)}[name]
    P, G = _orbit_growth(m, x0, 300)
    hops = _hop_table(m)
    j = np.arange(1, 300)
    lo, hi = -1e-9 / G[j], 1e-9 / G[j]
    peak = np.zeros(len(j))
    for t in range(1, 300):
        live = np.flatnonzero(j >= t)
        lo[live], hi[live], fail = _pullback(m, hops, P, j[live] - t, lo[live], hi[live])
        assert not fail.any()
        peak[live] = np.maximum(peak[live], np.maximum(-lo[live], hi[live]))
    assert np.all(peak <= 1e-9 * (1 + 1e-3))
    wide = G[j] > 1.01
    assert wide.any() == (name != "lsv06")
    assert np.all(peak[wide] >= 1e-9 * (1 - 1e-3))


def test_growth_bound_raises_no_warning_on_degenerate_derivatives():
    # f' = 0, f' = inf and an overflowing exponent make G inf or nan (the
    # detector then retires nothing there) instead of a RuntimeWarning,
    # which this suite turns into an error
    from eqstate.zooming import _growth

    for dfw in ([2.0, 0.0, 3.0, 1.0], [2.0, np.inf, 3.0, 1.0], [2.0, 1e-300, 1e-300, 1e-300]):
        G = _growth(np.array(dfw))
        assert G[:2].tolist() == [1.0, 1.0] and not np.isfinite(G[3])


def test_zooming_frequency_takes_no_slack(lsv06):
    # the diameter bound's slack is fixed; nan or inf made every time detected
    with pytest.raises(TypeError):
        eq.zooming_frequency(lsv06, 0.377, 50, eq.Contraction.exponential(0.2), 0.1,
                             slack=math.inf)


@pytest.mark.parametrize("name", ["lsv06", "quadratic", "tent", "lsv06_squared"])
def test_pullback_batch_equals_each_element_alone(name):
    # one step on a mixed batch (orbit points, zero, small, ball and wide
    # offsets, ends inside and outside their branch's image) returns, bit
    # for bit, what each element returns when stepped alone
    from eqstate.maps import strict_orbit
    from eqstate.zooming import _hop_table, _point_table, _pullback

    m, x0 = {"lsv06": (eq.lsv(0.6), 0.377), "quadratic": (eq.quadratic(-2.0), 0.3),
             "tent": (eq.tent(1.5), 0.2718),
             "lsv06_squared": (eq.iterate(eq.lsv(0.6), 2), 0.377)}[name]
    pts, bidx, ok = strict_orbit(m, x0, 300)
    M = len(bidx)
    assert ok and M == 300
    P, hops = _point_table(m, pts[:M], bidx), _hop_table(m)
    rng = np.random.Generator(np.random.Philox(11))
    j = rng.integers(0, M, 400)
    size = np.array([0.0, 1e-9, 1e-4, 0.1, 0.3])[rng.integers(0, 5, 400)]
    lo, hi = -size * rng.uniform(0.5, 1.0, 400), size * rng.uniform(0.5, 1.0, 400)
    if not m.space.circle:  # the detector clips its balls to the space: clip half of these
        clip = rng.uniform(0.0, 1.0, 400) < 0.5
        lo = np.where(clip, np.maximum(m.space.lo - pts[j + 1], lo), lo)
        hi = np.where(clip, np.minimum(m.space.hi - pts[j + 1], hi), hi)
    g = P.g[j]
    walked = (P.fw[j] + lo < hops.pad_lo[g]) | (P.fw[j] + hi > hops.pad_hi[g])
    assert walked.any() and (~walked).any() and (size == 0.0).any()
    alone = [_pullback(m, hops, P, j[i:i + 1], lo[i:i + 1], hi[i:i + 1]) for i in range(400)]
    # the whole batch, and its in-range part, which still mixes branches
    for sel in (np.arange(400), np.flatnonzero(~walked)):
        assert len(np.unique(bidx[j[sel]])) > 1
        batch = _pullback(m, hops, P, j[sel], lo[sel], hi[sel])
        for got, want in zip(batch, zip(*alone)):
            assert got.tobytes() == np.concatenate([want[i] for i in sel]).tobytes()
    if not m.space.circle:  # a fold or an interval end: some walks fail
        assert np.concatenate([a[2] for a in alone]).any()
