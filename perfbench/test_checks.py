"""Each output checker of the benchmark passes a correct result and rejects a perturbed one.

    PYTHONPATH=src python -m pytest perfbench/test_checks.py -q
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import eqstate as eq  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer  # noqa: E402

LOG2 = math.log(2.0)


def test_level_counts():
    s = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 30)
    counts = {str(n): c for n, c in eq.level_counts(s).table}
    counts = {k: int(v) for k, v in counts.items()}
    assert ck.level_count_problems(counts, 30) == []
    counts["7"] = 2
    assert ck.level_count_problems(counts, 30)
    del counts["7"]
    assert ck.level_count_problems(counts, 30)


def test_gibbs_root():
    m = eq.lsv(1.5)
    s = eq.first_return_scheme(m, (0.5, 1.0), 30)
    ip = eq.induced_potential(m, s, eq.geometric_potential(0.7))
    g = eq.gibbs_equilibrium(s, ip)
    R = s.return_times()
    assert ck.gibbs_root_problems("root", ip.values, R, g.pressure) == []
    assert ck.gibbs_root_problems("root", ip.values, R, g.pressure + 1e-8)
    vals = ip.values.copy()
    vals[3] += 1e-6
    assert ck.gibbs_root_problems("root", vals, R, g.pressure)


def _curve(horizon=40):
    s = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), horizon)
    grid = [round(0.5 + 0.01 * k, 12) for k in range(101)]
    c = eq.pressure_curve(s, eq.geometric_potential(1.0), grid)
    return (c.t.tolist(), c.values.tolist(), c.errors.tolist(),
            eq.phase_transition_scan(c, 0.05))


def test_curve():
    t, P, err, flags = _curve()
    assert ck.curve_problems(t, P, err, flags) == []
    bumped = list(P)
    bumped[30] += 1e-2  # neither monotone nor convex there
    assert len(ck.curve_problems(t, bumped, err, flags)) == 2
    lifted = [p + (0.1 if ti >= 1.0 else 0.0) for ti, p in zip(t, P)]
    assert ck.curve_problems(t, lifted, err, flags)
    sunk = [p - (1.0 if ti <= 0.6 else 0.0) for ti, p in zip(t, P)]
    assert ck.curve_problems(t, sunk, err, flags)
    assert ck.curve_problems(t, P, err, flags + [0.7])
    assert ck.curve_problems(t, P, err, [])


def test_gurevich():
    assert ck.gurevich_problems([5, 10, 20], [0.1, 0.2, 0.25], 0.3) == []
    assert ck.gurevich_problems([5, 10, 20], [0.1, 0.09, 0.25], 0.3)
    assert ck.gurevich_problems([5, 10, 20], [0.1, 0.2, 0.31], 0.3)


def test_refine():
    s = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 12)
    table = eq.level_counts(s).table
    wc = dict(eq.refine(s, 2).word_counts())
    assert ck.refine_problems(wc, table, 2) == []
    wc[5] += 1
    assert ck.refine_problems(wc, table, 2)


def test_sample():
    s = eq.first_return_scheme(eq.lsv(1.5), (0.5, 1.0), 20)
    counts = eq.level_counts(s)
    mu = eq.mme(counts, eq.pressure_root(counts).h, scheme=s)
    em = eq.sample_original_measure(s, mu, 500, 7)
    assert ck.sample_problems(em.draw_counts, em.weights, 500) == []
    assert ck.sample_problems(em.draw_counts[1:], em.weights, 500)
    assert ck.sample_problems(em.draw_counts, em.weights * 1.01, 500)


def test_zooming_reference():
    alpha, x0, N, rate, delta = 0.6, 0.31, 120, 0.2, 0.1
    rep = eq.zooming_frequency(eq.lsv(alpha), x0, N, eq.Contraction.exponential(rate), delta)
    ref = ck.reference_zooming(alpha, x0, 80, lambda k: math.exp(-rate * k), delta)
    assert ck.zooming_problems("z", list(rep.times), ref, 80) == []
    assert ck.zooming_problems("z", list(rep.times[1:]), ref, 80)
    assert ck.zooming_problems("z", [t + 1 for t in rep.times], ref, 80)


def test_pliss_reference():
    alpha, x0, N, lam = 0.6, 0.31, 2000, 0.1
    m = eq.lsv(alpha)
    times, lyap = ck.reference_pliss(alpha, x0, N, lam)
    assert list(eq.pliss_times(m, x0, N, lam).times) == times
    assert ck.close("lyapunov", eq.lyapunov(m, x0, N), lyap, 1e-9 * lyap) == []
    assert ck.close("lyapunov", eq.lyapunov(m, x0, N) * (1 + 1e-6), lyap, 1e-9 * lyap)


def test_tail_bounds():
    for kind, q, h in (("constant_one", None, LOG2), ("gouezel", 2, ck.gouezel_h(2)),
                       ("two_at_one", None, LOG2)):
        counts = eq.analytic_counts(kind, **({"q": q} if q else {}))
        tail = eq.tail_analysis(counts, h)
        assert ck.tail_problems(kind, tail.bound, kind, q, h) == []
        true = lambda n: float(ck.mp_tail_sum(kind, q, h, n))
        assert ck.tail_problems(kind, lambda n: 0.99 * true(n), kind, q, h)


def test_series_chain():
    ops = wl.series_oracles_ops({"tols": (1e-12,), "gammas": [0.3], "qs": (1,)}, None)
    res = ops[2].fn(NullTracer(), {})[1][0]
    h = ck.gouezel_h(1)
    assert wl._chain_problems("g", res, h) == []
    for key, bad in (("h", h + 1e-9), ("H", h - 1e-9), ("budget", res["delta"]),
                     ("fat", [(1.001, 2.0, 1.0)]), ("fat", [(1.0, 2.0, h + 1e-6)])):
        assert wl._chain_problems("g", {**res, key: bad}, h), key


def test_rerun_identity():
    rounds = [{"a": [1, 2]}, {"a": [1, 2]}]
    assert wl._same_across_rounds(rounds, "a") == []
    rounds.append({"a": [1, 3]})
    assert wl._same_across_rounds(rounds, "a")
