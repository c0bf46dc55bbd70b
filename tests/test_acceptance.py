"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line (visible with -s / in verbose runs); the
stated runtime budgets are asserted with time guards.
"""

import json
import math
import time
from collections import Counter

import numpy as np

import eqstate as eq
from eqstate.cli import dispatch

LOG2 = math.log(2.0)


def _ok(msg):
    print(f"ACCEPTANCE PASS: {msg}")


# -- 1 ----------------------------------------------------------------------

def test_c01_pressure_equation_closed_forms():
    cases = [(eq.analytic_counts("two_at_one"), LOG2, "{1:2}"),
             (eq.analytic_counts("constant_one"), LOG2, "constant_one")]
    for q in (1, 2, 3):
        cases.append((eq.analytic_counts("gouezel", q=q),
                      math.log(4 * (4 ** q + 1)), f"gouezel({q})"))
    for counts, target, label in cases:
        t0 = time.perf_counter()
        rep = eq.pressure_root(counts, 1e-10)
        dt = time.perf_counter() - t0
        assert abs(rep.h - target) <= 1e-10, label
        assert dt < 1.0, f"{label} took {dt:.3f}s"
    _ok("1. pressure closed forms within 1e-10, each under 1s")


# -- 2 ----------------------------------------------------------------------

def test_c02_lsv_inducing_oracle():
    t0 = time.perf_counter()
    for alpha in (0.6, 1.5):
        m = eq.lsv(alpha)
        s = eq.first_return_scheme(m, (0.5, 1.0), 20)
        ctr = Counter(b.return_time for b in s.branches)
        assert ctr == {n: 1 for n in range(1, 21)}, f"alpha={alpha}"
        rep = eq.pressure_root(eq.level_counts(s), 1e-12)
        assert abs(rep.h - LOG2) <= 1e-6, f"alpha={alpha}: h={rep.h}"
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"took {dt:.2f}s"
    _ok("2. LSV first-return schemes: one branch per level, h = log 2 within 1e-6")


# -- 3 ----------------------------------------------------------------------

def test_c03_mme_identity(doubling_scheme, lsv06_scheme, lsv15_scheme):
    tol = 1e-12
    fixtures = [eq.analytic_counts("two_at_one"),
                eq.analytic_counts("constant_one"),
                eq.analytic_counts("gouezel", q=1),
                eq.analytic_counts("gouezel", q=2),
                eq.analytic_counts("gouezel", q=3),
                eq.analytic_counts("user_table", table={1: 1, 2: 3, 5: 4}),
                eq.level_counts(doubling_scheme),
                eq.level_counts(lsv06_scheme),
                eq.level_counts(lsv15_scheme)]
    for counts in fixtures:
        rep = eq.pressure_root(counts, tol)
        dist = eq.mme(counts, rep.h)
        assert abs(eq.normalized_entropy(dist) - rep.h) <= 10 * tol, counts.kind
    _ok("3. normalized_entropy(mme) = pressure root within 10x tolerance")


# -- 4 ----------------------------------------------------------------------

def test_c04_gibbs_reduction(doubling_map, doubling_scheme, lsv06_scheme):
    # zero potential reproduces (pressure_root, mme) exactly
    for s in (doubling_scheme, lsv06_scheme):
        counts = eq.level_counts(s)
        rep = eq.pressure_root(counts, 1e-12)
        dist = eq.mme(counts, rep.h, scheme=s)
        ip0 = eq.induced_potential(s.map, s, eq.constant_potential(0.0))
        g0 = eq.gibbs_equilibrium(s, ip0, 1e-12)
        assert g0.pressure == rep.h
        assert np.array_equal(g0.mass.branch_weights, dist.branch_weights)
    # branch-constant potential on the doubling scheme
    phi = eq.callable_potential(lambda x: 0.2 if x < 0.5 else -0.1)
    ip = eq.induced_potential(doubling_map, doubling_scheme, phi)
    g = eq.gibbs_equilibrium(doubling_scheme, ip, 1e-12)
    exact = math.log(math.exp(0.2) + math.exp(-0.1))
    assert abs(g.pressure - exact) <= 1e-10
    w = g.mass.branch_weights
    assert abs(w[0] / w[1] - math.exp(0.3)) <= 1e-10
    # brute force: no Bernoulli(q) beats h + int(phi) on a 1e4-point grid
    qs = np.linspace(1e-9, 1 - 1e-9, 10_000)
    vals = (-qs * np.log(qs) - (1 - qs) * np.log(1 - qs)) + qs * 0.2 + (1 - qs) * (-0.1)
    assert np.max(vals) <= g.pressure + 1e-9
    _ok("4. Gibbs reduction exact; two-symbol closed form within 1e-10; "
        "Bernoulli brute force never beats the root by more than 1e-9")


# -- 5 ----------------------------------------------------------------------

def test_c05_pressure_curve_exactness(doubling_scheme):
    grid = [round(-1.0 + 0.1 * k, 10) for k in range(31)]
    curve = eq.pressure_curve(doubling_scheme, eq.geometric_potential(1.0), grid, 1e-12)
    worst = max(abs(v - (1 - t) * LOG2) for t, v in zip(curve.t, curve.values))
    assert worst <= 1e-9
    assert np.min(curve.convexity_defects()) >= -1e-9
    _ok(f"5. doubling geometric curve = (1-t)log2 within {worst:.2e}; convex")


# -- 6 ----------------------------------------------------------------------

def test_c06_phase_transition(lsv15_scheme):
    t0 = time.perf_counter()
    grid = [round(0.5 + 0.01 * k, 10) for k in range(101)]
    curve = eq.pressure_curve(lsv15_scheme, eq.geometric_potential(1.0), grid, 1e-12)
    for t, v in zip(curve.t, curve.values):
        if t >= 1.0 - 1e-12:
            assert abs(v) <= 1e-6, f"P({t}) = {v}"
        if t <= 0.95 + 1e-12:
            assert v > 0.0, f"P({t}) = {v}"
    flags = eq.phase_transition_scan(curve, 0.05)
    assert flags, "no kink flagged"
    assert all(abs(f - 1.0) <= 0.05 for f in flags), flags
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    _ok(f"6. LSV(1.5) curve: 0 for t>=1, positive for t<=0.95, kink at {flags}")


# -- 7 ----------------------------------------------------------------------

def test_c07_tails():
    granted = [eq.analytic_counts("constant_one"),
               eq.analytic_counts("gouezel", q=1),
               eq.analytic_counts("gouezel", q=2)]
    for counts in granted:
        h = eq.pressure_root(counts, 1e-12).h
        rep = eq.tail_analysis(counts, h)
        assert rep.certificate, counts.kind
        for n in (5, 10, 20):
            true = sum(k * math.exp(counts.log_count(k) - h * k)
                       for k in range(n + 1, 700))
            assert true <= rep.bound(n), (counts.kind, n)
    # boundary fixture: counts 2^n known only at its horizon; rate = log 2 = h
    denied = eq.analytic_counts("user_table", table={1: 2}, complete=False)
    assert not eq.tail_analysis(denied, LOG2).certificate
    _ok("7. exponential-tail certificates granted/denied correctly; "
        "bounds dominate true tails at n in {5,10,20}")


# -- 8 ----------------------------------------------------------------------

def _bump(x):
    u = (x - 0.75) / 0.125
    return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


def test_c08_kac_abramov_consistency(doubling_scheme, lsv06_scheme):
    potentials = [eq.constant_potential(0.7),
                  eq.geometric_potential(1.0),
                  eq.callable_potential(_bump)]
    seeds = [101, 202, 303]
    for s in (doubling_scheme, lsv06_scheme):
        counts = eq.level_counts(s)
        rep = eq.pressure_root(counts, 1e-12)
        dist = eq.mme(counts, rep.h, scheme=s)
        R = s.return_times().astype(float)
        for phi, seed in zip(potentials, seeds):
            ip = eq.induced_potential(s.map, s, phi)
            exact = eq.project_integral(dist, ip)
            emp = eq.sample_original_measure(s, dist, 100_000, seed=seed)
            birkhoff = float(emp.integrate(lambda x: phi.value(s.map, x)))
            # ratio-estimator standard error from the draw counts
            c = emp.draw_counts.astype(float)
            den = float(np.dot(c, R))
            est = float(np.dot(c, ip.values)) / den
            se = math.sqrt(float(np.dot(c, (ip.values - est * R) ** 2))) / den
            assert abs(birkhoff - est) <= 1e-9  # same marker data
            assert abs(exact - birkhoff) <= 4.0 * se + 1e-12, (
                s.map.name, phi.describe(), exact, birkhoff, se)
    _ok("8. projected integrals match sampled Birkhoff averages within 4 SE "
        "(3 potentials x 2 schemes, 1e5 samples, fixed seeds)")


# -- 9 ----------------------------------------------------------------------

def test_c09_fat_perturbation():
    counts = eq.analytic_counts("constant_one")
    rep = eq.pressure_root(counts, 1e-12)
    dist = eq.mme(counts, rep.h)
    H0 = eq.bernoulli_entropy(dist)
    M0 = eq.mean_return(dist)
    for gamma in (0.1, 0.5):
        out = eq.fat_perturbation(dist, counts, gamma)
        assert all(out.level_weight(n) > 0 for n in range(1, 60))
        assert eq.bernoulli_entropy(out) >= (1 - gamma) * H0 - 1e-12
        assert eq.mean_return(out) <= (1 - gamma) * M0 + 2 * gamma + 1e-12
    _ok("9. fat perturbation: positive weights, entropy and mean-return "
        "bounds within 1e-12 for gamma in {0.1, 0.5}")


# -- 10 ---------------------------------------------------------------------

def test_c10_appendix_oracles():
    from eqstate.analysis import run_verification
    t0 = time.perf_counter()
    rep = run_verification(n_pairs=100_000, n_prop=1_000, n_entropy=10_000,
                           max_len=10_000, seed=20240501)
    dt = time.perf_counter() - t0
    assert rep["violations"] == []
    assert rep["log_sum_min_slack"] >= -1e-12
    assert rep["equality_errors"] == 0
    assert rep["entropy_ratio_failures"] == 0
    ratios = [v for _, v in rep["ratio_decay"]]
    assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.2
    assert dt < 60.0, f"took {dt:.1f}s"
    _ok(f"10. appendix oracles on 1e5 pairs / 1e4 sequences in {dt:.1f}s; "
        "decay table decreasing, < 0.2 at r=100")


# -- 11 ---------------------------------------------------------------------

def test_c11_zooming(doubling_map, tent_map, lsv06):
    # binary maps collapse to the fixed point after ~52 float doublings, so
    # 'every n' is asserted over N=50 (the maximal float-representable run)
    lam = LOG2 - 1e-9
    for m, x in ((doubling_map, 0.3141), (tent_map, 0.2718)):
        rep = eq.pliss_times(m, x, 50, lam)
        assert rep.frequency == 1.0, m.name
        assert rep.times == tuple(range(1, 51))
    rng = np.random.Generator(np.random.Philox(20240501))
    x0 = float(rng.uniform(0.0, 1.0))
    c = eq.Contraction.exponential(0.2)
    rep1 = eq.zooming_frequency(lsv06, x0, 10_000, c, 0.1)
    assert rep1.frequency > 0.05, rep1.frequency
    rep2 = eq.zooming_frequency(lsv06, x0, 10_000, c, 0.1)
    assert rep1.times == rep2.times and rep1.frequency == rep2.frequency
    _ok(f"11. doubling/tent Pliss-complete at log2 - 1e-9; LSV zooming "
        f"frequency {rep1.frequency:.3f} > 0.05, seed-deterministic")


# -- 12 ---------------------------------------------------------------------

def test_c12_determinism(tmp_path, capsys):
    scheme = tmp_path / "s15.json"
    assert dispatch(["scheme", "build", "--map", "lsv", "--alpha", "1.5",
                     "--base", "0.5,1", "--nmax", "40", "--out", str(scheme)]) == 0
    capsys.readouterr()
    bodies = {}
    for name, argv in {
        "curve": ["analysis", "pressure-curve", "--scheme", str(scheme),
                  "--potential", "geometric:t=1", "--t", "0.5:1.5:0.01",
                  "--tol", "1e-12"],
        "mme": ["thermo", "mme", "--counts", "gouezel", "--q", "1",
                "--tol", "1e-10"],
    }.items():
        outs = []
        for k in (1, 2):
            p = tmp_path / f"{name}{k}.csv"
            flag = "--out" if name == "curve" else "--csv"
            assert dispatch(argv + [flag, str(p)]) == 0
            capsys.readouterr()
            outs.append(p.read_bytes())
        assert outs[0] == outs[1], f"{name} CSV bodies differ between reruns"
        bodies[name] = outs[0]
    # JSON result sections are rerun-identical too (manifest walltime aside)
    docs = []
    for k in (1, 2):
        p = tmp_path / f"z{k}.json"
        assert dispatch(["zooming", "frequency", "--map", "lsv", "--alpha", "0.6",
                         "--x", "0.377", "--N", "2000", "--lambda", "0.2",
                         "--delta", "0.1", "--out", str(p)]) == 0
        capsys.readouterr()
        docs.append(json.loads(p.read_text())["result"])
    assert docs[0] == docs[1]
    _ok("12. reruns with identical manifests produce byte-identical CSV bodies")
