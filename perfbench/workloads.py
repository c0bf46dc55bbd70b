"""The three workloads: their operations, and the checks of their outputs.

Each workload lists the operations of one round.  An operation is one
timed unit: either one in-process CLI invocation through
`eqstate.cli.dispatch` (kind "cli") or a group of direct library calls
(kind "lib").  Operations receive the tracer, which wraps each call into a
layer in a span named after the layer and the call, and a per-round state
dict that carries objects from one operation to the next.

`check` receives the results of every round and returns the problems
found; an operation that raised is missing from its round's results.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import eqstate as eq
from eqstate.analysis import run_verification
from eqstate.cli import dispatch
from eqstate.maps import strict_orbit

import checks as ck

LOG2 = math.log(2.0)


class CliFailure(Exception):
    pass


def cli(argv):
    """Run one CLI command in-process; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(argv)
    if rc != 0:
        raise CliFailure(f"eqstate {' '.join(argv[:2])} exited {rc}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


class Op:
    """One timed operation of a round.

    `expected` names the one exception class this operation is known to
    raise today (counted as failed, not as a wrong result); `equivalent`
    runs the library calls a CLI operation makes, to time the CLI's own
    share in traced runs.
    """

    def __init__(self, name, kind, fn, expected=None, equivalent=None):
        self.name, self.kind, self.fn = name, kind, fn
        self.expected, self.equivalent = expected, equivalent


def _missing(rounds, names):
    out = []
    for i, r in enumerate(rounds):
        for n in names:
            if n not in r:
                out.append(f"round {i}: {n} gave no result")
    return out


def _same_across_rounds(rounds, name, key=lambda v: v):
    base = key(rounds[0][name])
    for r in rounds[1:]:
        if key(r[name]) != base:
            return [f"{name}: output differs between reruns"]
    return []


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v))
    return cols


# ---------------------------------------------------------------------------
# lsv_transition: the paper's phase-transition example, lsv(1.5) over (1/2, 1)


def lsv_transition_ops(inp, tmp):
    m, base, H = inp["map"], inp["base"], inp["horizon"]
    grid = inp["grid"]
    S = os.path.join(tmp, "lsv200.json")
    L = os.path.join(tmp, "lsv200_lib.json")
    mme_out = os.path.join(tmp, "mme.json")
    eq_out = os.path.join(tmp, "equilibrium.json")
    eq_csv = os.path.join(tmp, "equilibrium.csv")
    curve_csv = os.path.join(tmp, "curve.csv")
    map_args = ["--map", "lsv", "--alpha", repr(inp["alpha"])]
    base_arg = f"{base[0]!r},{base[1]!r}"

    def cli_scheme_build(tr, st):
        with tr.span("cli.scheme_build"):
            text = cli(["scheme", "build", *map_args, "--base", base_arg,
                        "--nmax", str(H), "--out", S])
        return json.loads(text)["result"]

    def cli_thermo_pressure(tr, st):
        with tr.span("cli.thermo"):
            text = cli(["thermo", "pressure", "--scheme", S])
        return json.loads(text)["result"]

    def cli_thermo_mme(tr, st):
        with tr.span("cli.thermo"):
            cli(["thermo", "mme", "--scheme", S, "--out", mme_out])
        return json.loads(_read(mme_out))["result"]

    def cli_thermo_equilibrium(tr, st):
        with tr.span("cli.thermo"):
            cli(["thermo", "equilibrium", "--scheme", S, "--potential", "geometric:t=0.8",
                 "--out", eq_out, "--csv", eq_csv])
        return {"json": json.loads(_read(eq_out))["result"], "csv": _read(eq_csv)}

    def cli_pressure_curve(tr, st):
        with tr.span("cli.pressure_curve"):
            cli(["analysis", "pressure-curve", "--scheme", S, "--potential", "geometric",
                 "--t", inp["grid_spec"], "--out", curve_csv])
        return _read(curve_csv)

    def lib_scheme(tr, st):
        with tr.span("inducing.first_return_scheme"):
            s = eq.first_return_scheme(m, base, H)
        tr.count("inducing.scheme_branches", len(s.branches))
        with tr.span("inducing.save_load_scheme"):
            eq.save_scheme(s, L)
            s2 = eq.load_scheme(L)
        st["s"] = s
        return {"branches": len(s.branches), "roundtrip": s2.branches == s.branches}

    def lib_pressure(tr, st):
        s = st["s"]
        with tr.span("thermo.pressure_root"):
            counts = eq.level_counts(s)
            rep = eq.pressure_root(counts)
            mu = eq.mme(counts, rep.h, scheme=s)
        with tr.span("thermo.induced_potential"):
            ip0 = eq.induced_potential(m, s, eq.constant_potential(0.0))
        with tr.span("thermo.gibbs_equilibrium"):
            g0 = eq.gibbs_equilibrium(s, ip0)
        st["mu"] = mu
        return {"h": rep.h, "p0": g0.pressure, "w_mme": mu.branch_weights,
                "w_gibbs": g0.mass.branch_weights, "table": counts.table}

    def lib_gibbs(tr, st):
        s = st["s"]
        points = []
        for t in inp["t_samples"]:
            with tr.span("thermo.induced_potential"):
                ip = eq.induced_potential(m, s, eq.geometric_potential(t))
            with tr.span("thermo.gibbs_equilibrium"):
                g = eq.gibbs_equilibrium(s, ip)
            points.append((t, ip.values, g.pressure))
            st.setdefault("ip_first", (ip, g.pressure))
        return {"points": points, "R": s.return_times()}

    def lib_gurevich(tr, st):
        ip, p = st["ip_first"]
        with tr.span("thermo.truncated_gurevich"):
            vals = [eq.truncated_gurevich(st["s"], ip, n) for n in inp["gurevich_ns"]]
        return {"values": vals, "full": p}

    def lib_sample(tr, st):
        with tr.span("thermo.sample_original_measure"):
            em = eq.sample_original_measure(st["s"], st["mu"], inp["n_samples"], inp["sample_seed"])
        return {"draws": em.draw_counts.tolist(), "wsum": float(np.sum(em.weights))}

    def lib_refine(tr, st):
        with tr.span("inducing.refine"):
            wc = eq.refine(st["s"], inp["refine_order"]).word_counts()
        return dict(wc)

    def lib_curve(tr, st):
        with tr.span("analysis.pressure_curve"):
            curve = eq.pressure_curve(st["s"], eq.geometric_potential(1.0), grid)
            flags = eq.phase_transition_scan(curve, 0.05)
        tr.count("analysis.curve_points", len(curve.t))
        return {"t": curve.t.tolist(), "P": curve.values.tolist(),
                "err": curve.errors.tolist(), "flags": flags}

    def lib_negative(tr, st):
        # lsv(1.5) at horizon 40 with constant potential -2: the root is
        # -2 + log 2, below the series' growth rate 0
        with tr.span("inducing.first_return_scheme"):
            s40 = eq.first_return_scheme(m, base, inp["short_horizon"])
        with tr.span("thermo.induced_potential"):
            ip = eq.induced_potential(m, s40, eq.constant_potential(-2.0))
        with tr.span("thermo.gibbs_equilibrium"):
            g = eq.gibbs_equilibrium(s40, ip)
        return {"p": g.pressure, "err": g.truncation_error}

    def eq_scheme_build():
        eq.save_scheme(eq.first_return_scheme(m, base, H), L)

    def eq_thermo_pressure():
        eq.pressure_root(eq.level_counts(eq.load_scheme(S)))

    def eq_thermo_mme():
        s = eq.load_scheme(S)
        counts = eq.level_counts(s)
        eq.mme(counts, eq.pressure_root(counts).h, scheme=s)

    def eq_thermo_equilibrium():
        s = eq.load_scheme(S)
        eq.level_counts(s)
        eq.gibbs_equilibrium(s, eq.induced_potential(s.map, s, eq.geometric_potential(0.8)))

    def eq_pressure_curve():
        s = eq.load_scheme(S)
        eq.pressure_curve(s, eq.geometric_potential(1.0), grid)

    return [
        Op("cli.scheme_build", "cli", cli_scheme_build, equivalent=eq_scheme_build),
        Op("cli.thermo_pressure", "cli", cli_thermo_pressure, equivalent=eq_thermo_pressure),
        Op("cli.thermo_mme", "cli", cli_thermo_mme, equivalent=eq_thermo_mme),
        Op("cli.thermo_equilibrium", "cli", cli_thermo_equilibrium, equivalent=eq_thermo_equilibrium),
        Op("cli.pressure_curve", "cli", cli_pressure_curve, equivalent=eq_pressure_curve),
        Op("lib.scheme", "lib", lib_scheme),
        Op("lib.pressure_root", "lib", lib_pressure),
        Op("lib.gibbs_sampled", "lib", lib_gibbs),
        Op("lib.truncated_gurevich", "lib", lib_gurevich),
        Op("lib.sample_original_measure", "lib", lib_sample),
        Op("lib.refine", "lib", lib_refine),
        Op("lib.pressure_curve", "lib", lib_curve),
        Op("lib.gibbs_negative_pressure", "lib", lib_negative, expected=eq.NoRoot),
    ]


def lsv_transition_check(inp, rounds):
    H = inp["horizon"]
    names = ["cli.scheme_build", "cli.thermo_pressure", "cli.thermo_mme",
             "cli.thermo_equilibrium", "cli.pressure_curve", "lib.scheme",
             "lib.pressure_root", "lib.gibbs_sampled", "lib.truncated_gurevich",
             "lib.sample_original_measure", "lib.refine", "lib.pressure_curve"]
    P = _missing(rounds, names)
    if P:
        return P
    for r in rounds:
        sb = r["cli.scheme_build"]
        P += ck.level_count_problems(sb["counts"], H)
        if sb["branches"] != H or sb["complete_up_to"] != H:
            P.append(f"scheme build: {sb['branches']} branches, complete up to {sb['complete_up_to']}")
        if not r["lib.scheme"]["roundtrip"]:
            P.append("save_scheme/load_scheme does not round-trip the branches")
        h_cli = r["cli.thermo_pressure"]["h"]
        P += ck.close("h at horizon 200 (CLI)", h_cli, LOG2, 1e-6)
        lp = r["lib.pressure_root"]
        P += ck.close("h at horizon 200 (library)", lp["h"], LOG2, 1e-6)
        if lp["p0"] != lp["h"] or not np.array_equal(lp["w_mme"], lp["w_gibbs"]):
            P.append("gibbs_equilibrium at zero potential is not pressure_root/mme bit for bit")
        if h_cli != lp["h"] or r["cli.thermo_mme"]["h"] != lp["h"]:
            P.append("CLI and library pressure roots differ on the same scheme")
        if r["cli.thermo_mme"]["weights"] != lp["w_mme"].tolist():
            P.append("CLI mme weights differ from the library's")
        lc = r["lib.pressure_curve"]
        P += ck.curve_problems(lc["t"], lc["P"], lc["err"], lc["flags"])
        cc = _parse_csv(r["cli.pressure_curve"])
        if cc["t"] != lc["t"] or cc["P"] != lc["P"] or cc["err"] != lc["err"]:
            P.append("CLI curve CSV differs from the library curve")
        gv = r["lib.truncated_gurevich"]
        P += ck.gurevich_problems(inp["gurevich_ns"], gv["values"], gv["full"])
        P += ck.refine_problems(r["lib.refine"], lp["table"], inp["refine_order"])
        sm = r["lib.sample_original_measure"]
        P += ck.sample_problems(sm["draws"], [sm["wsum"]], inp["n_samples"])
        neg = r.get("lib.gibbs_negative_pressure")
        if neg is not None:
            P += ck.close("Gibbs root for constant potential -2 (horizon 40)",
                          neg["p"], -2.0 + LOG2, neg["err"] + 1e-9)
    P += _same_across_rounds(rounds, "cli.pressure_curve")
    P += _same_across_rounds(rounds, "cli.scheme_build")
    P += _same_across_rounds(rounds, "cli.thermo_equilibrium", lambda v: v["csv"])
    P += _same_across_rounds(rounds, "lib.pressure_curve", lambda v: v["P"])
    P += _same_across_rounds(rounds, "lib.sample_original_measure", lambda v: v["draws"])
    # 50-digit roots from the induced values, once per run
    gs = rounds[0]["lib.gibbs_sampled"]
    for t, vals, p in gs["points"]:
        P += ck.gibbs_root_problems(f"Gibbs root at t={t}", vals, gs["R"], p)
    eqr = rounds[0]["cli.thermo_equilibrium"]
    cols = _parse_csv(eqr["csv"])
    P += ck.gibbs_root_problems("CLI equilibrium root at t=0.8", cols["phibar"],
                                cols["R"], eqr["json"]["pressure"])
    return P


# ---------------------------------------------------------------------------
# zooming_orbit: lsv(0.6) orbits through the zooming and Pliss detectors


def zooming_orbit_ops(inp, tmp):
    m, alpha = inp["map"], inp["alpha"]
    x0, x1 = inp["x"]
    N, rate, delta = inp["N"], inp["rate"], inp["delta"]
    Z = os.path.join(tmp, "zooming.json")

    def lib_orbit(tr, st):
        with tr.span("maps.strict_orbit"):
            pts, bidx, ok = strict_orbit(m, x0, inp["N_long"])
        return {"n": len(bidx), "ok": ok, "last": float(pts[-1])}

    def lib_iterate(tr, st):
        with tr.span("maps.iterate"):
            m2 = eq.iterate(m, 2)
        with tr.span("maps.strict_orbit"):
            pts, _, ok = strict_orbit(m2, x1, inp["N_iterate"])
        with tr.span("zooming.lyapunov"):
            lyap = eq.lyapunov(m2, x1, inp["N_iterate"])
        return {"pts": pts.tolist(), "ok": ok, "lyap": lyap}

    def zoom(tr, x, n, c):
        with tr.span("zooming.zooming_frequency"):
            rep = eq.zooming_frequency(m, x, n, c, delta)
        tr.count("zooming.candidates", rep.n_effective)
        tr.count("zooming.detected_times", len(rep.times))
        return {"times": rep.times, "frequency": rep.frequency,
                "n_effective": rep.n_effective, "truncated": rep.truncated}

    def lib_c11(tr, st):
        return zoom(tr, inp["x_c11"], N, eq.Contraction.exponential(rate))

    def lib_sqrt(tr, st):
        return zoom(tr, x1, inp["N_short"], eq.Contraction.sqrt_exponential(inp["sqrt_rate"]))

    def lib_pliss(tr, st):
        with tr.span("zooming.pliss_times"):
            rep = eq.pliss_times(m, x0, inp["N_long"], inp["pliss_lambda"])
        return {"times": rep.times}

    def lib_lyapunov(tr, st):
        with tr.span("zooming.lyapunov"):
            return eq.lyapunov(m, x0, inp["N_long"])

    def cli_zooming(tr, st):
        # the c11 start point at a shorter horizon: the same orbit prefix
        with tr.span("cli.zooming_frequency"):
            cli(["zooming", "frequency", "--map", "lsv", "--alpha", repr(alpha),
                 "--x", repr(inp["x_c11"]), "--N", str(inp["N_cli"]), "--lambda", repr(rate),
                 "--delta", repr(delta), "--out", Z])
        return json.loads(_read(Z))["result"]

    def eq_zooming():
        eq.zooming_frequency(m, inp["x_c11"], inp["N_cli"], eq.Contraction.exponential(rate), delta)

    return [
        Op("lib.strict_orbit", "lib", lib_orbit),
        Op("lib.iterate", "lib", lib_iterate),
        Op("lib.zooming_c11", "lib", lib_c11),
        Op("lib.zooming_sqrt", "lib", lib_sqrt),
        Op("lib.pliss_times", "lib", lib_pliss),
        Op("lib.lyapunov", "lib", lib_lyapunov),
        Op("cli.zooming_frequency", "cli", cli_zooming, equivalent=eq_zooming),
    ]


def zooming_orbit_check(inp, rounds):
    names = ["lib.strict_orbit", "lib.iterate", "lib.zooming_c11", "lib.zooming_sqrt",
             "lib.pliss_times", "lib.lyapunov", "cli.zooming_frequency"]
    P = _missing(rounds, names)
    if P:
        return P
    alpha, (x0, x1) = inp["alpha"], inp["x"]
    N, rate, delta, prefix = inp["N"], inp["rate"], inp["delta"], inp["prefix"]
    for r in rounds:
        c11 = r["lib.zooming_c11"]
        if not c11["frequency"] > 0.05:
            P.append(f"c11 zooming frequency {c11['frequency']} is not above 0.05")
        if c11["n_effective"] != N or c11["truncated"] or not r["lib.strict_orbit"]["ok"]:
            P.append("orbit truncated before N")
    for name in names:
        P += _same_across_rounds(rounds, name)
    r = rounds[0]
    expo = lambda k: math.exp(-rate * k)
    sqrt = lambda k: math.exp(-inp["sqrt_rate"] * math.sqrt(k))
    for name, x, factor, times in (
            ("zooming c11", inp["x_c11"], expo, r["lib.zooming_c11"]["times"]),
            ("zooming sqrt-exponential", x1, sqrt, r["lib.zooming_sqrt"]["times"])):
        ref = ck.reference_zooming(alpha, x, prefix, factor, delta)
        P += ck.zooming_problems(name, list(times), ref, prefix)
    short = [t for t in r["lib.zooming_c11"]["times"] if t <= inp["N_cli"]]
    if list(r["cli.zooming_frequency"]["times"]) != short:
        P.append("CLI zooming times differ from the library's on the same orbit prefix")
    ref_times, ref_lyap = ck.reference_pliss(alpha, x0, inp["N_long"], inp["pliss_lambda"])
    if list(r["lib.pliss_times"]["times"]) != ref_times:
        P.append("pliss_times differ from the scalar reference")
    P += ck.close("lyapunov", r["lib.lyapunov"], ref_lyap, 1e-9 * abs(ref_lyap))
    # f^2 orbit is every other point of the f orbit; its exponent doubles
    it = r["lib.iterate"]
    orb = ck.lsv_orbit(alpha, x1, 2 * inp["N_iterate"])
    if not it["ok"] or it["pts"] != orb[::2]:
        P.append("orbit of iterate(m, 2) is not every other point of the orbit of m")
    _, lyap1 = ck.reference_pliss(alpha, x1, 2 * inp["N_iterate"], 0.0)
    P += ck.close("lyapunov of iterate(m, 2)", it["lyap"], 2.0 * lyap1, 1e-9 * abs(lyap1))
    return P


# ---------------------------------------------------------------------------
# series_oracles: closed-form level counts through the series, and the oracles


def series_oracles_ops(inp, tmp):
    tols, gammas = inp["tols"], inp["gammas"]

    def chain(tr, counts, tol):
        with tr.span("thermo.closed_form_series"):
            rep = eq.pressure_root(counts, tol)
            mu = eq.mme(counts, rep.h)
            H = eq.normalized_entropy(mu)
            d = eq.delta_F(counts, rep.h)
            tail = eq.tail_analysis(counts, rep.h)
            fat = []
            for g in gammas:
                fp = eq.fat_perturbation(mu, counts, g)
                fat.append((eq.total_mass(fp), eq.mean_return(fp), eq.normalized_entropy(fp)))
        with tr.span("analysis.oscillation_budget"):
            ob = eq.oscillation_budget(counts, rep.h)
        return {"h": rep.h, "delta_f": rep.delta_f, "H": H, "delta": d,
                "budget": ob.value, "tail": tail, "fat": fat}

    def series(kind, **kw):
        counts = eq.analytic_counts(kind, **kw)
        return lambda tr, st: [chain(tr, counts, tol) for tol in tols]

    def lib_gouezel(tr, st):
        return {q: [chain(tr, eq.analytic_counts("gouezel", q=q), tol) for tol in tols]
                for q in inp["qs"]}

    def csv_path(q):
        return os.path.join(tmp, f"gouezel{q}.csv")

    def cli_mme(tr, st):
        out = {}
        for q in inp["cli_qs"]:
            with tr.span("cli.thermo"):
                text = cli(["thermo", "mme", "--counts", "gouezel", "--q", str(q),
                            "--csv", csv_path(q)])
            out[q] = {"json": json.loads(text)["result"], "csv": _read(csv_path(q))}
        return out

    def lib_verify(tr, st):
        with tr.span("analysis.run_verification"):
            rep = run_verification(seed=inp["verify_seed"], **inp["verify_sizes"])
        tr.count("analysis.oracle_checks", rep["log_sum_pairs"] + rep["proportional_pairs"]
                 + rep["entropy_ratio_sequences"])
        return rep

    def cli_verify(tr, st):
        with tr.span("cli.verify"):
            text = cli(["analysis", "verify", "--quick", "--seed", str(inp["cli_verify_seed"])])
        return json.loads(text)["result"]

    def lib_ce(tr, st):
        out = []
        for c in inp["ce_c"]:
            with tr.span("analysis.collet_eckmann"):
                out.append(eq.collet_eckmann_diagnostic(c, inp["ce_N"]).liminf_estimate)
        return out

    def eq_mme():
        for q in inp["cli_qs"]:
            counts = eq.analytic_counts("gouezel", q=q)
            eq.mme(counts, eq.pressure_root(counts).h)

    def eq_verify():
        run_verification(seed=inp["cli_verify_seed"], quick=True)

    return [
        Op("lib.series_constant_one", "lib", series("constant_one")),
        Op("lib.series_two_at_one", "lib", series("two_at_one")),
        Op("lib.series_gouezel", "lib", lib_gouezel),
        Op("cli.thermo_mme_gouezel", "cli", cli_mme, equivalent=eq_mme),
        Op("lib.run_verification", "lib", lib_verify),
        Op("cli.verify", "cli", cli_verify, equivalent=eq_verify),
        Op("lib.collet_eckmann", "lib", lib_ce),
    ]


def _chain_problems(name, res, h_true):
    P = ck.close(f"{name}: h", res["h"], h_true, 1e-10)
    P += ck.close(f"{name}: entropy of the mme", res["H"], h_true, 1e-10)
    if not (res["delta"] == res["delta_f"] or math.isnan(res["delta_f"])):
        P.append(f"{name}: delta_F disagrees with the pressure report")
    if res["budget"] != 0.5 * res["delta"]:
        P.append(f"{name}: oscillation budget is not delta(F)/2")
    for total, mean, H in res["fat"]:
        P += ck.close(f"{name}: fat-perturbed mass", total, 1.0, 1e-9)
        if not (mean >= 1.0 and 0.0 < H <= h_true + 1e-10):
            P.append(f"{name}: fat-perturbed mean return {mean!r} or entropy {H!r}")
    return P


def series_oracles_check(inp, rounds):
    names = ["lib.series_constant_one", "lib.series_two_at_one", "lib.series_gouezel",
             "cli.thermo_mme_gouezel", "lib.run_verification", "cli.verify",
             "lib.collet_eckmann"]
    P = _missing(rounds, names)
    if P:
        return P
    for r in rounds:
        for tol, res in zip(inp["tols"], r["lib.series_constant_one"]):
            P += _chain_problems(f"constant_one tol={tol:g}", res, LOG2)
            P += ck.close("delta(F) for constant_one", res["delta"], LOG2, 1e-10)
        for tol, res in zip(inp["tols"], r["lib.series_two_at_one"]):
            P += _chain_problems(f"two_at_one tol={tol:g}", res, LOG2)
        for q, per_tol in r["lib.series_gouezel"].items():
            for tol, res in zip(inp["tols"], per_tol):
                P += _chain_problems(f"gouezel q={q} tol={tol:g}", res, ck.gouezel_h(q))
                if not 0.0 < res["delta"] < res["h"]:
                    P.append(f"gouezel q={q}: delta(F) {res['delta']} outside (0, h)")
        for q, out in r["cli.thermo_mme_gouezel"].items():
            P += ck.close(f"CLI mme h for gouezel q={q}", out["json"]["h"], ck.gouezel_h(q), 1e-10)
            mass = sum(_parse_csv(out["csv"])["level_mass"])
            P += ck.close(f"CLI mme level masses for gouezel q={q}", mass, 1.0, 1e-9)
            if r["lib.series_gouezel"][q][-1]["h"] != out["json"]["h"]:
                P.append(f"CLI and library roots differ for gouezel q={q}")
        if r["lib.run_verification"]["violations"] or r["cli.verify"]["violations"]:
            P.append("oracle suites report violations")
        ce = r["lib.collet_eckmann"]
        P += ck.close("CE liminf at c=-2", ce[0], math.log(4.0), 1e-12)
    P += _same_across_rounds(rounds, "cli.thermo_mme_gouezel",
                             lambda v: [v[q]["csv"] for q in sorted(v)])
    P += _same_across_rounds(rounds, "lib.collet_eckmann")
    # tail certificates against 50-digit tail sums, once per run
    r = rounds[0]
    P += ck.tail_problems("constant_one", r["lib.series_constant_one"][-1]["tail"].bound,
                          "constant_one", None, r["lib.series_constant_one"][-1]["h"])
    P += ck.tail_problems("two_at_one", r["lib.series_two_at_one"][-1]["tail"].bound,
                          "two_at_one", None, r["lib.series_two_at_one"][-1]["h"])
    for q, per_tol in r["lib.series_gouezel"].items():
        P += ck.tail_problems(f"gouezel q={q}", per_tol[-1]["tail"].bound, "gouezel", q,
                              per_tol[-1]["h"])
    return P


WORKLOADS = {
    "lsv_transition": (lsv_transition_ops, lsv_transition_check),
    "zooming_orbit": (zooming_orbit_ops, zooming_orbit_check),
    "series_oracles": (series_oracles_ops, series_oracles_check),
}
