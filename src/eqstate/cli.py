"""Batch front door: maps/scheme/zooming/thermo/analysis subcommands.

Every output embeds (JSON) or sits beside (CSV sidecar) a run manifest
with the resolved parameters, tool version, seed, input digests and wall
time.  Numbers are printed with 17 significant digits.  Exit codes:
0 success, 1 domain error (error name on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from decimal import Decimal

import numpy as np

from . import __version__
from .analysis import (
    collet_eckmann_diagnostic,
    pressure_curve,
    run_verification,
)
from .errors import EqstateError
from .inducing import analytic_counts, first_return_scheme, level_counts, load_scheme, save_scheme
from .maps import BUILTIN_NAMES, _same_map, builtin, from_json as map_from_json
from .thermo import (
    constant_potential,
    geometric_potential,
    gibbs_equilibrium,
    induced_potential,
    mme,
    pressure_root,
)
from .zooming import Contraction, zooming_frequency


def _fmt(v) -> str:
    return f"{v:.17g}"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command, params, inputs=(), seed=None, t0=None):
    return {
        "command": command,
        "params": params,
        "version": __version__,
        "seed": seed,
        "input_digests": {p: _sha256(p) for p in inputs},
        "walltime_s": None if t0 is None else time.time() - t0,
    }


def _dumps(doc) -> str:
    """Strict JSON (RFC 8259): a non-finite float is written as the string
    'nan', 'inf' or '-inf'."""
    return json.dumps(_finite(doc), indent=1, default=_json_default, allow_nan=False)


def _finite(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(float(v))
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _emit_json(doc, out):
    text = _dumps(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(v):
    if isinstance(v, (np.generic, np.ndarray)):
        return _finite(v.tolist())
    raise TypeError(f"not JSON serializable: {type(v)}")


def _write_csv(path, header, rows, manifest):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    with open(path + ".manifest.json", "w") as fh:
        fh.write(_dumps(manifest) + "\n")


@contextmanager
def _malformed(what):
    """Report a malformed input (bad JSON, a missing key, a value of the
    wrong type) as a usage error naming the input."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as e:
        raise argparse.ArgumentTypeError(f"malformed {what}: {type(e).__name__}: {e}") from None


def _load_scheme(path):
    with _malformed(f"scheme file {path}"):
        return load_scheme(path)


def _resolve_map(args):
    if getattr(args, "map_json", None):
        with _malformed(f"map file {args.map_json}"):
            return map_from_json(args.map_json), [args.map_json]
    name = args.map
    if name is None:
        raise EqstateError("no map given (use --map or --map-json)")
    _, wanted = BUILTIN_NAMES[name]
    params = {}
    for p in wanted:
        v = getattr(args, p, None)
        if v is None:
            raise EqstateError(f"built-in map {name!r} needs --{p}")
        params[p] = v
    return builtin(name, **params), []


def _map_args(sp):
    sp.add_argument("--map", choices=sorted(BUILTIN_NAMES), default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--map-json", default=None)


def _resolve_counts(args):
    inputs = []
    if args.scheme:
        s = _load_scheme(args.scheme)
        inputs.append(args.scheme)
        return level_counts(s), s, inputs
    kind = args.counts
    if kind is None:
        raise EqstateError("no counts given (use --counts or --scheme)")
    kw = {}
    if kind == "gouezel":
        if args.q is None:
            raise EqstateError("gouezel counts need --q")
        kw["q"] = args.q
    if kind == "user_table":
        if not args.table:
            raise EqstateError("user_table counts need --table file")
        with open(args.table) as fh, _malformed(f"table file {args.table}"):
            doc = json.load(fh)
            kw["table"] = {int(k): float(v) for k, v in doc["table"].items()}
            if len(kw["table"]) < len(doc["table"]):
                raise ValueError("two keys of the table name the same level")
            kw["complete"] = doc.get("complete", True)
        inputs.append(args.table)
    return analytic_counts(kind, **kw), None, inputs


def _counts_args(sp):
    sp.add_argument("--counts",
                    choices=["constant_one", "two_at_one", "gouezel", "user_table"],
                    default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--table", default=None)
    sp.add_argument("--scheme", default=None)


def _parse_potential(spec: str):
    kind, _, rest = spec.partition(":")
    with _malformed(f"potential {spec!r}"):
        if kind == "json":
            with open(rest) as fh:
                kv = json.load(fh)
            kind = kv["kind"]
        else:
            kv = dict(part.partition("=")[::2] for part in rest.split(",")) if rest else {}
        if kind == "geometric":
            return geometric_potential(_numbers(str(kv.get("t", 1.0)), ",", 1)[0])
        if kind == "constant":
            return constant_potential(_numbers(str(kv.get("c", 0.0)), ",", 1)[0])
    raise EqstateError(f"cannot parse potential spec {spec!r}")


def _numbers(text: str, sep: str, count: int):
    """`count` finite numbers separated by `sep`, or a usage error."""
    try:
        vals = [float(v) for v in text.split(sep)]
    except ValueError:
        vals = []
    if len(vals) != count or not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError(
            f"expected {count} finite numbers separated by {sep!r}, got {text!r}")
    return vals


def _parse_grid(spec: str):
    """lo, lo + step, ... up to hi, counted on the typed decimals (a span within 1e-9 steps
    of a whole number reaches hi), rounded to 12 decimals or, if finer, 1e-9 steps, and
    kept in [lo, hi]; a usage error unless the points strictly increase."""
    lo, hi, step = _numbers(spec, ":", 3)
    a, b, d = (Decimal(v) for v in spec.split(":"))
    span = (b - a) / d if step > 0 else -1
    if not 0 <= span < 10_000:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} needs lo <= hi, step > 0 and at most 10001 points")
    digits = max(12, 9 - math.floor(math.log10(step)))
    grid = [max(lo, min(round(lo + k * step, digits), hi))
            for k in range(math.floor(span + Decimal("1e-9")) + 1)]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} has a step too fine for distinct points near {lo!r}")
    return grid


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _scheme_build_args(p):
    _map_args(p)
    p.add_argument("--base", type=lambda text: _numbers(text, ",", 2), required=True,
                   help="lo,hi")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)


def _zooming_frequency_args(p):
    _map_args(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--contraction", choices=["exponential", "sqrt"],
                   default="exponential")
    p.add_argument("--out", default=None)


def _thermo_pressure_args(p):
    _counts_args(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)


def _thermo_mme_args(p):
    _thermo_pressure_args(p)
    p.add_argument("--csv", default=None)


def _thermo_equilibrium_args(p):
    p.add_argument("--scheme", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)


def _analysis_curve_args(p):
    _map_args(p)
    p.add_argument("--scheme", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--t", required=True, help="lo:hi:step")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", required=True)


def _analysis_verify_args(p):
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=_seed, default=20240501)


def _analysis_ce_args(p):
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default=None)


def _cmd_maps_list(args, t0):
    doc = {
        "result": {
            "builtins": {
                name: list(params) for name, (_, params) in sorted(BUILTIN_NAMES.items())
            }
        },
        "manifest": _manifest("maps list", {}, t0=t0),
    }
    _emit_json(doc, None)
    return 0


def _cmd_scheme_build(args, t0):
    m, inputs = _resolve_map(args)
    s = first_return_scheme(m, args.base, args.nmax, args.tol)
    params = {"map": m.name, "base": args.base, "nmax": args.nmax, "tol": args.tol}
    if args.out:
        save_scheme(s, args.out)
    doc = {
        "result": {
            "branches": len(s),
            "complete_up_to": s.complete_up_to,
            "exhausted": s.exhausted,
            "counts": {str(n): int(c) for n, c in level_counts(s).table},
        },
        "manifest": _manifest("scheme build", params, inputs, t0=t0),
    }
    _emit_json(doc, None)
    return 0


def _cmd_zooming_frequency(args, t0):
    m, inputs = _resolve_map(args)
    c = (Contraction.exponential(args.lam) if args.contraction == "exponential"
         else Contraction.sqrt_exponential(args.lam))
    rep = zooming_frequency(m, args.x, args.N, c, args.delta)
    params = {"map": m.name, "x": args.x, "N": args.N,
              "lambda": args.lam, "delta": args.delta,
              "contraction": args.contraction}
    doc = {"result": rep.to_json(),
           "manifest": _manifest("zooming frequency", params, inputs, t0=t0)}
    _emit_json(doc, args.out)
    return 0


def _levels_rows(counts, dist, h):
    """(n, count, weight, level mass) for every level the mme weights: a
    closed form's level array, or a table's occupied levels."""
    if counts.support == "infinite":
        rows = ((n, counts.count(n), w) for n, w in enumerate(dist.level_weights.tolist(), 1))
    else:
        rows = ((n, c, math.exp(-h * n)) for n, c in zip(*(a.tolist() for a in counts.occupied)))
    return [(n, c, w, c * w) for n, c, w in rows]


def _cmd_thermo_pressure(args, t0):
    counts, _, inputs = _resolve_counts(args)
    rep = pressure_root(counts, args.tol)
    params = {"counts": counts.kind, "tol": args.tol,
              "scheme": args.scheme, "q": args.q}
    doc = {"result": rep.to_json(),
           "manifest": _manifest("thermo pressure", params, inputs, t0=t0)}
    _emit_json(doc, args.out)
    print(f"h = {_fmt(rep.h)}", file=sys.stderr)
    return 0


def _cmd_thermo_mme(args, t0):
    counts, s, inputs = _resolve_counts(args)
    rep = pressure_root(counts, args.tol)
    dist = mme(counts, rep.h, scheme=s)
    params = {"counts": counts.kind, "tol": args.tol,
              "scheme": args.scheme, "q": args.q}
    man = _manifest("thermo mme", params, inputs, t0=t0)
    if args.csv:
        _write_csv(args.csv, ["n", "count", "weight", "level_mass"],
                   _levels_rows(counts, dist, rep.h), man)
    result = {"h": rep.h, "residual": dist.residual,
              "mean_return": rep.mean_return, "delta_f": rep.delta_f}
    if dist.enumerated and len(dist.branch_weights) <= 4096:
        result["weights"] = dist.branch_weights.tolist()
    doc = {"result": result, "manifest": man}
    _emit_json(doc, args.out)
    return 0


def _cmd_thermo_equilibrium(args, t0):
    s = _load_scheme(args.scheme)
    phi = _parse_potential(args.potential)
    ip = induced_potential(s.map, s, phi)
    g = gibbs_equilibrium(s, ip, args.tol)
    params = {"scheme": args.scheme, "potential": args.potential, "tol": args.tol}
    man = _manifest("thermo equilibrium", params, [args.scheme], t0=t0)
    if args.csv:
        rows = zip(s.return_times().tolist(), ip.values.tolist(),
                   g.mass.branch_weights.tolist())
        _write_csv(args.csv, ["R", "phibar", "weight"], rows, man)
    doc = {"result": {**g.to_json(),
                      "weights": g.mass.branch_weights.tolist()
                      if len(g.mass.branch_weights) <= 4096 else None},
           "manifest": man}
    _emit_json(doc, args.out)
    return 0


def _cmd_analysis_curve(args, t0):
    s = _load_scheme(args.scheme)
    if args.map or args.map_json:
        m, _ = _resolve_map(args)
        if not _same_map(m, s.map):
            raise EqstateError(
                f"--map {m.name} does not match the scheme's map {s.map.name}: "
                "their space, critical set or branches differ"
            )
    phi = _parse_potential(args.potential)
    curve = pressure_curve(s, phi, _parse_grid(args.t), args.tol)
    params = {"scheme": args.scheme, "potential": args.potential,
              "t": args.t, "tol": args.tol}
    man = _manifest("analysis pressure-curve", params, [args.scheme], t0=t0)
    man["status"] = list(curve.status)  # per row; the CSV columns are all numbers
    rows = [(t, v, e, ls, rs) for t, v, e, ls, rs, _ in curve.rows()]
    _write_csv(args.out, ["t", "P", "err", "left_slope", "right_slope"],
               rows, man)
    return 0


def _cmd_analysis_verify(args, t0):
    rep = run_verification(seed=args.seed, quick=args.quick)
    doc = {"result": rep,
           "manifest": _manifest("analysis verify",
                                 {"seed": args.seed, "quick": args.quick},
                                 seed=args.seed, t0=t0)}
    _emit_json(doc, None)
    return 0 if not rep["violations"] else 1


def _cmd_analysis_ce(args, t0):
    diag = collet_eckmann_diagnostic(args.c, args.N)
    params = {"c": args.c, "N": args.N}
    doc = {"result": {
        "liminf_estimate": diag.liminf_estimate,
        "window": diag.window,
        "hit_zero_derivative": diag.hit_zero_derivative,
        "heuristic": diag.heuristic,
        "exponents": diag.exponents[-20:].tolist(),
    }, "manifest": _manifest("analysis ce", params, t0=t0)}
    _emit_json(doc, args.out)
    return 0


# (command, subcommand) -> (the function that adds its options, its handler),
# in the order of the help text
_COMMANDS = {
    ("maps", "list"): (lambda p: None, _cmd_maps_list),
    ("scheme", "build"): (_scheme_build_args, _cmd_scheme_build),
    ("zooming", "frequency"): (_zooming_frequency_args, _cmd_zooming_frequency),
    ("thermo", "pressure"): (_thermo_pressure_args, _cmd_thermo_pressure),
    ("thermo", "mme"): (_thermo_mme_args, _cmd_thermo_mme),
    ("thermo", "equilibrium"): (_thermo_equilibrium_args, _cmd_thermo_equilibrium),
    ("analysis", "pressure-curve"): (_analysis_curve_args, _cmd_analysis_curve),
    ("analysis", "verify"): (_analysis_verify_args, _cmd_analysis_verify),
    ("analysis", "ce"): (_analysis_ce_args, _cmd_analysis_ce),
}


def build_parser(only=None):
    """The full parser, or with `only`, a key of `_COMMANDS`, the parser of
    that command alone.  Its usage line still lists every command, so its
    help and error messages are the full parser's."""
    ap = argparse.ArgumentParser(prog="eqstate")
    cmds = dict.fromkeys(cmd for cmd, _ in _COMMANDS)
    sub = ap.add_subparsers(dest="cmd", required=True,
                            metavar="{" + ",".join(cmds) + "}" if only else None)
    groups = {}
    for (cmd, name), (add_args, _) in _COMMANDS.items():
        if only in (None, (cmd, name)):
            if cmd not in groups:
                groups[cmd] = sub.add_parser(cmd).add_subparsers(dest="sub", required=True)
            add_args(groups[cmd].add_parser(name))
    return ap


def dispatch(argv) -> int:
    key = tuple(argv[:2])
    ap = build_parser(key if key in _COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    t0 = time.time()
    handler = _COMMANDS[(args.cmd, args.sub)][1]
    try:
        return handler(args, t0)
    except EqstateError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (argparse.ArgumentTypeError, OSError) as e:  # a bad argument or path
        print(f"eqstate: error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
