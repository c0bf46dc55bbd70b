"""Pressure curves, phase-transition scans, diagnostics and inequality oracles.

The full pressure of an intermittent map at parameter t is reported as the
maximum of the induced (expanding) root and the neutral-fixed-point
competitor: the induced scheme only sees measures charging the base, while
a Dirac mass at an indifferent fixed point contributes h = 0 plus the
potential there.  Phase-transition detection is a slope-gap heuristic with
explicit error bars, never a claim of rigor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoNeutralPoints, OrbitEscaped, OutOfRange, UnknownGenerator
from .inducing import InducingScheme, LevelCounts, _check_tol
from .maps import MapSpec
from .thermo import (
    Potential,
    _entropy_arr,
    _level_rows,
    _log,
    _solve_rows,
    _tail_estimate,
    delta_F,
    induced_potential,
)

__all__ = [
    "PressureCurve",
    "SequencePair",
    "pressure_curve",
    "dirac_competitor",
    "phase_transition_scan",
    "OscillationBudget",
    "oscillation_budget",
    "CEDiagnostic",
    "collet_eckmann_diagnostic",
    "LogSumReport",
    "log_sum_check",
    "EntropyRatioReport",
    "entropy_ratio_check",
    "ratio_decay_probe",
    "run_verification",
]


# ---------------------------------------------------------------------------
# pressure curves


@dataclass(frozen=True)
class PressureCurve:
    potential: str
    t: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    status: tuple
    left_slopes: np.ndarray
    right_slopes: np.ndarray

    def convexity_defects(self) -> np.ndarray:
        """Second divided differences at interior grid points."""
        t, v = self.t, self.values
        return ((v[2:] - v[1:-1]) / (t[2:] - t[1:-1])
                - (v[1:-1] - v[:-2]) / (t[1:-1] - t[:-2]))

    def rows(self):
        for i in range(len(self.t)):
            yield (self.t[i], self.values[i], self.errors[i],
                   self.left_slopes[i], self.right_slopes[i], self.status[i])


def dirac_competitor(m: MapSpec, phi: Potential, t: float) -> float:
    """Best value h + int(t phi) over Dirac masses at neutral fixed points."""
    if not m.neutral:
        raise NoNeutralPoints(f"{m.name} declares no neutral fixed points")
    return max(t * phi.value(m, p) for p in m.neutral)


def _curve_point(induced, sides, osc, shift, dirac, tol):
    """(value, error, status) of one grid point from its three roots.

    `induced` and `sides` (the roots with the per-branch lower and upper
    values) are None where the series has no root; `shift` is the
    truncation's root shift.  A side root below the Dirac competitor
    counts as the competitor: there the curve is the competitor, as it is
    where a side root is missing.  Where the competitor wins, its error is
    how far the largest root, with the shift, reaches above it.
    """
    if induced is None:
        if dirac is None:
            return math.nan, math.inf, "error:NoRoot"
        return dirac, 0.0, "dirac"
    # |dG/dp| >= 1 at the root, R >= 1
    pad = (shift if math.isfinite(shift) else osc) + 10.0 * tol
    if dirac is not None and dirac > induced:
        top = max([p for p in sides if p is not None], default=induced)
        return dirac, max(top + pad - dirac, 0.0), "dirac"
    err = 0.0
    for side in sides:
        if side is None:
            side = dirac if dirac is not None else induced - osc
        elif dirac is not None:
            side = max(side, dirac)
        err = max(err, abs(side - induced))
    return induced, err + pad, "induced"


def pressure_curve(s: InducingScheme, phi: Potential, t_grid,
                   tol: float = 1e-12) -> PressureCurve:
    """P(t phi) over the grid, with per-point error bars and one-sided slopes.

    Every grid point needs three Gibbs roots: with the induced values t *
    phibar and with the per-branch lower and upper values, which bracket
    the variation error.  All of them are rows of one level table, solved
    in one batched bisection; each row's root is the one
    `gibbs_equilibrium` finds for it alone.  Per-point failures are
    recorded in the status column and never abort the rest of the curve.
    """
    _check_tol(tol)
    m = s.map
    t = np.asarray(sorted(t_grid), dtype=float)
    ip = induced_potential(m, s, phi)
    T = t[:, None]
    lower = np.minimum(T * ip.lower, T * ip.upper)
    upper = np.maximum(T * ip.lower, T * ip.upper)
    levels, W = _level_rows(s.return_times(), np.concatenate([T * ip.values, lower, upper]))
    roots, _, _, _, errors = _solve_rows(levels, _log(W), not s.exhausted, tol)
    K = len(t)
    solved = [e is None for e in errors]
    dirac = [dirac_competitor(m, phi, float(tv)) for tv in t] if m.neutral else [None] * K
    # the tail at the larger of the root and the competitor: the competitor
    # wins unless the full series still reaches 1 there
    at = np.fmax(roots[:K], np.array(dirac, dtype=float))
    shift = np.zeros(K) if s.exhausted else _tail_estimate(levels, W[:K], at)
    osc = np.max(upper - lower, axis=1, initial=0.0)
    results = []
    for i in range(K):
        p = [float(roots[r]) if solved[r] else None for r in (i, K + i, 2 * K + i)]
        results.append(_curve_point(p[0], p[1:], float(osc[i]), float(shift[i]), dirac[i], tol))
    vals = np.array([r[0] for r in results])
    errs = np.array([r[1] for r in results])
    status = tuple(r[2] for r in results)
    ls = np.full(len(t), math.nan)
    rs = np.full(len(t), math.nan)
    if len(t) > 1:
        d = np.diff(vals) / np.diff(t)
        ls[1:] = d
        rs[:-1] = d
    return PressureCurve(potential=phi.describe(), t=t, values=vals,
                         errors=errs, status=status,
                         left_slopes=ls, right_slopes=rs)


def phase_transition_scan(curve: PressureCurve, slope_tol: float):
    """Interior grid t where the one-sided slopes differ beyond tolerance.

    The threshold is slope_tol plus the adjacent per-point error bars
    (value units); returns the flagged t values.
    """
    if len(curve.t) < 3:
        raise OutOfRange("scan needs a grid with at least 3 points")
    flags = []
    for i in range(1, len(curve.t) - 1):
        gap = abs(curve.left_slopes[i] - curve.right_slopes[i])
        thr = slope_tol + curve.errors[i - 1] + curve.errors[i + 1]
        if math.isfinite(gap) and gap > thr:
            flags.append(float(curve.t[i]))
    return flags


# ---------------------------------------------------------------------------
# oscillation budget


@dataclass(frozen=True)
class OscillationBudget:
    value: float
    boundary: bool


def oscillation_budget(counts: LevelCounts, h: float) -> OscillationBudget:
    """delta(F)/2: the small-oscillation threshold for unique equilibria."""
    d = delta_F(counts, h)
    occupied = counts.occupied_levels()
    single = occupied is not None and len(occupied) == 1
    return OscillationBudget(value=0.5 * d, boundary=single or d == 0.0)


# ---------------------------------------------------------------------------
# Collet-Eckmann diagnostics


@dataclass(frozen=True)
class CEDiagnostic:
    c: float
    exponents: np.ndarray       # (n, (1/n) log |(f^n)'(f(0))|)
    liminf_estimate: float
    window: int
    hit_zero_derivative: bool
    heuristic: bool = True      # liminf is not computable from finite data


def collet_eckmann_diagnostic(c: float, N: int) -> CEDiagnostic:
    """Running expansion exponent along the critical orbit of x^2 + c.

    The liminf estimate is the running minimum over the trailing half of
    the samples; it is a declared heuristic, not a certification.  Raises
    OrbitEscaped (with the partial sequence attached) if the orbit leaves
    [-2, 2], and OutOfRange for an N whose exponents cannot be allocated.
    """
    if N < 1:
        raise OutOfRange("N >= 1 required")
    try:
        logs = np.empty(N)
    except (ValueError, MemoryError):  # numpy refuses the size, or the memory
        raise OutOfRange(f"N={N} is too large: no array of {N} exponents "
                         "can be allocated") from None
    x = c  # f_c(0)
    hit_zero = False
    for n in range(N):
        if abs(x) > 2.0:
            partial = _ce_partial(logs[:n])
            raise OrbitEscaped(
                f"critical orbit of c={c:g} escaped [-2,2] at step {n}",
                partial=partial,
            )
        d = abs(2.0 * x)
        logs[n] = -math.inf if d == 0.0 else math.log(d)
        hit_zero = hit_zero or d == 0.0
        x = x * x + c
    expo = _ce_partial(logs)
    window = max(1, N // 2)
    tail = expo[-window:, 1]
    est = float(np.min(tail))
    return CEDiagnostic(c=c, exponents=expo, liminf_estimate=est,
                        window=window, hit_zero_derivative=hit_zero)


def _ce_partial(logs):
    n = len(logs)
    if n == 0:
        return np.empty((0, 2))
    sums = np.cumsum(logs)
    ns = np.arange(1, n + 1, dtype=float)
    return np.column_stack([ns, sums / ns])


# ---------------------------------------------------------------------------
# appendix inequality oracles


@dataclass(frozen=True)
class SequencePair:
    """a: probability vector; beta: positive summable sequence (finite tables)."""

    a: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta", b)
        if a.ndim != 1 or b.ndim != 1:
            raise OutOfRange("a and beta must be vectors")
        _check_pair_rows(a, b)


def _check_pair_rows(a, beta):
    """Raise OutOfRange unless every row (last axis) of (a, beta) is a valid pair."""
    if a.shape != beta.shape:
        raise OutOfRange("sequence pair lengths differ")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(beta))):
        raise OutOfRange("sequence pair entries must be finite")
    if np.any(a < 0) or np.any(np.abs(a.sum(axis=-1) - 1.0) > 1e-9):
        raise OutOfRange("a must be a probability vector")
    if np.any(beta <= 0):
        raise OutOfRange("beta must be strictly positive")


@dataclass(frozen=True)
class LogSumReport:
    lhs: float
    rhs: float
    slack: float
    equality: bool


def _log_sum_rows(a, beta):
    """The log-sum inequality on each row of valid pairs (a, beta), shape (m, k).

    Returns arrays (lhs, rhs, equality) over the m rows: lhs = sum a log(beta/a)
    over a > 0, rhs = log sum beta, and equality when the L1 distance
    sum |a - beta / sum beta| is at most 1e-12.  The distance adds up every
    entry's deviation, so a long row cannot pass on deviations that are each
    small.  rhs is libm's log of each row total, as the one-pair check has
    always used; numpy's vectorised log differs from it in the last bit on
    some inputs, which would move reported slacks.
    """
    pos = a > 0
    lhs = np.sum(a * np.log(beta / np.where(pos, a, 1.0)), axis=-1)
    total = np.sum(beta, axis=-1)
    rhs = np.array([math.log(t) for t in total.tolist()])
    equality = np.sum(np.abs(a - beta / total[:, None]), axis=-1) <= 1e-12
    return lhs, rhs, equality


def log_sum_check(p: SequencePair) -> LogSumReport:
    """sum a_n log(beta_n / a_n) <= log sum beta_n, equality iff proportional."""
    lhs, rhs, equality = _log_sum_rows(p.a[None], p.beta[None])
    return LogSumReport(lhs=float(lhs[0]), rhs=float(rhs[0]),
                        slack=float(rhs[0] - lhs[0]), equality=bool(equality[0]))


def _equality_errors(slack, equality):
    """Pairs flagged as equality although their slack exceeds 1e-10 in size."""
    return equality & (np.abs(slack) > 1e-10)


@dataclass(frozen=True)
class EntropyRatioReport:
    lhs: float
    rhs: float
    holds: bool


def entropy_ratio_check(a) -> EntropyRatioReport:
    """sum H(a_n) <= 9 sum log(n) a_n + 40 for subprobability sequences."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a < 0) or a.sum() > 1.0 + 1e-9:
        raise OutOfRange("need finite a_n >= 0 with sum <= 1")
    lhs = float(np.sum(_entropy_arr(np.minimum(a, 1.0))))
    ns = np.arange(1, len(a) + 1, dtype=float)
    rhs = 9.0 * float(np.sum(np.log(ns) * a)) + 40.0
    return EntropyRatioReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9)


def _geometric_family(r):
    theta = 1.0 - 1.0 / r
    if theta <= 0:
        return np.array([1.0])
    horizon = int(max(64, 45.0 * r))
    n = np.arange(1, horizon + 1)
    a = (1.0 - theta) * theta ** (n - 1)
    return a


def _uniform_block_family(r):
    k = max(1, int(math.ceil(2 * r - 1)))
    return np.full(k, 1.0 / k)


def _power_grid(horizon):
    n = np.arange(1, horizon + 1, dtype=float)
    logn = np.log(n)
    return n, logn, n * logn


def _power_moments(s, grid):
    """Moments of the law a_n = n^-s / Z on the grid.

    Returns (E[n], d/ds E[n], E[log n], log Z), all from one weight array:
    d/ds E[n] = -(E[n log n] - E[n] E[log n]).
    """
    n, logn, nlogn = grid
    w = logn * -s
    np.exp(w, out=w)
    z = w.sum()
    mean = float(np.dot(n, w) / z)
    mean_log = float(np.dot(logn, w) / z)
    return mean, mean * mean_log - float(np.dot(nlogn, w) / z), mean_log, math.log(z)


def _heavy_tail_exponent(r, grid):
    """The s in [1.01, 6] at which the law a_n ~ n^-s on the grid has mean r.

    Raises OutOfRange when r exceeds the mean at s = 1.01, the largest
    that such a law on the grid reaches.

    Newton on log mean(s), which is close to linear in s, inside the bracket
    [lo, hi] with mean(lo) > r >= mean(hi); a step that leaves the bracket
    is replaced by bisection.  Newton converges quadratically, so a step
    below 1e-9 s lands within rounding of the root and ends the search
    before the steps reach the float noise of the sums.
    """
    lo, hi = 1.01, 6.0
    s = lo
    mean, slope, _, _ = _power_moments(s, grid)
    if mean < r:
        raise OutOfRange(f"heavy-tail laws on {len(grid[0])} terms reach a mean of at "
                         f"most {mean:.6g} (s = {lo}), below r = {r:g}")
    for _ in range(100):
        if mean > r:
            lo = s
        else:
            hi = s
        t = s + math.log(r / mean) * mean / slope
        if not lo <= t <= hi:  # t == s at a bracket end is a step below one ulp
            t = 0.5 * (lo + hi)
        converged = abs(t - s) <= 1e-9 * t
        s = t
        if converged:
            break
        mean, slope, _, _ = _power_moments(s, grid)
    return s


def _heavy_tail_ratios(rs, horizon=200_000):
    """For each r, the ratio of a_n ~ n^-s on n <= horizon, s = _heavy_tail_exponent(r).

    No sequence is built: log a_n = -s log n - log Z and sum a_n = 1 give
    sum H(a_n) = s E[log n] + log Z, so the ratio is a function of the
    moments at s.
    """
    grid = _power_grid(horizon)
    for r in rs:
        s = _heavy_tail_exponent(r, grid)
        mean, _, mean_log, log_z = _power_moments(s, grid)
        yield (s * mean_log + log_z) / mean


def _sequence_ratio(a):
    """sum H(a_n) / sum n a_n of an explicit sequence a_1, a_2, ..."""
    num = float(np.sum(_entropy_arr(np.minimum(a, 1.0))))
    return num / float(np.dot(np.arange(1, len(a) + 1, dtype=float), a))


# each family maps the r grid to one ratio per r, in order
_FAMILIES = {
    "geometric": lambda rs: (_sequence_ratio(_geometric_family(r)) for r in rs),
    "uniform_block": lambda rs: (_sequence_ratio(_uniform_block_family(r)) for r in rs),
    "heavy_tail": _heavy_tail_ratios,
}


def ratio_decay_probe(r_grid, families=("geometric", "heavy_tail", "uniform_block")):
    """For each r: max over families of sum H(a_n) / sum n a_n at mean >= r.

    Rows (r, ratio, per-family dict); the ratio must decay to 0 as r grows.
    Every r must be finite and positive and `families` a non-empty choice
    of "geometric", "heavy_tail" and "uniform_block" (OutOfRange for a
    bad r or no family, UnknownGenerator for another name).  The
    geometric and uniform-block ratios come from their explicit sequences;
    the heavy-tail ratio of a_n ~ n^-s on 200 000 terms comes from the
    moments of that law at its solved exponent, without building it, and
    raises OutOfRange for r beyond the mean such a law can reach (14 816).
    """
    rs = [float(r) for r in r_grid]
    for r in rs:
        if not (math.isfinite(r) and r > 0):
            raise OutOfRange(f"ratio_decay_probe needs finite r > 0, got {r!r}")
    if not families:
        raise OutOfRange("ratio_decay_probe needs at least one family")
    for name in families:
        if name not in _FAMILIES:
            raise UnknownGenerator(f"unknown ratio_decay_probe family {name!r}; "
                                   f"known: {', '.join(_FAMILIES)}")
    per = [{} for _ in rs]
    for name in families:
        for row, ratio in zip(per, _FAMILIES[name](rs)):
            row[name] = ratio
    return [(r, max(row.values()), row) for r, row in zip(rs, per)]


# ---------------------------------------------------------------------------
# verification runner (CLI `analysis verify`)


def _draw_rows(rng, count, vectors):
    """Draw `count` items, each as `integers(1, 12)` -> k then `vectors` x `random(k)`.

    Returns [(idx, rows)], one entry per drawn length k: idx holds the draw
    positions of the items of that length and rows[j] their j-th vectors,
    stacked into an (len(idx), k) array.
    """
    by_len = {}
    integers, random = rng.integers, rng.random
    for i in range(count):
        k = int(integers(1, 12))
        idx, rows = by_len.setdefault(k, ([], [[] for _ in range(vectors)]))
        idx.append(i)
        for part in rows:
            part.append(random(k))
    return [(np.array(idx), [np.array(part) for part in rows])
            for idx, rows in by_len.values()]


def _random_pairs(a, beta):
    a = a + 1e-12
    return a / a.sum(axis=1, keepdims=True), beta * 10 + 1e-9


def _proportional_pairs(beta):
    beta = beta * 10 + 1e-9
    return beta / beta.sum(axis=1, keepdims=True), beta


def _pair_suite(rng, count, vectors, make_pairs):
    """Slack and equality flag of `count` drawn pairs, in draw order."""
    slack = np.empty(count)
    equality = np.empty(count, dtype=bool)
    for idx, draws in _draw_rows(rng, count, vectors):
        a, beta = make_pairs(*draws)
        _check_pair_rows(a, beta)
        lhs, rhs, flags = _log_sum_rows(a, beta)
        slack[idx] = rhs - lhs
        equality[idx] = flags
    return slack, equality


def run_verification(n_pairs=100_000, n_prop=1_000, n_entropy=10_000,
                     max_len=10_000, seed=20240501, quick=False):
    """Randomized oracle suites; returns a report dict with a violation count.

    Draw order, which fixes the pairs and sequences a seed checks: one
    Philox(seed) stream gives, for each of the n_pairs random pairs,
    ``integers(1, 12)`` -> k, ``random(k)`` (a) and ``random(k)`` (beta);
    then for each of the n_prop proportional pairs ``integers(1, 12)`` -> k
    and ``random(k)`` (beta); then for each entropy sequence
    ``integers(1, max_len + 1)`` -> k, ``random(k)`` and ``random()``.
    A suite's pairs are drawn first and then checked in arrays, one block
    per length k; each pair's slack and equality flag are bit-identical to
    ``log_sum_check`` on that pair.  Entropy-ratio sequences are still
    checked one at a time by ``entropy_ratio_check``.  Last,
    ``ratio_decay_probe`` over r = 2, 5, 10, 30, 100 (no draws) must
    decrease and end below 0.2.  It builds no heavy-tail sequence (see
    ``ratio_decay_probe``), so it costs about as much as a quick run's
    suites.
    """
    if quick:
        n_pairs, n_prop, n_entropy, max_len = 2_000, 50, 200, 1_000
    rng = np.random.Generator(np.random.Philox(seed))
    violations = []

    slack, equality = _pair_suite(rng, n_pairs, 2, _random_pairs)
    slack_min = float(np.min(slack)) if n_pairs else math.inf
    for i in np.flatnonzero(slack < -1e-12):
        violations.append(f"log_sum slack {float(slack[i])} at pair {i}")
    wrong = _equality_errors(slack, equality)
    for i in np.flatnonzero(wrong):
        violations.append(f"log_sum pair {i} flagged as equality at slack {float(slack[i])}")
    eq_errors = int(np.count_nonzero(wrong))

    slack, equality = _pair_suite(rng, n_prop, 1, _proportional_pairs)
    missed = ~equality | (slack > 1e-10)
    for i in np.flatnonzero(missed):
        violations.append(f"proportional pair {i} not detected as equality")
    eq_errors += int(np.count_nonzero(missed))

    ratio_fails = 0
    for i in range(n_entropy):
        k = int(rng.integers(1, max_len + 1))
        a = rng.random(k)
        a /= a.sum() / min(1.0, rng.random() + 0.5)
        a = np.minimum(a, 1.0)
        rep = entropy_ratio_check(a)
        if not rep.holds:
            ratio_fails += 1
            violations.append(f"entropy_ratio violated at sequence {i}")

    probe = ratio_decay_probe([2, 5, 10, 30, 100])
    ratios = [row[1] for row in probe]
    if any(b > a + 1e-9 for a, b in zip(ratios, ratios[1:])):
        violations.append("ratio_decay_probe not decreasing")
    if ratios[-1] >= 0.2:
        violations.append(f"ratio_decay_probe at r=100 is {ratios[-1]:.3f} >= 0.2")

    return {
        "log_sum_pairs": n_pairs,
        "log_sum_min_slack": slack_min,
        "proportional_pairs": n_prop,
        "equality_errors": eq_errors,
        "entropy_ratio_sequences": n_entropy,
        "entropy_ratio_failures": ratio_fails,
        "ratio_decay": [(r, v) for r, v, _ in probe],
        "violations": violations,
    }
