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
from .maps import MapSpec, _is_int
from .thermo import (
    Potential,
    _delta_f_boundary,
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
    in one batched Newton solve; each row's root is the one
    `gibbs_equilibrium` finds for it alone.  Per-point failures are
    recorded in the status column and never abort the rest of the curve: a
    point whose weights overflow in any of its rows reads NaN +- inf,
    `error:NoFiniteRoot`.  OutOfRange for a t that is not finite.
    """
    _check_tol(tol)
    m = s.map
    t = np.asarray(sorted(t_grid), dtype=float)
    if not np.isfinite(t).all():
        raise OutOfRange(f"pressure_curve needs finite t, got {float(t[~np.isfinite(t)][0])!r}")
    ip = induced_potential(m, s, phi)
    T = t[:, None]
    lower = np.minimum(T * ip.lower, T * ip.upper)
    upper = np.maximum(T * ip.lower, T * ip.upper)
    levels, W = _level_rows(s.return_times(), np.concatenate([T * ip.values, lower, upper]))
    roots, _, _, _, errors = _solve_rows(levels, _log(W), not s.exhausted, tol)
    K = len(t)
    finite = np.isfinite(W).all(axis=1).reshape(3, K).all(axis=0).tolist()
    solved = [e is None for e in errors]
    # dirac_competitor at each t, with phi taken once per neutral point
    v = [phi.value(m, p) for p in m.neutral]
    dirac = [max(tv * vp for vp in v) for tv in t.tolist()] if v else [None] * K
    # the tail at the larger of the root and the competitor: the competitor
    # wins unless the full series still reaches 1 there
    at = np.fmax(roots[:K], np.array(dirac, dtype=float))
    shift = np.zeros(K) if s.exhausted else _tail_estimate(levels, W[:K], at)
    osc = np.max(upper - lower, axis=1, initial=0.0)
    results = []
    for i in range(K):
        if not finite[i]:
            results.append((math.nan, math.inf, "error:NoFiniteRoot"))
            continue
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
    (value units); returns the flagged t values.  OutOfRange unless
    slope_tol is finite and >= 0.
    """
    _check_tol(slope_tol, "slope_tol")
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
    """delta(F)/2 (the small-oscillation threshold for unique equilibria) and its
    boundary flag; OutOfRange for an h that is not finite (`delta_F`)."""
    d = delta_F(counts, h)
    return OscillationBudget(value=0.5 * d, boundary=_delta_f_boundary(counts, d, h))


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


# The critical orbit is iterated in blocks of this many steps: see
# `_ce_logs`.
_CE_BLOCK = 1 << 13


def collet_eckmann_diagnostic(c: float, N: int) -> CEDiagnostic:
    """Running expansion exponent along the critical orbit of x^2 + c.

    The orbit x_0 = c, x_{n+1} = x_n^2 + c is iterated in doubles (c is
    read as one), in blocks of _CE_BLOCK steps, and log|2 x_n| is taken
    by libm's log (`math.log`) after each block's loop (`_ce_logs`): the
    same bits as one step at a time, at about three quarters of its
    time.  The liminf estimate is the running minimum over the trailing
    half of the samples; it is a declared heuristic, not a
    certification.  Raises
    OrbitEscaped (with the partial sequence attached) if the orbit leaves
    [-2, 2], and OutOfRange for a c that is not finite, an N that is not an
    integer >= 1 (a bool is not one) or an N whose exponents cannot be
    allocated.
    """
    if not math.isfinite(c):
        raise OutOfRange(f"c must be finite, got {c!r}")
    if not (_is_int(N) and N >= 1):
        raise OutOfRange(f"collet_eckmann_diagnostic needs an integer N >= 1, got {N!r}")
    try:
        logs = np.empty(N)
    except (ValueError, MemoryError):  # numpy refuses the size, or the memory
        raise OutOfRange(f"N={N} is too large: no array of {N} exponents "
                         "can be allocated") from None
    n, hit_zero = _ce_logs(float(c), logs)
    if n < N:
        raise OrbitEscaped(f"critical orbit of c={c:g} escaped [-2,2] at step {n}",
                           partial=_ce_partial(logs[:n]))
    expo = _ce_partial(logs)
    window = max(1, N // 2)
    tail = expo[-window:, 1]
    est = float(np.min(tail))
    return CEDiagnostic(c=c, exponents=expo, liminf_estimate=est,
                        window=window, hit_zero_derivative=hit_zero)


def _ce_logs(c: float, logs: np.ndarray):
    """Fill logs[n] = log|2 x_n| (-inf where x_n = 0) along the orbit x_0 = c,
    x_{n+1} = x_n^2 + c, until the orbit leaves [-2, 2] or logs is full.

    Returns (n, hit_zero): the steps filled, the first |x_n| > 2 if any,
    and whether some filled x_n is 0.  Python iterates the orbit alone,
    a block of _CE_BLOCK steps into one list; numpy finds the block's
    first escape and forms |2 x|, both exact, and map(math.log) takes
    libm's log of each entry, so logs has the bits of a one-step loop
    with math.log in it (numpy's own log differs in some last bits).
    An orbit that escapes stops within its block.
    """
    N = len(logs)
    buf = [0.0] * min(N, _CE_BLOCK)
    x, hit_zero = c, False
    for start in range(0, N, _CE_BLOCK):
        m = min(_CE_BLOCK, N - start)
        for i in range(m):
            buf[i] = x
            x = x * x + c
        xs = np.array(buf[:m])
        out = np.flatnonzero(np.abs(xs) > 2.0)
        k = int(out[0]) if len(out) else m
        d = np.abs(2.0 * xs[:k])
        zero = d == 0.0
        d[zero] = 1.0  # math.log(0.0) raises; these read -inf below
        block = logs[start:start + k]
        block[:] = np.fromiter(map(math.log, d.tolist()), float, k)
        block[zero] = -math.inf
        hit_zero = hit_zero or bool(zero.any())
        if k < m:
            return start + k, hit_zero
    return N, hit_zero


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


def _row_sums(x, starts, lens):
    """Sums of the rows of x, concatenated at `starts` with lengths `lens`.

    np.add.reduceat gives x[start], not 0, for an empty row, so empty rows
    are left out of it and read 0.
    """
    out = np.zeros(len(lens))
    full = np.asarray(lens) > 0
    if x.size:
        out[full] = np.add.reduceat(x, starts[full])
    return out


def _entropy_ratio_rows(seqs):
    """The entropy bound on each sequence of a non-empty list of 1-D
    sequences: arrays (lhs, rhs, holds).

    lhs = sum H(a_n), rhs = 9 sum a_n log n + 40 with n counted from 1 in
    each sequence, and holds = lhs <= rhs + 1e-9.  The sequences are
    concatenated, without padding, and each sum is one np.add.reduceat at
    the row starts; its rounding can differ from np.sum's in the last bits.
    OutOfRange unless every entry is finite and >= 0 and every sequence
    sums to at most 1 + 1e-9.
    """
    lens = [len(a) for a in seqs]
    a = np.concatenate(seqs)
    starts = np.cumsum(lens) - lens
    if (not np.all(np.isfinite(a)) or np.any(a < 0)
            or np.any(_row_sums(a, starts, lens) > 1.0 + 1e-9)):
        raise OutOfRange("need finite a_n >= 0 with sum <= 1")
    lhs = _row_sums(_entropy_arr(a), starts, lens)
    log_n = np.log(np.arange(1, max(lens) + 1, dtype=float))
    log_n = np.concatenate([log_n[:k] for k in lens])
    rhs = 9.0 * _row_sums(log_n * a, starts, lens) + 40.0
    return lhs, rhs, lhs <= rhs + 1e-9


def entropy_ratio_check(a) -> EntropyRatioReport:
    """sum H(a_n) <= 9 sum log(n) a_n + 40 for one subprobability sequence.

    a must be 1-D (OutOfRange otherwise; [] holds with lhs 0 and rhs 40).
    This is the one-row call of `_entropy_ratio_rows`, which
    `run_verification` runs on blocks of sequences.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise OutOfRange(f"entropy_ratio_check needs a 1-D sequence, got shape {a.shape}")
    lhs, rhs, holds = _entropy_ratio_rows([a])
    return EntropyRatioReport(lhs=float(lhs[0]), rhs=float(rhs[0]), holds=bool(holds[0]))


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


# Euler-Maclaurin for the heavy-tail moments: the terms n < K are summed
# explicitly, n = K ... N in closed form with B_2 ... B_12, here as B_2k / (2k)!
_EM_K = 64
_EM_BERNOULLI = tuple(b / math.factorial(2 * k + 2) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)))
# 1 / (j! (j + 2)) for j = 15 ... 0: int_0^1 v e^(uv) dv = sum_j u^j / (j! (j + 2))
_EM_SERIES = tuple(1.0 / (math.factorial(j) * (j + 2)) for j in range(15, -1, -1))


def _power_grid(horizon):
    """Rows 1, n, log n, n log n of the explicit terms 2 <= n < K, and N = horizon."""
    n = np.arange(2, _EM_K, dtype=float)
    logn = np.log(n)
    return np.stack([np.ones_like(n), n, logn, n * logn]), horizon


def _power_tail(a, horizon):
    """sum n^-a and sum n^-a log n over K <= n <= N = horizon, by Euler-Maclaurin.

    With b = 1 - a and l = log(N / K), the integrals are, in t = log x,
    K^b int_0^l e^(b tau) and K^b int_0^l (log K + tau) e^(b tau); the
    second part is a series for |b l| < 1/2, where the closed form cancels.
    Then come the half end terms, and B_2k / (2k)! times the differences
    of the odd derivatives f^(m)(x) = -(a)_m x^(-a-m) of f = x^-a and
    -[(a)_m log x - (a)_m'] x^(-a-m) of x^-a log x, where (a)_m is the
    rising factorial a (a + 1) ... (a + m - 1) and ' is d/da.
    """
    log_k, log_n = math.log(_EM_K), math.log(horizon)
    b = 1.0 - a
    ell = log_n - log_k
    u = b * ell
    e1 = math.expm1(u) / b if b else ell
    if abs(u) < 0.5:
        e2 = 0.0
        for c in _EM_SERIES:
            e2 = e2 * u + c
        e2 *= ell * ell
    else:
        e2 = (ell * math.exp(u) - e1) / b
    fk, fn = math.exp(-a * log_k), math.exp(-a * log_n)
    scale = math.exp(b * log_k)
    s0 = scale * e1 + 0.5 * (fk + fn)
    s1 = scale * (log_k * e1 + e2) + 0.5 * (fk * log_k + fn * log_n)
    xk, xn = fk / _EM_K, fn / horizon  # x^(-a-m), m = 1, 3, 5, ...
    qk, qn = _EM_K ** -2.0, horizon ** -2.0
    p, dp = a, 1.0  # (a)_m and its derivative
    for j, c in enumerate(_EM_BERNOULLI):
        s0 += c * p * (xk - xn)
        s1 += c * ((p * log_k - dp) * xk - (p * log_n - dp) * xn)
        for i in (2 * j + 1, 2 * j + 2):
            dp = dp * (a + i) + p
            p *= a + i
        xk *= qk
        xn *= qn
    return s0, s1


def _power_moments(s, grid):
    """Moments of the law a_n = n^-s / Z on n <= N.

    Returns (E[n], d/ds E[n], E[log n], log Z), with
    d/ds E[n] = -(E[n log n] - E[n] E[log n]).  The four sums over
    n <= N, of n^-a and n^-a log n at a = s and s - 1, are the terms n < K
    plus `_power_tail` from K on.  Its first omitted Bernoulli term,
    |B_14| / 14! (a)_13 K^(-a-13), is below 3e-27 of each whole sum for
    0 < a <= 6 (Hurwitz zeta values at 60 digits bear this out), so the
    outputs carry only the rounding of the arithmetic.  The term n = 1 is
    kept out of Z, so log Z = log1p(Z - 1) keeps its relative accuracy
    at large s, where Z is close to 1.
    """
    table, horizon = grid
    head = table @ np.exp(table[2] * -s)
    z, l0 = _power_tail(s, horizon)
    m, l1 = _power_tail(s - 1.0, horizon)
    z += float(head[0])
    log_z = math.log1p(z)
    z += 1.0
    mean = (1.0 + m + float(head[1])) / z
    mean_log = (l0 + float(head[2])) / z
    return mean, mean * mean_log - (l1 + float(head[3])) / z, mean_log, log_z


def _heavy_tail_exponent(r, grid):
    """The s in [1.01, 6] at which the law a_n ~ n^-s on the grid has mean r.

    Raises OutOfRange when r exceeds the mean at s = 1.01, the largest
    that such a law on the grid reaches.  Below the mean at s = 6, about
    1.0193, no s in range solves it: the search returns s close to 6, a
    law whose mean is above r, which the probe's "mean >= r" allows.

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
        raise OutOfRange(f"heavy-tail laws on {grid[1]} terms reach a mean of at "
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
    num = float(np.sum(_entropy_arr(a)))
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
    The moments are Euler-Maclaurin sums (see `_power_moments`): 63
    explicit terms and a closed-form remainder, so no 200 000-term array
    is made.
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

    An item's vectors are one `random(vectors * k)` call, split into its
    rows: Generator.random(n) takes n consecutive doubles, so the values
    and the stream's state after it are those of the separate calls.
    Returns [(idx, rows)], one entry per drawn length k: idx holds the draw
    positions of the items of that length and rows[j] their j-th vectors,
    stacked into an (len(idx), k) array.
    """
    idx = [[] for _ in range(12)]
    flat = [[] for _ in range(12)]
    integers, random = rng.integers, rng.random
    for i in range(count):
        k = int(integers(1, 12))
        idx[k].append(i)
        flat[k].append(random(vectors * k))
    out = []
    for k in range(1, 12):
        if idx[k]:
            draws = np.array(flat[k]).reshape(len(idx[k]), vectors, k)
            out.append((np.array(idx[k]), [draws[:, j] for j in range(vectors)]))
    return out


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


# Entropy-ratio sequences are checked in blocks of at least this many
# entries, each dropped once checked: see `_entropy_suite`.
_ENTROPY_BLOCK = 1 << 13


def _entropy_draws(rng, count, max_len):
    """The `count` entropy sequences of the verification, drawn one at a time.

    Each is `integers(1, max_len + 1)` -> k and one `random(k + 1)` call:
    its first k values scaled to the total min(1, last value + 0.5), then
    capped at 1.
    """
    integers, random = rng.integers, rng.random
    for _ in range(count):
        k = int(integers(1, max_len + 1))
        a = random(k + 1)
        scale = a[k]
        a = a[:k]
        a /= a.sum() / min(1.0, scale + 0.5)
        yield np.minimum(a, 1.0)


def _entropy_suite(seqs):
    """`_entropy_ratio_rows` over an iterable of sequences: (lhs, rhs, holds) in order.

    The sequences are checked in blocks of at least _ENTROPY_BLOCK
    entries, and each block is dropped once checked, so no more than one
    block and its temporaries are held.  Drawing and checking 300
    sequences of up to 2000 entries took 9-10 ms in blocks of 2^13
    entries, 12-13 ms at 2^14 and 14 ms at 2^15 on a 2-core Xeon: the
    temporaries of larger blocks leave the cache.
    """
    out = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))]
    block, size = [], 0
    for a in seqs:
        block.append(a)
        size += len(a)
        if size >= _ENTROPY_BLOCK:
            out.append(_entropy_ratio_rows(block))
            block, size = [], 0
    if block:
        out.append(_entropy_ratio_rows(block))
    return tuple(np.concatenate(col) for col in zip(*out))


def run_verification(n_pairs=100_000, n_prop=1_000, n_entropy=10_000,
                     max_len=10_000, seed=20240501, quick=False):
    """Randomized oracle suites; returns a report dict with a violation count.

    Draw order, which fixes the pairs and sequences a seed checks: one
    Philox(seed) stream gives, for each of the n_pairs random pairs,
    ``integers(1, 12)`` -> k, ``random(k)`` (a) and ``random(k)`` (beta);
    then for each of the n_prop proportional pairs ``integers(1, 12)`` -> k
    and ``random(k)`` (beta); then for each entropy sequence
    ``integers(1, max_len + 1)`` -> k, ``random(k)`` and ``random()``.
    The draws after each ``integers`` call are taken as one ``random``
    call of their total length (2k for a random pair, k + 1 for an entropy
    sequence), which gives the same doubles and leaves the stream in the
    same state.  A suite's pairs are drawn first and then checked in
    arrays, one block per length k; each pair's slack and equality flag are
    bit-identical to ``log_sum_check`` on that pair.  Entropy-ratio
    sequences are checked in blocks of at least 2^13 entries
    (``_entropy_ratio_rows``, of which ``entropy_ratio_check`` is the
    one-row call), and each block is dropped once checked.  Last,
    ``ratio_decay_probe`` over r = 2, 5, 10, 30, 100 (no draws) must
    decrease and end below 0.2.  It builds no heavy-tail sequence and sums
    no 200 000-term array (see ``ratio_decay_probe``), so it costs a few
    percent of a quick run.  The counts must be integers >= 0 and max_len
    an integer >= 1 (OutOfRange before any draw otherwise).
    """
    if quick:
        n_pairs, n_prop, n_entropy, max_len = 2_000, 50, 200, 1_000
    for name, value, least in (("n_pairs", n_pairs, 0), ("n_prop", n_prop, 0),
                               ("n_entropy", n_entropy, 0), ("max_len", max_len, 1)):
        if not (_is_int(value) and value >= least):
            raise OutOfRange(f"run_verification needs an integer {name} >= {least}, "
                             f"got {value!r}")
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

    ratio_fails = np.flatnonzero(~_entropy_suite(_entropy_draws(rng, n_entropy, max_len))[2])
    violations.extend(f"entropy_ratio violated at sequence {i}" for i in ratio_fails)

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
        "entropy_ratio_failures": len(ratio_fails),
        "ratio_decay": [(r, v) for r, v, _ in probe],
        "violations": violations,
    }
