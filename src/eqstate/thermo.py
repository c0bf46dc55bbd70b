"""Pressure equation, maximal-entropy and Gibbs weights, projections, tails.

Everything is driven by level data: enumerated (n, weight-sum) tables from
a scheme, or closed-form level-count generators.  The pressure root is the
unique s with sum_n W_n e^{-s n} = 1, found by Newton on the log of the
series, which is convex and decreasing in s.  Level tables are rows of
one array and are solved together by array operations (`_solve_rows`): a
pressure curve solves all its rows in one call, and each row gets the
root it would get alone.  Each row starts at its growth exponent
max log(W_n)/n, so negative pressures are found too.

Tables are read as arrays of their occupied levels and counts
(`LevelCounts.occupied`), closed forms as the row of their first N
levels (`LevelCounts.levels`), by the same solver; the growth
certificate count(n) <= prefactor e^{rate n} bounds the levels beyond N
by a geometric remainder (`_remainders`, the only one) below 2^-60, which is
the reported ``truncation_error``.  Mean return, entropy, delta(F) and
total mass are dot products over level arrays with such remainders, and
diverge when the level weights decay no faster than the counts grow.
Horizon-truncated tables estimate theirs by one rule, `_tail_estimate`.

The zero-potential route and the Gibbs route share one solver and one
tail rule, so ``gibbs_equilibrium`` with a zero potential reproduces
``pressure_root`` (``truncation_error`` too) and ``mme`` bit for bit.

Induced potentials and sampling read the scheme's orbit table
(`InducingScheme.orbit_table`), the one pullback of the base through its
chains (made by the build, or stored in a scheme file) that also
certifies it, so no potential pulls a chain again.  At the three samples
of every trie node, -t log|f'| is read off the table (`OrbitTable.log_df`)
and other potentials are evaluated in one call; the node values are
summed depth by depth from the root, so each branch's sum runs along its
path to its leaf; its value is taken at its cylinder's mean-value point.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AtCriticalOrBoundary,
    DivergentEntropy,
    InfiniteMeanReturn,
    NoFiniteRoot,
    NoRoot,
    OrbitHitsCritical,
    OutOfRange,
)
from .inducing import InducingScheme, LevelCounts, _check_tol, level_counts
from .maps import MapSpec, _is_int, _same_map

__all__ = [
    "entropy_term",
    "Potential",
    "constant_potential",
    "geometric_potential",
    "callable_potential",
    "InducedPotential",
    "induced_potential",
    "MassDistribution",
    "PressureReport",
    "pressure_root",
    "mme",
    "total_mass",
    "mean_return",
    "bernoulli_entropy",
    "normalized_entropy",
    "delta_F",
    "GibbsResult",
    "gibbs_equilibrium",
    "truncated_gurevich",
    "project_integral",
    "EmpiricalMeasure",
    "sample_original_measure",
    "TailReport",
    "tail_analysis",
    "fat_perturbation",
]


def entropy_term(x: float) -> float:
    """H(x) = x log(1/x), with H(0) = H(1) = 0."""
    if not 0 <= x <= 1 + 1e-15:  # NaN fails too
        raise OutOfRange(f"entropy_term needs x in [0, 1], got {x!r}")
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log(x)


def _entropy_arr(w):
    """H(w) = -w log w entrywise for w in (0, 1), and +0.0 elsewhere (NaN too).

    Entries off (0, 1) are read as 1, whose term is +0.0, so there is no
    gather or scatter; 0.0 - y is -y exactly for the nonzero y of (0, 1).
    """
    w = np.asarray(w, dtype=float)
    v = np.where((w > 0) & (w < 1), w, 1.0)
    return 0.0 - v * np.log(v)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Observable on the phase space; 'geometric' is -t log|f'|."""

    kind: str
    c: float = 0.0
    t: float = 1.0
    fn: object = field(default=None, compare=False)

    def value(self, m: MapSpec, x: float) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "geometric":
            return -self.t * math.log(abs(_deriv_closure(m, x)))
        return float(self.fn(x))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant:c={self.c:g}"
        if self.kind == "geometric":
            return f"geometric:t={self.t:g}"
        return "callable"


def constant_potential(c: float) -> Potential:
    return Potential("constant", c=float(c))


def geometric_potential(t: float = 1.0) -> Potential:
    return Potential("geometric", t=float(t))


def callable_potential(fn) -> Potential:
    return Potential("callable", fn=fn)


def _deriv_closure(m: MapSpec, x: float) -> float:
    """Derivative at x, using the right-adjacent branch at boundary points."""
    x = m.space.wrap(x)
    i = m.branch_index(x)
    if i >= 0:
        return float(m.branches[i].df(x))
    for b in m.branches:
        if abs(b.lo - x) <= 1e-14:
            return float(b.df(b.lo))
    for b in m.branches:
        if abs(b.hi - x) <= 1e-14:
            return float(b.df(b.hi))
    raise AtCriticalOrBoundary(f"derivative undefined at {x!r}")


# ---------------------------------------------------------------------------
# induced potentials


@dataclass(frozen=True)
class InducedPotential:
    """Per-branch values of the lifted potential phi-bar(x) = sum phi(f^j x)."""

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def induced_potential(m: MapSpec, s: InducingScheme, phi: Potential) -> InducedPotential:
    """phi-bar at every branch's mean-value point, with its range over the samples.

    phi-bar is summed along the pullbacks of B_lo + delta, the base
    midpoint and B_hi - delta (delta = 1e-3 diam B); the value is taken
    linear between two of them at the point where |(f^R)'| = |B|/|P|
    (`OrbitTable.weights`), so for phi = -log|f'| e^{phi-bar} is |P|/|B|.
    lower/upper are the least and greatest of phi-bar over the three
    samples, not a bound on its oscillation over the cylinder.

    The samples and their log|f'| come from the scheme's orbit table, made
    on s.map; m, the map of phi, must be that map (the same space, critical
    set and branch specs; OutOfRange otherwise).  OrbitHitsCritical is
    raised for a sample that meets the critical set, then ToleranceFailure
    for a scheme that fails its full-branch certificate, on every call.
    """
    if not _same_map(m, s.map):
        raise OutOfRange(f"induced_potential needs the scheme's map {s.map.name}, "
                         f"got {m.name}")
    tab = s.orbit_table
    if tab.critical_hit is not None:
        raise OrbitHitsCritical(tab.critical_hit)
    tab.certify()
    T = s.trie
    if phi.kind == "geometric":
        v = -phi.t * tab.log_df
    else:
        r = T.at[1]
        v = np.zeros((len(T.parent), 3))
        v[r:] = phi.c if phi.kind == "constant" else np.reshape(
            [float(phi.fn(x)) for x in T.values[r:, 1:4].ravel().tolist()], (-1, 3))
    for a, b in zip(T.at[2:-1], T.at[3:]):  # a node's sum runs from the root to it
        v[a:b] += v[T.parent[a:b]]
    samples = v[T.leaf]
    mid = samples[:, 1]  # equal samples give their value exactly
    values = mid + np.where(tab.weights > 0, tab.weights * (samples - mid[:, None]), 0.0).sum(1)
    return InducedPotential(values=values, lower=samples.min(axis=1), upper=samples.max(axis=1))


# ---------------------------------------------------------------------------
# series engine

def _log(W) -> np.ndarray:
    """log W, with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(W, dtype=float))


def _level_rows(R: np.ndarray, values) -> tuple:
    """Levels n and weight rows W[k, j] = sum over R(P) = n_j of e^{values[k, P]}.

    A 1-d `values` gives one row.  Every level sums its branches in branch
    order, whatever the number of rows.  A row whose weights overflow holds
    inf (nan for a nan value) and no warning is raised.
    """
    n, inv = np.unique(R, return_inverse=True)
    V = np.atleast_2d(values)
    K, L = V.shape[0], len(n)
    with np.errstate(over="ignore"):
        E = np.exp(V)
    idx = inv.reshape(1, -1) + L * np.arange(K).reshape(-1, 1)
    W = np.bincount(idx.ravel(), weights=E.ravel(), minlength=K * L).reshape(K, L)
    return n, W


def _level_row(R: np.ndarray, values) -> tuple:
    """_level_rows for one row of values, or NoFiniteRoot where a weight overflows."""
    n, W = _level_rows(R, values)
    if not np.all(np.isfinite(W)):
        raise NoFiniteRoot("induced potential produces non-finite level weights")
    return n, W


def _series_rows(n: np.ndarray, logW: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G_k(s_k) = sum_j e^{logW[k, j] - s_k n_j} for every row k."""
    return np.sum(np.exp(logW - s[:, None] * n), axis=1)


def _solve_rows(n, logW, truncated: bool, tol: float):
    """Roots p_k of G_k(p) = sum_j e^{logW[k, j] - p n_j} = 1 for all rows at once.

    Newton on log G_k, which is convex and decreasing in p (every n_j >= 1),
    runs on the whole batch by array operations.  Each row starts at its
    growth exponent r_k = max_j logW[k, j] / n_j, which may be negative: no
    term exceeds 1 there and the largest equals 1, so G_k(r_k) >= 1, and
    from there the steps climb to the root without passing it.  A row
    stops on its own once a step no longer increases p (it has converged,
    or rounding turned the step back), so its root does not depend on the
    other rows.  Steps read the whole arrays while every row steps, and
    gather the rows still stepping once one has stopped; each row has the
    same bits either way.  A truncated row with G_k(r_k) <= 1 has no root (the
    horizon is too short).  The bracket is (r_k, max_j (logW[k, j] + log L)
    / n_j), at whose upper end each of the L terms is at most 1/L.

    Returns (root, residual, bracket_lo, bracket_hi, errors): arrays over
    rows, and a list holding None for every solved row and the NoRoot
    message of every other (whose root is NaN).
    """
    n = np.asarray(n, dtype=float)
    # C order, as a gathered copy is: a whole-array step sums each row alike
    logW = np.ascontiguousarray(logW, dtype=float)
    K = len(logW)
    errors = [None] * K

    def fail(rows, msg):
        for k in rows:
            errors[k] = msg

    # ufunc reductions, not np.max and np.sum: the same sums, with no Python wrapper
    lo = np.maximum.reduce(logW / n, axis=1, initial=-np.inf)
    hi = np.maximum.reduce((logW + math.log(max(len(n), 1))) / n, axis=1, initial=-np.inf)
    ok = np.isfinite(lo)
    fail(np.flatnonzero(~ok), "series has no positive level weight")
    rows = np.flatnonzero(ok)
    if truncated:
        below = _series_rows(n, logW[rows], lo[rows]) <= 1.0
        fail(rows[below], "truncated series stays below 1 down to its growth rate; "
                          "the enumerated horizon is insufficient")
        rows = rows[~below]
    p, res = lo.copy(), np.full(K, np.nan)
    todo = rows
    for _ in range(100):
        every = len(todo) == K  # every row still steps: whole arrays, no gathers
        lw, pt = (logW, p) if every else (logW[todo], p[todo])
        E = np.exp(lw - pt[:, None] * n)
        g = np.add.reduce(E, axis=1)
        nxt = pt + np.log(g) * g / np.add.reduce(E * n, axis=1)
        up = nxt > pt
        if every and up.all():
            p = nxt
            continue
        res[todo[~up]] = np.abs(g[~up] - 1.0)
        p[todo[up]] = nxt[up]
        todo = todo[up]
        if not len(todo):
            break
    if len(todo):  # rows the cap stopped
        res[todo] = np.abs(_series_rows(n, logW[todo], p[todo]) - 1.0)
    for k in rows[res[rows] > tol]:
        errors[k] = f"Newton stalled with residual {res[k]:.3e} > tol {tol:.3e}"
    root = np.where([e is None for e in errors], p, np.nan)
    return root, res, lo, hi, errors


def _solve_one(n, logW, truncated: bool, tol: float):
    """_solve_rows for one row: (root, residual, bracket_lo, bracket_hi), or NoRoot."""
    root, res, lo, hi, errors = _solve_rows(n, np.reshape(logW, (1, -1)), truncated, tol)
    if errors[0] is not None:
        raise NoRoot(errors[0])
    return float(root[0]), float(res[0]), float(lo[0]), float(hi[0])


def _tail_rates(n, W):
    """(r, rate) per row of W for `_tail_estimate`: r is the largest
    one-level weight ratio W_{m+1} / W_m over the trailing half of the
    table (-inf where the row has none: fewer than 4 levels, or no two
    consecutive ones), and rate the growth rate of the tail it makes, log r,
    or without r the growth certificate's rate max_j log(W_j) / n_j."""
    h = len(n) // 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W0, W1 = W[:, h:-1], W[:, h + 1:]
        ok = (len(n) >= 4) & (n[h + 1:] == n[h:-1] + 1) & (W0 > 0)
        r = np.max(np.where(ok, W1 / W0, -np.inf), axis=1, initial=-np.inf)
        cert = np.max(np.log(W) / n, axis=1, initial=-np.inf)
        return r, np.where(r == -np.inf, cert, np.log(r))


def _tail_estimate(n, W, p):
    """Extrapolated tails sum_{m > N} W_m e^{-p m} of truncated rows at p,
    for `pressure_root`, `gibbs_equilibrium` and `pressure_curve` alike.

    The levels beyond the horizon N continue the ratio r of `_tail_rates`,
    W_{N+k} = W_N r^k, so the tail is W_N e^{-pN} q / (1 - q) with
    q = r e^{-p} (infinite once q >= 1).  Rows with no such ratio take the
    geometric remainder (`_remainders`) of the growth certificate
    W_m <= e^{rate m}.  Returns the tails and the rows' rates (`_tail_rates`).
    """
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    r, rate = _tail_rates(n, W)
    if not len(n):  # no level, so nothing is known of the tail
        return np.full(len(p), np.inf), rate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = r * np.exp(-p)
        tail = np.where(q < 1.0, np.exp(np.log(W[:, -1]) - p * n[-1]) * q / (1.0 - q), np.inf)
        cert = np.flatnonzero(r == -np.inf)
        tail[cert] = _remainders(0.0, np.exp(rate[cert] - p[cert]), int(n[-1]))[0]
    return tail, rate


# ---------------------------------------------------------------------------
# closed-form level arrays: levels 1..N, and beyond N a geometric remainder
# from the certificate count(n) <= prefactor e^{rate n}, below _TAIL_EPS

_TAIL_EPS = 2.0 ** -60
_MAX_LEVELS = 1 << 20


def _remainders(log_a, x, N):
    """(sum_{n>N} a x^n, sum_{n>N} n a x^n) for a = e^{log_a}, x >= 0; inf
    where x >= 1 or is NaN.  An array x gives arrays, each element taken
    alone by libm's exp and log, so its bits do not depend on its array
    and no numpy warning is raised."""
    if isinstance(x, np.ndarray):
        t = np.reshape([_remainders(log_a, v, N) for v in x.ravel().tolist()], (-1, 2))
        return t[:, 0].reshape(x.shape), t[:, 1].reshape(x.shape)
    if not x < 1.0:
        return math.inf, math.inf
    if x <= 0.0:
        return 0.0, 0.0
    e = log_a + (N + 1) * math.log(x)
    t0 = (math.exp(e) if e < 700.0 else math.inf) / (1.0 - x)
    return t0, t0 * (N + 1 - N * x) / (1.0 - x)


def _horizon(log_a, x):
    """A horizon N >= 1 with sum_{n>N} n e^{log_a} x^n <= _TAIL_EPS, stepped up
    from where e^{log_a} x^N alone reaches _TAIL_EPS."""
    if not x < 1.0:
        raise DivergentEntropy(f"level masses decay at ratio {x!r} >= 1: the series diverges")
    N = max(1, math.ceil((math.log(_TAIL_EPS) - log_a) / math.log(x)))
    while True:
        t1 = _remainders(log_a, x, N)[1]
        if t1 <= _TAIL_EPS:
            return N
        N += max(1, math.ceil(math.log(t1 / _TAIL_EPS) / -math.log(x)))
        if N > _MAX_LEVELS:
            raise OutOfRange(f"level masses decay too slowly (ratio {x!r}) "
                             f"to sum within {_MAX_LEVELS} levels")


_DYADIC_LEVELS = _horizon(0.0, 0.5)  # where the spread 2^{-n} leaves below _TAIL_EPS


def _closed_root(counts: LevelCounts, tol: float):
    """(root, residual, bracket_lo, bracket_hi, remainder, N) on levels 1..N.

    The root h_N of the first N levels lies below the full root, so the
    remainder at h_N bounds the one at the full root, and (as G' <= -1)
    the root's truncation error.  N starts from h >= log count(1) (the
    first term is at most 1 at the root), or at 64 when that is no lower
    bound above the growth rate, and grows until the remainder is below
    _TAIL_EPS.
    """
    log_p = math.log(counts.prefactor)
    g = counts.log_count(1)
    N = _horizon(log_p, math.exp(counts.rate - g)) if g > counts.rate else 64
    while True:
        h, res, blo, bhi = _solve_one(*counts.levels(N), False, tol)
        tail = _remainders(log_p, math.exp(counts.rate - h), N)[0]
        if tail <= _TAIL_EPS:
            return h, res, blo, bhi, tail, N
        N = _horizon(log_p, math.exp(counts.rate - h))


def _mme_horizon(counts: LevelCounts, h: float) -> int:
    """Last level N of the closed-form maximal-entropy level arrays.

    N takes the n-weighted remainder sum_{n>N} n prefactor e^{(rate - h) n}
    below _TAIL_EPS: the remainder of the mean return, and (times h - rate)
    a bound on that of sum_n H(mass_n).  N also covers a dyadic spread
    2^{-n}, which fat_perturbation mixes in on these levels.
    """
    return max(_horizon(math.log(counts.prefactor), math.exp(counts.rate - h)), _DYADIC_LEVELS)


def _mme_sums(counts: LevelCounts, h: float):
    """(mean return, sum_n H(mass_n)) over the mme level masses #{R=n} e^{-hn}.

    The levels are a table's occupied ones, or 1.._mme_horizon of a closed
    form.  The one computation behind pressure_root's mean_return and
    delta_f and behind delta_F, so that both report delta(F) bit for bit.
    """
    if counts.support == "infinite":
        n, logc = counts.levels(_mme_horizon(counts, h))
        M = np.exp(logc - h * n)
    else:
        n, c = counts.occupied
        M = c * np.exp(-h * n)
    return float(np.dot(n, M)), float(np.sum(_entropy_arr(M)))


def _closed_sums(counts: LevelCounts, w: np.ndarray, decay: float, positive: bool):
    """(total mass, mean return, entropy) of level weights w(n), n = 1..N.

    Dot products over the levels n = 1..N and their log #{R=n}
    (`LevelCounts.levels`).  `positive` says that no weight is 0, so
    log w is finite and needs neither a warning filter nor a floor (the
    sums are the same).  A table (finite or truncated) has no levels
    beyond N.  Beyond N the level masses of a closed form are at most
    a x^n, x = e^{rate - decay}, a = prefactor w(N) e^{decay N}: all three
    sums are inf when x >= 1, and OutOfRange is raised unless their
    geometric remainders are within a few ulps of them.
    """
    N = len(w)
    n, logc = counts.levels(N)
    logw = np.log(w) if positive else _log(w)
    M = np.exp(logc + logw)
    # count(n) H(w(n)) = -M log w for 0 < w < 1, and 0 where w is 0 or >= 1
    # (the log of a 0 weight is floored, so that its term is 0, not NaN)
    H = -np.minimum(logw if positive else np.maximum(logw, -1e300), 0.0)
    sums = (float(np.add.reduce(M)), float(np.dot(n, M)), float(np.dot(M, H)))
    if counts.support != "infinite" or decay == math.inf or not N or w[-1] == 0:
        return sums
    if decay <= counts.rate:
        return (math.inf,) * 3
    lw = float(logw[-1])
    t0, t1 = _remainders(math.log(counts.prefactor) + lw + decay * N,
                         math.exp(counts.rate - decay), N)
    # H is increasing below 1/e, where the weight bound w(N) e^{-decay (n - N)} sits
    tH = decay * t1 - (lw + decay * N) * t0 if lw - decay <= -1.0 else math.inf
    for v, rem in zip(sums, (t0, t1, tH)):
        if not rem <= 4 * math.ulp(max(1.0, v)):
            raise OutOfRange(f"level weights stored to level {N} leave a remainder "
                             f"up to {rem:.3e} beyond it; store more levels")
    return sums


# ---------------------------------------------------------------------------
# reports and distributions


@dataclass(frozen=True)
class PressureReport:
    h: float
    mean_return: float
    delta_f: float
    tail_rate: float
    truncation_error: float
    residual: float
    delta_f_boundary: bool
    support: str
    tol: float
    bracket: tuple
    levels: int  # the solved row's last level; the remainder lies beyond it

    def to_json(self) -> dict:
        return {**asdict(self), "bracket": list(self.bracket)}


@dataclass(frozen=True)
class MassDistribution:
    """Branch weights of an F-invariant Bernoulli measure, in one of two forms:
    per-branch (`branch_weights`, aligned with a scheme's branch order, and
    their `branch_times`) or level-constant: `level_weights[n - 1]` is the
    weight of every level-n branch for n = 1..N, `counts` gives the number
    of branches per level, and beyond N the weights of a closed form obey
    w(n) <= w(N) e^{-weight_decay (n - N)} (the default inf puts no weight
    there; a table has no levels there).

    Both forms are checked and summed once, at construction: exactly one
    weight array, 1-d, finite and non-negative, and times of its shape, or
    OutOfRange.  `_sums` keeps (total mass, mean return, entropy); a branch
    sum that overflows is OutOfRange, a level series that diverges is inf
    there, and its reader's error.  `residual` is |1 - total mass|, derived;
    truncated schemes keep their raw weights so algebraic identities
    (H = h * mean return) survive truncation.  Level weights read
    `LevelCounts.levels` and keep the dyadic spread `_spread` on first use.
    """

    counts: LevelCounts
    branch_weights: np.ndarray = None
    branch_times: np.ndarray = None
    level_weights: np.ndarray = None
    weight_decay: float = math.inf
    residual: float = field(init=False)

    def __post_init__(self):
        per_branch = self.level_weights is None
        if per_branch == (self.branch_weights is None):
            raise OutOfRange("a measure needs exactly one of branch_weights and level_weights")
        w = np.asarray(self.branch_weights if per_branch else self.level_weights, dtype=float)
        lo = np.minimum.reduce(w, initial=math.inf) if w.ndim == 1 else math.nan
        # NaN fails both reductions
        if not (lo >= 0 and np.maximum.reduce(w, initial=0.0) < math.inf):
            raise OutOfRange("weights must be a 1-d array, finite and non-negative")
        if per_branch:
            R = np.asarray(self.branch_times, dtype=float)
            if R.shape != w.shape:
                raise OutOfRange(f"branch_times of shape {R.shape} do not match the weights")
            with np.errstate(over="ignore", invalid="ignore"):
                sums = (float(np.sum(w)), float(np.dot(w, R)), float(np.sum(_entropy_arr(w))))
            if not all(map(math.isfinite, sums)):
                raise OutOfRange(f"branch weight sums {sums} are not finite")
            object.__setattr__(self, "branch_times", R)
        else:
            sums = _closed_sums(self.counts, w, self.weight_decay, lo > 0)
        object.__setattr__(self, "branch_weights" if per_branch else "level_weights", w)
        object.__setattr__(self, "_sums", sums)
        object.__setattr__(self, "residual", abs(1.0 - sums[0]))

    @property
    def enumerated(self) -> bool:
        return self.branch_weights is not None

    @cached_property
    def _spread(self) -> np.ndarray:
        """The dyadic spread (`_dyadic_spread`) on the stored levels, made on
        the first `fat_perturbation` with these counts and kept."""
        return _dyadic_spread(self.counts, len(self.level_weights))

    def level_weight(self, n: int) -> float:
        """Weight of every level-n branch of a closed form, n = 1..N."""
        N = 0 if self.level_weights is None else len(self.level_weights)
        if not (_is_int(n) and 1 <= n <= N):
            raise OutOfRange(f"level {n!r} is not an integer in the stored levels 1..{N}")
        return float(self.level_weights[n - 1])

    def _sum(self, k: int, error) -> float:
        """Sum k of (total mass, mean return, entropy), or `error` where it diverges."""
        if math.isinf(self._sums[k]):
            raise error(f"level weights decay at rate {self.weight_decay!r}, not above "
                        f"the count growth rate {self.counts.rate!r}: the series diverges")
        return self._sums[k]


def total_mass(m: MassDistribution) -> float:
    return m._sum(0, DivergentEntropy)


def mean_return(m: MassDistribution) -> float:
    """sum m(P) R(P); raises InfiniteMeanReturn when the series diverges."""
    return m._sum(1, InfiniteMeanReturn)


def bernoulli_entropy(m: MassDistribution) -> float:
    """sum_P H(m(P)) over branches."""
    return m._sum(2, DivergentEntropy)


def normalized_entropy(m: MassDistribution) -> float:
    """Entropy of the projected measure, H_m / int R dm (Abramov form)."""
    mr = mean_return(m)
    if not math.isfinite(mr) or mr <= 0:
        raise InfiniteMeanReturn("normalized entropy needs finite mean return")
    return bernoulli_entropy(m) / mr


def _check_h(h) -> None:
    """OutOfRange unless h, the exponent of mme-type level weights e^{-h n}, is finite."""
    if not math.isfinite(h):
        raise OutOfRange(f"h must be finite, got {h!r}")


def _delta_f_boundary(counts: LevelCounts, delta: float, h: float) -> bool:
    """Whether delta(F) is at an end of (0, h), where the paper puts it: one
    occupied level attains 0, constant counts attain h; flagged, not errors."""
    occupied = counts.occupied
    return ((occupied is not None and len(occupied[0]) == 1) or delta == 0.0
            or (math.isfinite(delta) and delta >= h - 1e-12))


def pressure_root(counts: LevelCounts, tol: float = 1e-12) -> PressureReport:
    """Solve sum_n #{R=n} e^{-h n} = 1 with its truncation error, the most the
    levels beyond those solved add at the root: for closed forms (`_closed_root`)
    the growth certificate's remainder, a certified bound; for a horizon-truncated
    table `_tail_estimate`'s, as in `gibbs_equilibrium`, an estimate, since
    nothing is known beyond the table's levels."""
    _check_tol(tol)
    truncated = counts.support == "truncated"
    tail_rate = counts.rate
    if counts.support == "infinite":
        h, res, blo, bhi, trunc, N = _closed_root(counts, tol)
    else:
        n, c = counts.occupied
        h, res, blo, bhi = _solve_one(n, np.log(c), truncated, tol)
        N = int(n[-1])
        trunc = 0.0
        if truncated:
            tail, rate = _tail_estimate(n, c[None], [h])
            trunc, tail_rate = float(tail[0]), float(rate[0])
    mean, delta = math.inf, math.nan
    if not (truncated and h - counts.rate < 1e-9):
        with suppress(DivergentEntropy):
            mean, ent = _mme_sums(counts, h)
            delta = ent / mean
    return PressureReport(
        h=h, mean_return=mean, delta_f=delta, tail_rate=tail_rate,
        truncation_error=trunc, residual=res,
        delta_f_boundary=_delta_f_boundary(counts, delta, h),
        support=counts.support, tol=tol, bracket=(blo, bhi), levels=N,
    )


def mme(counts: LevelCounts, h: float, scheme: InducingScheme = None) -> MassDistribution:
    """Maximal-entropy weights: every level-n branch gets e^{-h n}.

    Per branch of `scheme` when one is given; otherwise as level weights
    on levels 1..N (`LevelCounts.levels`), N a table's last level or a
    closed form's `_mme_horizon`, so no count is expanded into branches.
    OutOfRange for an h that is not finite.
    """
    _check_h(h)
    if scheme is not None:
        R = scheme.return_times()
        return MassDistribution(counts=counts, branch_weights=np.exp(-h * R), branch_times=R)
    N = _mme_horizon(counts, h) if counts.support == "infinite" else counts.max_level
    if N > _MAX_LEVELS:
        raise OutOfRange(f"level {N} is beyond the {_MAX_LEVELS} levels that level weights hold")
    return MassDistribution(counts=counts, level_weights=np.exp(-h * counts.levels(N)[0]),
                            weight_decay=h)


def delta_F(counts: LevelCounts, h: float) -> float:
    """(1 / int R dnu0) * sum_n H(nu0({R=n})); OutOfRange for an h that is not finite."""
    _check_h(h)
    mean, ent = _mme_sums(counts, h)
    if not math.isfinite(mean) or mean <= 0:
        raise InfiniteMeanReturn("delta(F) needs a finite mean return")
    return ent / mean


# ---------------------------------------------------------------------------
# Gibbs equilibrium for induced potentials


@dataclass(frozen=True)
class GibbsResult:
    pressure: float
    mass: MassDistribution
    residual: float
    truncation_error: float
    bracket: tuple

    def to_json(self):
        return {
            "pressure": self.pressure,
            "residual": self.residual,
            "truncation_error": self.truncation_error,
            "bracket": list(self.bracket),
        }


def gibbs_equilibrium(s: InducingScheme, phibar: InducedPotential,
                      tol: float = 1e-12) -> GibbsResult:
    """p with log sum_P e^{phibar(x_P) - p R(P)} = 0 and its Gibbs weights.

    With phibar identically zero this reproduces (pressure_root, mme)
    bit for bit: the level sums collapse to the integer counts and the
    same Newton solve runs.
    """
    _check_tol(tol)
    _check_branches(len(s), phibar.values, "phibar")
    R = s.return_times()
    n, W = _level_row(R, phibar.values)
    p, res, blo, bhi = _solve_one(n, _log(W), not s.exhausted, tol)
    trunc = 0.0 if s.exhausted else float(_tail_estimate(n, W, [p])[0][0])
    mass = MassDistribution(counts=level_counts(s), branch_weights=np.exp(phibar.values - p * R),
                            branch_times=R)
    return GibbsResult(pressure=p, mass=mass, residual=res,
                       truncation_error=trunc, bracket=(blo, bhi))


def truncated_gurevich(s: InducingScheme, phibar: InducedPotential, n: int,
                       tol: float = 1e-12) -> float:
    """Pressure of the compact sub-alphabet {R <= n} (one-step full shift).

    Returns -inf when no branch has return time <= n.  Non-decreasing in n
    and bounded above by the full Gibbs root.  The sub-alphabet is the
    scheme's level table with the levels above n masked out (Sarig's
    approximation of the Gurevich pressure by finite sub-alphabets).
    OutOfRange unless n is an integer (not a bool) and phibar has one
    value per branch of s.
    """
    _check_tol(tol)
    if not _is_int(n):
        raise OutOfRange(f"truncated_gurevich needs an integer n, got {n!r}")
    _check_branches(len(s), phibar.values, "phibar")
    R = s.return_times()
    if not np.any(R <= n):
        return -math.inf
    levels, W = _level_row(R, phibar.values)
    p, _, _, _ = _solve_one(levels, _log(np.where(levels <= n, W, 0.0)), False, tol)
    return p


# ---------------------------------------------------------------------------
# projections and sampling


def _check_branches(k: int, values, what: str) -> None:
    """OutOfRange unless values holds one entry for each of k branches."""
    if np.shape(values) != (k,):
        raise OutOfRange(f"{what} has shape {np.shape(values)}, not one entry "
                         f"for each of {k} branches")


def project_integral(m: MassDistribution, phibar: InducedPotential) -> float:
    """int phi dmu = sum m(P) phibar(x_P) / sum m(P) R(P); OutOfRange unless
    m has branch weights and phibar one value per weight."""
    if not m.enumerated:
        raise OutOfRange("project_integral needs enumerated branch weights")
    _check_branches(len(m.branch_weights), phibar.values, "phibar")
    denom = mean_return(m)
    if denom <= 0:
        raise InfiniteMeanReturn("projection needs a positive mean return")
    return float(np.dot(m.branch_weights, phibar.values)) / denom


@dataclass(frozen=True)
class EmpiricalMeasure:
    points: np.ndarray
    weights: np.ndarray
    draw_counts: np.ndarray
    seed: int

    def integrate(self, fn) -> float:
        vals = np.array([fn(x) for x in self.points])
        return float(np.dot(self.weights, vals))


def sample_original_measure(s: InducingScheme, m: MassDistribution,
                            n_samples: int, seed: int) -> EmpiricalMeasure:
    """Spread of the induced measure along return blocks, sampled by branch.

    Draws branches i.i.d. from m (normalized) and emits, once per drawn
    branch, the orbit segments {x, ..., f^{R-1} x} of its samples x: each
    point weighs the branch's draw count times the sample's weight at the
    branch's mean-value point (the scheme's orbit table), and the total
    is normalized.  Deterministic given the seed (Philox counter generator).
    OutOfRange unless m has positive mass on one weight per branch of s, and
    n_samples and seed are integers >= 0.
    """
    if not m.enumerated:
        raise OutOfRange("sampling needs enumerated branch weights")
    _check_branches(len(s), m.branch_weights, "the measure's branch weights")
    for name, v in (("n_samples", n_samples), ("seed", seed)):
        if not _is_int(v) or v < 0:
            raise OutOfRange(f"sampling needs an integer {name} >= 0, got {v!r}")
    mass = total_mass(m)
    if not mass > 0:
        raise OutOfRange("sampling needs a measure of positive mass")
    tab = s.orbit_table.certify()
    rng = np.random.Generator(np.random.Philox(seed))
    probs = m.branch_weights / mass
    draws = rng.choice(len(probs), size=n_samples, p=probs)
    cnt = np.bincount(draws, minlength=len(probs))
    drawn = np.flatnonzero(cnt)
    T, R = s.trie, s.return_times()[drawn]
    # orbits[k, c, j]: step j of drawn branch k's sample c
    orbits = np.empty((len(drawn), 3, int(R.max(initial=0))))
    node = T.leaf[drawn]
    for j in range(orbits.shape[2]):  # leaf to root; a root is its own parent
        orbits[:, :, j] = T.values[node, 1:4]
        node = T.parent[node]
    share = tab.weights[drawn] / max(float(np.dot(cnt[drawn], R)), 1.0)
    share *= cnt[drawn, None]
    emit = (share > 0)[:, :, None] & (np.arange(orbits.shape[2]) < R[:, None, None])
    points = orbits[emit]
    weights = np.broadcast_to(share[:, :, None], orbits.shape)[emit]
    return EmpiricalMeasure(points=points, weights=weights,
                            draw_counts=cnt, seed=int(seed))


# ---------------------------------------------------------------------------
# tails


# TailReport.bound pads the exact remainder by 1e-12 relative, which covers
# the rounding of x = e^{rate - h} and of the closed form, about
# (n + 1)(|log x| + 4) + 8 / (1 - x) ulps, wherever x <= 1/2 (the closed
# forms at their roots).  Below the floor, exp() may have lost digits to
# subnormals (at x <= 1/2 only below 4 (n + 1) 2^-1022, under 1e-300).
_TAIL_PAD = 1e-12
_TAIL_FLOOR = 1e-300


@dataclass(frozen=True)
class TailReport:
    """Tail sums sum_{k>n} k #{R=k} e^{-hk}: `constant` is the whole sum for
    finite support, and the growth certificate's prefactor otherwise."""

    rate: float
    pressure: float
    certificate: bool
    epsilon: float
    constant: float
    finite_support: bool
    max_level: int

    def bound(self, n: int) -> float:
        """Certified upper bound on sum_{k>n} k #{R=k} e^{-h k}: with
        #{R=k} <= prefactor e^{rate k}, the engine's geometric remainder, padded
        for rounding and floored at a positive double where the tail underflows."""
        if self.finite_support:
            return 0.0 if n >= self.max_level else self.constant
        if not self.certificate:
            return math.inf
        t1 = _remainders(math.log(self.constant), math.exp(self.rate - self.pressure), n)[1]
        return max(t1 * (1.0 + _TAIL_PAD), _TAIL_FLOOR)


def tail_analysis(counts: LevelCounts, h: float) -> TailReport:
    """Exponential-tails certificate: granted iff the counts are known at
    every level (finite or closed form) and their growth rate sits below h.

    When granted, the geometric remainder of the certificate law bounds
    sum_{k>n} k #{R=k} e^{-hk} for every n >= 0 (`TailReport.bound`), with
    eps = h - rate the decay rate of its terms.  A horizon-truncated
    table gets none: its rate is fitted to the levels it holds and says
    nothing of the counts beyond them.  OutOfRange for an h that is not
    finite.
    """
    _check_h(h)
    if counts.support == "finite":
        # tails vanish identically beyond the last level
        levels, c = (a.tolist() for a in counts.occupied)
        gross = sum(k * ck * math.exp(-h * k) for k, ck in zip(levels, c))
        return TailReport(rate=-math.inf, pressure=h, certificate=True, epsilon=math.inf,
                          constant=gross, finite_support=True, max_level=counts.max_level)
    eps = h - counts.rate
    cert = counts.support != "truncated" and eps > 1e-12
    return TailReport(rate=counts.rate, pressure=h, certificate=cert,
                      epsilon=eps if cert else 0.0, constant=counts.prefactor if cert else math.inf,
                      finite_support=False, max_level=0)


# ---------------------------------------------------------------------------
# fat-support perturbation


def _dyadic_mass(counts: LevelCounts) -> float:
    """W = sum_j 2^{-n_j} over the occupied levels n_j (1 over a closed form's)."""
    occupied = counts.occupied
    return 1.0 if occupied is None else sum(2.0 ** -n for n in occupied[0].tolist())


def _dyadic_spread(counts: LevelCounts, N: int) -> np.ndarray:
    """Level weights 2^{-n} / (W count(n)) of the dyadic spread at the levels
    n = 1..N (0 at empty levels)."""
    n, logc = counts.levels(N)
    # 2^{-n} / count(n) decays at log 2 + rate: closed forms equal their certificate
    m0 = np.exp(-math.log(2.0) * n - math.log(_dyadic_mass(counts)) - logc)
    if counts.occupied is not None:
        m0[logc == -np.inf] = 0.0  # empty levels hold no branch
    return m0


def fat_perturbation(m: MassDistribution, counts: LevelCounts,
                     gamma: float) -> MassDistribution:
    """(1-gamma) m + gamma m0, with m0 the dyadic spread over occupied levels.

    m0 gives level n_j total mass 2^{-n_j} / W, split evenly over its
    branches, where W = sum_j 2^{-n_j} over occupied levels; every branch
    weight becomes strictly positive and the mean return obeys
    (1-gamma) old + 2 gamma for all-levels-occupied structures.  Branch
    weights take m0 branch by branch (OutOfRange where `counts` has no
    branch at a return time of m); level weights read m's kept spread when
    `counts` is m's, or make it on `counts.levels`.
    """
    if not (0.0 < gamma < 1.0):
        raise OutOfRange("gamma must lie in (0, 1)")
    if m.enumerated:
        W = _dyadic_mass(counts)
        R, at = np.unique(m.branch_times, return_inverse=True)
        try:
            m0 = np.array([2.0 ** -n / (W * counts.count(n)) for n in R.astype(int).tolist()])[at]
        except ZeroDivisionError:
            raise OutOfRange("the counts have no branch at a return time of the weights") from None
        return MassDistribution(counts=counts, branch_weights=(1.0 - gamma) * m.branch_weights
                                + gamma * m0, branch_times=m.branch_times)
    m0 = m._spread if counts is m.counts else _dyadic_spread(counts, len(m.level_weights))
    return MassDistribution(counts=counts,
                            level_weights=(1.0 - gamma) * m.level_weights + gamma * m0,
                            weight_decay=min(m.weight_decay, math.log(2.0) + counts.rate))
