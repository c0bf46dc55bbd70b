"""Pressure equation, maximal-entropy and Gibbs weights, projections, tails.

Everything is driven by level data: enumerated (n, weight-sum) tables from
a scheme, or closed-form level-count generators.  The pressure root is the
unique s with sum_n W_n e^{-s n} = 1, found by bisection (the series is
strictly decreasing in s).  Level tables are rows of one array and are
bisected together by array operations (`_solve_rows`): a pressure curve
solves all its rows in one call, and each row gets the root it would get
alone.  Their bracket starts at the growth exponent max log(W_n)/n, so
negative pressures are found too.

Infinite closed forms go through the same solver on the row of their
first N levels; the growth certificate count(n) <= prefactor e^{rate n}
bounds the levels beyond N by a geometric remainder below 2^-60, which is
the reported ``truncation_error``.  Mean return, entropy, delta(F) and
total mass are dot products over level arrays with such remainders, and
diverge when the level weights decay no faster than the counts grow.
Horizon-truncated schemes carry an estimate of their tail in
``truncation_error``: its growth rate is fitted to the levels they hold.

The zero-potential route and the Gibbs route share one solver, so
``gibbs_equilibrium`` with a zero potential reproduces ``pressure_root``
and ``mme`` bit for bit.

Induced potentials and sampling read the scheme's orbit table
(`InducingScheme.orbit_table`), the one pullback of the base through its
chains (made by the build, or stored in a scheme file) that also
certifies it, so no potential pulls a chain again.  A
potential is evaluated at the three samples of every trie node in one
call, with the map branch of the node's step, and summed depth by depth
from the root, so each branch's sum runs along its path to its leaf; its
value is taken at its cylinder's mean-value point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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
from .maps import MapSpec, _same_map

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
    if x < 0 or x > 1 + 1e-15:
        raise OutOfRange(f"entropy_term needs x in [0, 1], got {x!r}")
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log(x)


def _entropy_arr(w):
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    pos = (w > 0) & (w < 1)
    out[pos] = -w[pos] * np.log(w[pos])
    return out


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


def _potential_many(m: MapSpec, phi: Potential, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi at the points x of the map branches g (array form of Potential.value);
    a geometric potential takes the derivative of branch g[k] at x[k]."""
    if phi.kind == "constant":
        return np.full(len(x), phi.c)
    if phi.kind == "geometric":
        d = np.empty(len(x))
        for k, br in enumerate(m.branches):
            sel = g == k
            if sel.any():
                d[sel] = br.df_many(x[sel])
        with np.errstate(divide="ignore"):
            np.log(np.abs(d, out=d), out=d)  # in place: x may be a whole orbit table
        d *= -phi.t
        return d
    return np.array([float(phi.fn(v)) for v in x.tolist()])


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

    The samples come from the scheme's orbit table, made on s.map; m, which
    evaluates phi, must be that map (the same space, critical set and
    branch specs; OutOfRange otherwise).  OrbitHitsCritical is raised for a
    sample that meets the critical set, then ToleranceFailure for a scheme
    that fails its full-branch certificate, on every call.
    """
    if not _same_map(m, s.map):
        raise OutOfRange(f"induced_potential needs the scheme's map {s.map.name}, "
                         f"got {m.name}")
    tab = s.orbit_table
    if tab.critical_hit is not None:
        raise OrbitHitsCritical(tab.critical_hit)
    tab.certify()
    T = s.trie
    r = T.at[1]
    v = np.zeros((len(T.parent), 3))
    v[r:] = _potential_many(m, phi, np.repeat(T.symbols[r:], 3),
                            T.values[r:, 1:4].ravel()).reshape(-1, 3)
    for a, b in zip(T.at[2:-1], T.at[3:]):  # a node's sum runs from the root to it
        v[a:b] += v[T.parent[a:b]]
    samples = v[T.leaf]
    mid = samples[:, 1]  # equal samples give their value exactly
    values = mid + np.where(tab.weights > 0, tab.weights * (samples - mid[:, None]), 0.0).sum(1)
    return InducedPotential(values=values, lower=samples.min(axis=1), upper=samples.max(axis=1))


# ---------------------------------------------------------------------------
# series engine

def _count_rows(counts: LevelCounts):
    """Occupied levels and the one log-weight row of enumerated counts."""
    table = [(n, float(c)) for n, c in counts.table if c > 0]
    return (np.array([n for n, _ in table], dtype=int),
            np.log([[c for _, c in table]]))


def _log(W) -> np.ndarray:
    """log W, with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(W, dtype=float))


def _level_rows(R: np.ndarray, values) -> tuple:
    """Levels n and weight rows W[k, j] = sum over R(P) = n_j of e^{values[k, P]}.

    A 1-d `values` gives one row.  Every level sums its branches in branch
    order, whatever the number of rows.
    """
    n, inv = np.unique(R, return_inverse=True)
    V = np.atleast_2d(values)
    K, L = V.shape[0], len(n)
    with np.errstate(over="ignore"):
        E = np.exp(V)
    idx = inv.reshape(1, -1) + L * np.arange(K).reshape(-1, 1)
    W = np.bincount(idx.ravel(), weights=E.ravel(), minlength=K * L).reshape(K, L)
    if not np.all(np.isfinite(W)):
        raise NoFiniteRoot("induced potential produces non-finite level weights")
    return n, W


def _series_rows(n: np.ndarray, logW: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G_k(s_k) = sum_j e^{logW[k, j] - s_k n_j} for every row k."""
    with np.errstate(over="ignore"):
        return np.sum(np.exp(logW - s[:, None] * n), axis=1)


def _solve_rows(n, logW, truncated: bool, tol: float):
    """Roots p_k of G_k(p) = sum_j e^{logW[k, j] - p n_j} = 1 for all rows at once.

    One bisection runs on the whole batch by array operations, but every
    row takes the bracket and the steps it would take alone, so a row's
    root does not depend on the other rows.  The lower bracket is the
    growth exponent r_k = max_j logW[k, j] / n_j, which may be negative:
    no term exceeds 1 there and the largest equals 1, so G_k(r_k) >= 1.
    A truncated row with G_k(r_k) <= 1 has no root (the horizon is too
    short); a finite row then steps its bracket down.

    Returns (root, residual, bracket_lo, bracket_hi, errors): arrays over
    rows, and a list holding None for every solved row and the NoRoot
    message of every other (whose root is NaN).
    """
    n = np.asarray(n, dtype=float)
    logW = np.asarray(logW, dtype=float)
    K = len(logW)
    errors = [None] * K

    def G(rows, s):
        return _series_rows(n, logW[rows], s)

    def fail(rows, msg):
        for k in rows:
            errors[k] = msg

    lo = np.max(logW / n, axis=1, initial=-np.inf)
    fail(np.flatnonzero(~np.isfinite(lo)), "series has no positive level weight")
    rows = np.flatnonzero(np.isfinite(lo))
    below = rows[G(rows, lo[rows]) <= 1.0]
    if truncated:
        fail(below, "truncated series stays below 1 down to its growth rate; "
                    "the enumerated horizon is insufficient")
    else:
        step = np.ones(K)
        for _ in range(200):
            if not len(below):
                break
            lo[below] -= step[below]
            step[below] *= 2.0
            below = below[G(below, lo[below]) <= 1.0]
        fail(below, "series never exceeds 1 (degenerate counts)")
    hi = lo + 1.0
    todo = np.array([k for k in rows if errors[k] is None], dtype=int)
    for _ in range(200):
        todo = todo[G(todo, hi[todo]) >= 1.0]
        if not len(todo):
            break
        hi[todo] = lo[todo] + 2.0 * (hi[todo] - lo[todo])
    fail(todo, "series never drops below 1 (divergent weights)")
    rows = np.array([k for k in rows if errors[k] is None], dtype=int)
    # bisect the rows still open, held compactly: (todo, a, b, lw, m) shrink together
    mid = 0.5 * (lo + hi)
    todo, a, b, lw, m = rows, lo[rows], hi[rows], logW[rows], mid[rows]
    steps = 200
    with np.errstate(over="ignore"):
        while len(todo) > 1 and steps:
            steps -= 1
            m = 0.5 * (a + b)
            g = np.sum(np.exp(lw - m[:, None] * n), axis=1)
            up = g > 1.0
            a = np.where(up, m, a)
            b = np.where(up, b, m)
            keep = ~((b - a <= 1e-15 * np.maximum(1.0, np.abs(m))) & (np.abs(g - 1.0) <= tol))
            if not keep.all():
                mid[todo[~keep]] = m[~keep]
                todo, a, b, lw, m = todo[keep], a[keep], b[keep], lw[keep], m[keep]
        if len(todo) == 1:
            m = [_bisect_row(n, lw[0], float(a[0]), float(b[0]), float(m[0]), tol, steps)]
        mid[todo] = m  # rows the step limit stopped, or the last row
    res = np.full(K, np.nan)
    res[rows] = np.abs(G(rows, mid[rows]) - 1.0)
    for k in rows[res[rows] > tol]:
        errors[k] = f"bisection stalled with residual {res[k]:.3e} > tol {tol:.3e}"
    root = np.where([e is None for e in errors], mid, np.nan)
    return root, res, lo, hi, errors


def _bisect_row(n, lw, a, b, m, tol, steps):
    """The array bisection's steps on one row in floats, without the per-call
    overhead of arrays: the last midpoint (m if no step is left)."""
    for _ in range(steps):
        m = 0.5 * (a + b)
        g = float(np.sum(np.exp(lw - m * n)))
        if g > 1.0:
            a = m
        else:
            b = m
        if b - a <= 1e-15 * max(1.0, abs(m)) and abs(g - 1.0) <= tol:
            break
    return m


def _solve_one(n, logW, truncated: bool, tol: float):
    """_solve_rows for one row: (root, residual, bracket_lo, bracket_hi), or NoRoot."""
    root, res, lo, hi, errors = _solve_rows(n, np.reshape(logW, (1, -1)), truncated, tol)
    if errors[0] is not None:
        raise NoRoot(errors[0])
    return float(root[0]), float(res[0]), float(lo[0]), float(hi[0])


def _certified_tail(rate, prefactor, N, s):
    """prefactor * sum_{m > N} e^{(rate - s) m}: the most that the levels
    beyond N add to the series at s if W_m <= prefactor e^{rate m}."""
    q = np.asarray(rate - s, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eq = np.exp(q)
        return np.where(q < -1e-300, prefactor * eq ** (N + 1) / (1.0 - eq), np.inf)


def _tail_estimate(n, W, p):
    """Extrapolated tails sum_{m > N} W_m e^{-p m} of truncated rows at p.

    The levels beyond the horizon N continue the largest one-level weight
    ratio r seen over the trailing half of the table, W_{N+k} = W_N r^k,
    so the tail is W_N e^{-pN} q / (1 - q) with q = min(r, 1) e^{-p}
    (infinite once q >= 1).  Rows with no such ratio (fewer than 4 levels,
    or no two consecutive ones) use the growth certificate instead, with
    rate max_j log(W_j) / n_j.
    """
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logW = np.log(W)
        cert = _certified_tail(np.max(logW / n, axis=1, initial=-np.inf), 1.0, n[-1], p)
        if len(n) < 4:
            return cert
        h = len(n) // 2
        W0, W1 = W[:, h:-1], W[:, h + 1:]
        ok = (n[h + 1:] == n[h:-1] + 1) & (W0 > 0)
        r = np.max(np.where(ok, W1 / W0, -np.inf), axis=1, initial=-np.inf)
        q = np.minimum(r, 1.0) * np.exp(-p)
        est = np.where(q < 1.0, np.exp(logW[:, -1] - p * n[-1]) * q / (1.0 - q), np.inf)
    return np.where(r > -np.inf, est, cert)


# ---------------------------------------------------------------------------
# closed-form level arrays: levels 1..N, and beyond N a geometric remainder
# from the certificate count(n) <= prefactor e^{rate n}, below _TAIL_EPS

_TAIL_EPS = 2.0 ** -60
_MAX_LEVELS = 1 << 20


def _remainders(log_a, x, N):
    """(sum_{n>N} a x^n, sum_{n>N} n a x^n) for a = e^{log_a} and 0 <= x < 1."""
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
        n = np.arange(1, N + 1)
        h, res, blo, bhi = _solve_one(n, counts.log_counts(n), False, tol)
        tail = float(_certified_tail(counts.rate, counts.prefactor, N, h))
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
    return max(_horizon(math.log(counts.prefactor), math.exp(counts.rate - h)),
               _horizon(0.0, 0.5))


def _mme_sums(counts: LevelCounts, h: float):
    """(mean return, sum_n H(mass_n)) over the mme level masses #{R=n} e^{-hn}.

    The levels are a table's occupied ones, or 1.._mme_horizon of a closed
    form.  The one computation behind pressure_root's mean_return and
    delta_f and behind delta_F, so that both report delta(F) bit for bit.
    """
    if counts.support == "infinite":
        n = np.arange(1, _mme_horizon(counts, h) + 1)
        M = np.exp(counts.log_counts(n) - h * n)
    else:
        n = np.array([k for k, c in counts.table if c > 0], dtype=float)
        M = np.array([c for k, c in counts.table if c > 0], dtype=float) * np.exp(-h * n)
    return float(np.dot(n, M)), float(np.sum(_entropy_arr(np.minimum(M, 1.0))))


def _closed_sums(counts: LevelCounts, w: np.ndarray, decay: float):
    """(total mass, mean return, entropy) of level weights w(n), n = 1..N.

    Dot products over the stored levels.  A table (finite or truncated)
    has no levels beyond N.  Beyond N the level masses of a closed form
    are at most a x^n, x = e^{rate - decay}, a = prefactor w(N) e^{decay N}:
    all three sums are inf when x >= 1, and OutOfRange is raised unless
    their geometric remainders are within a few ulps of them.
    """
    N = len(w)
    n = np.arange(1, N + 1)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    M = np.exp(counts.log_counts(n) + logw)
    # count(n) H(w(n)) = -M log w for 0 < w < 1, and 0 where w is 0 or >= 1
    sums = (float(M.sum()), float(np.dot(n, M)),
            float(np.dot(M, -np.minimum(np.maximum(logw, -1e300), 0.0))))
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
    """Branch weights of an F-invariant Bernoulli measure.

    Either per-branch (`branch_weights`, aligned with a scheme's branch
    order) or level-constant: `level_weights[n - 1]` is the weight of
    every level-n branch for n = 1..N, `counts` gives the number of
    branches per level, and beyond N the weights of a closed form obey
    w(n) <= w(N) e^{-weight_decay (n - N)} (the default inf puts no weight
    there; a table has no levels there).  `residual` records
    |1 - total mass|, which level weights compute themselves;
    horizon-truncated schemes keep their raw weights
    so algebraic identities (H = h * mean return) survive truncation.
    """

    counts: LevelCounts
    branch_weights: np.ndarray = None
    branch_times: np.ndarray = None
    level_weights: np.ndarray = None
    weight_decay: float = math.inf
    residual: float = 0.0

    def __post_init__(self):
        if self.level_weights is not None:
            w = np.asarray(self.level_weights, dtype=float)
            if not np.all(np.isfinite(w) & (w >= 0)):
                raise OutOfRange("level weights must be finite and non-negative")
            sums = _closed_sums(self.counts, w, self.weight_decay)
            object.__setattr__(self, "level_weights", w)
            object.__setattr__(self, "_sums", sums)
            object.__setattr__(self, "residual", abs(1.0 - sums[0]))

    @property
    def enumerated(self) -> bool:
        return self.branch_weights is not None

    def level_weight(self, n: int) -> float:
        """Weight of every level-n branch of a closed form, n = 1..N."""
        N = 0 if self.level_weights is None else len(self.level_weights)
        if not 1 <= n <= N:
            raise OutOfRange(f"level {n} is outside the stored levels 1..{N}")
        return float(self.level_weights[n - 1])

    def _sum(self, k: int, error) -> float:
        """Closed-form sum k of (total mass, mean return, entropy), or `error`."""
        if math.isinf(self._sums[k]):
            raise error(f"level weights decay at rate {self.weight_decay!r}, not above "
                        f"the count growth rate {self.counts.rate!r}: the series diverges")
        return self._sums[k]


def total_mass(m: MassDistribution) -> float:
    if m.enumerated:
        return float(np.sum(m.branch_weights))
    return m._sum(0, DivergentEntropy)


def mean_return(m: MassDistribution) -> float:
    """sum m(P) R(P); raises InfiniteMeanReturn when the series diverges."""
    if m.enumerated:
        return float(np.dot(m.branch_weights, m.branch_times))
    return m._sum(1, InfiniteMeanReturn)


def bernoulli_entropy(m: MassDistribution) -> float:
    """sum_P H(m(P)) over branches."""
    if m.enumerated:
        return float(np.sum(_entropy_arr(m.branch_weights)))
    return m._sum(2, DivergentEntropy)


def normalized_entropy(m: MassDistribution) -> float:
    """Entropy of the projected measure, H_m / int R dm (Abramov form)."""
    mr = mean_return(m)
    if not math.isfinite(mr) or mr <= 0:
        raise InfiniteMeanReturn("normalized entropy needs finite mean return")
    return bernoulli_entropy(m) / mr


def pressure_root(counts: LevelCounts, tol: float = 1e-12) -> PressureReport:
    """Solve sum_n #{R=n} e^{-h n} = 1 with its truncation error: the growth
    certificate's remainder beyond the levels solved at the root.  For
    closed forms (`_closed_root`) it is a certified bound; for a
    horizon-truncated table it is an estimate, since the rate is fitted
    to the levels the table holds."""
    _check_tol(tol)
    if counts.support == "infinite":
        h, res, blo, bhi, trunc, N = _closed_root(counts, tol)
    else:
        n, logW = _count_rows(counts)
        h, res, blo, bhi = _solve_one(n, logW, counts.support == "truncated", tol)
        N = int(n[-1])
        trunc = 0.0
        if counts.support == "truncated":
            trunc = float(_certified_tail(counts.rate, counts.prefactor, N, h))
    occupied = counts.occupied_levels()
    single = occupied is not None and len(occupied) == 1
    if counts.support == "truncated" and h - counts.rate < 1e-9:
        mean = math.inf
        delta = math.nan
    else:
        try:
            mean, ent = _mme_sums(counts, h)
            delta = ent / mean
        except DivergentEntropy:
            mean = math.inf
            delta = math.nan
    # paper asserts delta(F) in the open interval (0, h); single-level schemes
    # attain 0 and constant counts attain h, so both ends are flagged, not errors
    boundary = single or delta == 0.0 or (math.isfinite(delta) and delta >= h - 1e-12)
    return PressureReport(
        h=h, mean_return=mean, delta_f=delta, tail_rate=counts.rate,
        truncation_error=trunc, residual=res,
        delta_f_boundary=boundary,
        support=counts.support, tol=tol, bracket=(blo, bhi), levels=N,
    )


def mme(counts: LevelCounts, h: float, scheme: InducingScheme = None) -> MassDistribution:
    """Maximal-entropy weights: every level-n branch gets e^{-h n}.

    Per branch of `scheme` when one is given; otherwise as level weights
    on levels 1..N, N a table's last level or a closed form's
    `_mme_horizon`, so no count is expanded into branches.
    """
    if scheme is not None:
        R = scheme.return_times()
        w = np.exp(-h * R)
        resid = abs(1.0 - float(np.sum(w)))
        return MassDistribution(counts=counts, branch_weights=w,
                                branch_times=R.astype(float), residual=resid)
    N = _mme_horizon(counts, h) if counts.support == "infinite" else counts.max_level
    if N > _MAX_LEVELS:
        raise OutOfRange(f"level {N} is beyond the {_MAX_LEVELS} levels that level weights hold")
    n = np.arange(1, N + 1)
    return MassDistribution(counts=counts, level_weights=np.exp(-h * n), weight_decay=h)


def delta_F(counts: LevelCounts, h: float) -> float:
    """(1 / int R dnu0) * sum_n H(nu0({R=n}))."""
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
    same bisection runs.
    """
    _check_tol(tol)
    R = s.return_times()
    n, W = _level_rows(R, phibar.values)
    p, res, blo, bhi = _solve_one(n, _log(W), not s.exhausted, tol)
    trunc = 0.0 if s.exhausted else float(_tail_estimate(n, W, [p])[0])
    w = np.exp(phibar.values - p * R)
    resid = abs(1.0 - float(np.sum(w)))
    mass = MassDistribution(counts=level_counts(s), branch_weights=w,
                            branch_times=R.astype(float), residual=resid)
    return GibbsResult(pressure=p, mass=mass, residual=res,
                       truncation_error=trunc, bracket=(blo, bhi))


def truncated_gurevich(s: InducingScheme, phibar: InducedPotential, n: int,
                       tol: float = 1e-12) -> float:
    """Pressure of the compact sub-alphabet {R <= n} (one-step full shift).

    Returns -inf when no branch has return time <= n.  Non-decreasing in n
    and bounded above by the full Gibbs root.  The sub-alphabet is the
    scheme's level table with the levels above n masked out (Sarig's
    approximation of the Gurevich pressure by finite sub-alphabets).
    """
    _check_tol(tol)
    R = s.return_times()
    if not np.any(R <= n):
        return -math.inf
    levels, W = _level_rows(R, phibar.values)
    p, _, _, _ = _solve_one(levels, _log(np.where(levels <= n, W, 0.0)), False, tol)
    return p


# ---------------------------------------------------------------------------
# projections and sampling


def project_integral(m: MassDistribution, phibar: InducedPotential) -> float:
    """int phi dmu = sum m(P) phibar(x_P) / sum m(P) R(P)."""
    if not m.enumerated:
        raise OutOfRange("project_integral needs enumerated branch weights")
    w = m.branch_weights
    denom = float(np.dot(w, m.branch_times))
    if not math.isfinite(denom) or denom <= 0:
        raise InfiniteMeanReturn("projection needs a finite positive mean return")
    return float(np.dot(w, phibar.values)) / denom


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
    """
    if not m.enumerated:
        raise OutOfRange("sampling needs enumerated branch weights")
    tab = s.orbit_table.certify()
    rng = np.random.Generator(np.random.Philox(seed))
    probs = np.asarray(m.branch_weights, dtype=float)
    probs = probs / probs.sum()
    draws = rng.choice(len(probs), size=int(n_samples), p=probs)
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

    def to_json(self):
        return {
            "rate": None if self.finite_support else self.rate,
            "pressure": self.pressure,
            "certificate": self.certificate,
            "epsilon": self.epsilon,
            "constant": self.constant,
            "finite_support": self.finite_support,
        }


def tail_analysis(counts: LevelCounts, h: float) -> TailReport:
    """Exponential-tails certificate: granted iff the counts are known at
    every level (finite or closed form) and their growth rate sits below h.

    When granted, the geometric remainder of the certificate law bounds
    sum_{k>n} k #{R=k} e^{-hk} for every n >= 0 (`TailReport.bound`), with
    eps = h - rate the decay rate of its terms.  A horizon-truncated
    table gets none: its rate is fitted to the levels it holds and says
    nothing of the counts beyond them.
    """
    if counts.support == "finite":
        # tails vanish identically beyond the last level
        gross = sum(k * c * math.exp(-h * k) for k, c in counts.table if c > 0)
        return TailReport(rate=-math.inf, pressure=h, certificate=True,
                          epsilon=math.inf, constant=gross,
                          finite_support=True, max_level=counts.max_level)
    eps = h - counts.rate
    if counts.support == "truncated" or eps <= 1e-12:
        return TailReport(rate=counts.rate, pressure=h, certificate=False,
                          epsilon=0.0, constant=math.inf,
                          finite_support=False, max_level=0)
    return TailReport(rate=counts.rate, pressure=h, certificate=True,
                      epsilon=eps, constant=counts.prefactor, finite_support=False,
                      max_level=0)


# ---------------------------------------------------------------------------
# fat-support perturbation


def fat_perturbation(m: MassDistribution, counts: LevelCounts,
                     gamma: float) -> MassDistribution:
    """(1-gamma) m + gamma m0, with m0 the dyadic spread over occupied levels.

    m0 gives level n_j total mass 2^{-n_j} / W, split evenly over its
    branches, where W = sum_j 2^{-n_j} over occupied levels; every branch
    weight becomes strictly positive and the mean return obeys
    (1-gamma) old + 2 gamma for all-levels-occupied structures.
    """
    if not (0.0 < gamma < 1.0):
        raise OutOfRange("gamma must lie in (0, 1)")
    occupied = counts.occupied_levels()
    if occupied is None:
        W = 1.0  # sum_{n>=1} 2^{-n}
    else:
        W = sum(2.0 ** (-n) for n in occupied)
    if m.enumerated:
        times = m.branch_times
        m0 = np.array([
            2.0 ** (-n) / (W * counts.count(int(n))) for n in times
        ])
        w = (1.0 - gamma) * m.branch_weights + gamma * m0
        resid = abs(1.0 - float(np.sum(w)))
        return MassDistribution(counts=counts, branch_weights=w,
                                branch_times=times, residual=resid)
    # 2^{-n} / count(n) decays at log 2 + rate: closed forms equal their certificate
    n = np.arange(1, len(m.level_weights) + 1)
    logc = counts.log_counts(n)
    m0 = np.exp(-math.log(2.0) * n - math.log(W) - logc)
    if occupied is not None:
        m0[logc == -np.inf] = 0.0  # empty levels hold no branch
    return MassDistribution(counts=counts,
                            level_weights=(1.0 - gamma) * m.level_weights + gamma * m0,
                            weight_decay=min(m.weight_decay, math.log(2.0) + counts.rate))
