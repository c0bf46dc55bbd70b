"""Zooming/hyperbolic time detection and Lyapunov exponents.

Two detectors are exposed.  `pliss_times` is the derivative-sum form:
n is detected iff every orbit suffix ending at n expands at rate at
least lambda; it and `lyapunov` take log|f'| per branch (`_log_slopes`,
from `Branch.df`), with the bits of f' in the geometric detector's point
table.
`zooming_frequency` is the geometric certifying form: n is detected iff
the inverse branch of f^n along the orbit exists on the delta-ball
around f^n(x) and every intermediate pullback meets the prescribed
contraction schedule.  Ball pullbacks act on interval endpoints only and
are exact up to the root-finder tolerance.

The geometric detector pulls every candidate back one step at a time,
batched over candidates.  Each orbit point's branch, f(w) and f'(w) are
evaluated once per call into per-point arrays (`_point_table`, with f and
f' from one `Branch.fdf` call a branch); a candidate
carries the index j of the orbit point it stands at, and a step gathers
those arrays by j and its branch's padded image ends (`_Hops`) by the
branch.  So every step at j, in any batch, reads the same bits of f(w)
and f'(w).  An in-range endpoint is inverted by `Branch.inverse_many`
started at the linearised preimage w + (y - f(w)) / f'(w), from the
table's f(w) and f'(w); the solver stops each element on its own step
and computes it from its own target and start point alone, so removing
an element from the batch changes no other element's arithmetic.

A candidate is retired as detected before it reaches time 0 once its
pullback is too small to fail (the Pliss-lemma bookkeeping of hyperbolic
times, Alves-Bonatti-Viana 2000; Pinheiro 2011 for zooming times).  With
S_j = sum_{l<j} log|f'(w_l)|, the pullback from time j to any time i < j
widens an interval by at most G[j] = exp(max_{i<=j} S_i - S_j) to first
order (`_growth`; G = 1 wherever |f'| >= 1, as on lsv and doubling
orbits).  A candidate at time j whose offsets r satisfy r G[j] <=
_RETIRE = _FLOOR / 10 = 1e-16 keeps every later offset at most 1e-16:
100 times inside the 1e-14 padding of the branch images, so every later
step is in range, and its diameter at most 2e-16, below the 1e-15 floor
of every later bound.  Its full pullback therefore reaches time 0 and
detects it.  The margin: G is a first-order bound, and each step rounds
its offsets by a few ulps of |w|, against the 9e-16 of headroom to the
floor; tests/test_zooming_reference.py checks the detected times against
the full pullback, also where G > 1.  Zero offsets (r = 0) are the common
case.  Where f' = 0 or the exponent overflows G is infinite or NaN, and
no candidate there is retired.  Along typical orbits of expanding
maps almost every candidate is retired within a few steps, which makes
the detector cost roughly linear in N instead of quadratic.

In the c11 setting (lsv(0.6), N = 1e4) that leaves about 270 steps.  A
step is a fixed handful of array operations: gathers from the tables,
and, when every candidate is in range on one branch, one inverse call
with no regrouping by branch.  The inverse evaluates (f, f') once an
iteration and drops the elements that have stopped, which the large
first steps (thousands of endpoints), most of the cost, need.

Endpoints that leave their branch's image cross into neighbouring
branches through a per-map hop table and are resolved together, one
vectorized inverse per landing branch (`Branch.inverse_many` from its
default start).

For zooming with respect to f^ell build the ell-th iterate map first
(maps.iterate) and run with ell = 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import OrbitTruncated, OutOfRange
from .maps import MapSpec, _is_int, strict_orbit

__all__ = [
    "Contraction",
    "Times",
    "ZoomingReport",
    "pliss_times",
    "zooming_frequency",
    "lyapunov",
]


@dataclass(frozen=True)
class Contraction:
    """Backward-contraction schedule alpha_n(r) = a_n * r.

    Kinds: 'exponential' (a_n = e^{-rate n}), 'lipschitz_sqrt_exp'
    (a_n = e^{-rate sqrt(n)}) and 'lipschitz_table' (finite table).
    """

    kind: str
    rate: float = 0.0
    table: tuple = ()

    @staticmethod
    def exponential(rate: float) -> "Contraction":
        if not 0 < rate < math.inf:
            raise OutOfRange("exponential contraction needs a finite rate > 0")
        return Contraction("exponential", rate=float(rate))

    @staticmethod
    def sqrt_exponential(rate: float) -> "Contraction":
        if not 0 < rate < math.inf:
            raise OutOfRange("sqrt-exponential contraction needs a finite rate > 0")
        return Contraction("lipschitz_sqrt_exp", rate=float(rate))

    @staticmethod
    def from_table(seq) -> "Contraction":
        a = tuple(float(v) for v in seq)
        if not a:
            raise OutOfRange("empty contraction table")
        if not all(0 < v < 1 for v in a):
            raise OutOfRange("table factors must lie in (0, 1)")
        n = len(a)
        for i in range(1, n + 1):
            for j in range(1, n + 1 - i):
                if a[i - 1] * a[j - 1] > a[i + j - 1] * (1 + 1e-12):
                    raise OutOfRange(
                        f"table violates a_n*a_m <= a_(n+m) at ({i},{j})"
                    )
        return Contraction("lipschitz_table", table=a)

    def factor(self, n: int) -> float:
        if n < 1:
            raise OutOfRange("contraction index n >= 1 required")
        if self.kind == "exponential":
            return math.exp(-self.rate * n)
        if self.kind == "lipschitz_sqrt_exp":
            return math.exp(-self.rate * math.sqrt(n))
        if n > len(self.table):
            raise OutOfRange(f"contraction table has no entry for n={n}")
        return self.table[n - 1]

    def value(self, n: int, r: float) -> float:
        if r < 0:
            raise OutOfRange("radius r >= 0 required")
        return self.factor(n) * r

    def summable_bound(self) -> float:
        """Upper bound for sup_{r<=1} sum_n alpha_n(r)."""
        if self.kind == "exponential":
            q = math.exp(-self.rate)
            return q / (1 - q)
        if self.kind == "lipschitz_sqrt_exp":
            # sum e^{-c sqrt(n)} <= integral + first term
            c = self.rate
            return math.exp(-c) + 2.0 * (c + 1.0) / (c * c) * math.exp(-c)
        return float(sum(self.table))


class Times(Sequence):
    """Sorted distinct times in 1..N, stored as a packed indicator.

    Takes N/8 bytes.  Iteration yields Python ints in increasing order,
    and it compares equal to a tuple or list of the same ints.  It is not
    a tuple itself: `tuple(times)` gives one for `+` or `json.dumps`.
    Every call decodes the indicator, so a single index or slice costs
    O(N); iterate, or take `tuple(times)` once, for repeated indexing.
    """

    __slots__ = ("N", "_bits", "_len")

    def __init__(self, times, N: int):
        t = np.asarray(times, dtype=np.int64)
        if t.size and (t.min() < 1 or t.max() > N):
            raise ValueError(f"times must lie in 1..{N}")
        hit = np.zeros(N, dtype=bool)
        hit[t - 1] = True
        self.N = int(N)
        self._bits = np.packbits(hit).tobytes()
        self._len = int(np.count_nonzero(hit))

    def _array(self) -> np.ndarray:
        hit = np.unpackbits(np.frombuffer(self._bits, dtype=np.uint8), count=self.N)
        return np.flatnonzero(hit) + 1

    def _list(self) -> list:
        return self._array().tolist()

    def __iter__(self):
        return iter(self._list())

    def __reversed__(self):
        return reversed(self._list())

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._array()[i].tolist())
        return int(self._array()[i])

    def index(self, value, start=0, stop=None):
        lst = self._list()
        return lst.index(value, start, len(lst) if stop is None else stop)

    def __eq__(self, other):
        if isinstance(other, Times):
            if self.N == other.N:
                return self._bits == other._bits
            return self._list() == other._list()
        if isinstance(other, (tuple, list)):
            return len(other) == self._len and self._list() == list(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._list()))

    def __repr__(self):
        return f"Times({self._list()!r}, N={self.N})"


@dataclass(frozen=True)
class ZoomingReport:
    times: Times
    N: int
    frequency: float
    truncated: bool
    n_effective: int
    params: dict = field(default_factory=dict)

    @staticmethod
    def build(times, N, truncated, n_effective, params):
        times = Times(times, N)
        return ZoomingReport(
            times=times,
            N=int(N),
            frequency=len(times) / N,
            truncated=bool(truncated),
            n_effective=int(n_effective),
            params=dict(params),
        )

    def to_json(self) -> dict:
        return {
            "times": list(self.times),
            "N": self.N,
            "frequency": self.frequency,
            "truncated": self.truncated,
            "n_effective": self.n_effective,
            "params": self.params,
        }


def _check_N(N):
    """OutOfRange unless the orbit length N is an integer >= 1 (not a bool)."""
    if not (_is_int(N) and N >= 1):
        raise OutOfRange(f"N must be an integer >= 1, got {N!r}")


def pliss_times(m: MapSpec, x: float, N: int, lam: float) -> ZoomingReport:
    """Times n with sum_{i=j}^{n-1} log|f'(f^i x)| >= lam (n-j) for all j < n.

    OutOfRange unless N is an integer >= 1 and lam is finite.
    """
    _check_N(N)
    if not math.isfinite(lam):
        raise OutOfRange("pliss_times needs a finite lambda")
    pts, bidx, ok = strict_orbit(m, x, N)
    M = len(bidx)
    S = np.concatenate(([0.0], np.cumsum(_log_slopes(m, pts[:M], bidx))))
    T = S - lam * np.arange(M + 1)
    if M:
        runmax = np.maximum.accumulate(T[:-1])
        det = np.nonzero(T[1:] >= runmax)[0] + 1
    else:
        det = np.array([], dtype=int)
    return ZoomingReport.build(det, N, not ok, M,
                               {"detector": "pliss", "lambda": lam, "ell": 1, "N": N})


def lyapunov(m: MapSpec, x: float, N: int) -> float:
    """(1/N) sum_{j<N} log|f'(f^j x)|; OutOfRange unless N is an integer >= 1."""
    _check_N(N)
    pts, bidx, ok = strict_orbit(m, x, N)
    if len(bidx) < N:
        raise OrbitTruncated(
            f"orbit of {x!r} defined for {len(bidx)} < {N} steps"
        )
    return float(np.mean(_log_slopes(m, pts[:N], bidx)))


def _log_slopes(m: MapSpec, w, g) -> np.ndarray:
    """log|f'(w)| at each orbit point w on its branch g, from `Branch.df`,
    which has the bits of `fdf`'s f' (so of `_point_table`'s): f and its
    temporaries are never made."""
    out = np.empty(len(w))
    for b, br in enumerate(m.branches):
        sel = np.flatnonzero(g == b)  # an index gathers faster than a mask
        if len(sel):
            d = br.df(w[sel])
            out[sel] = np.log(np.abs(d, out=d), out=d)
    return out


# ---------------------------------------------------------------------------
# geometric detector

# relative slack and absolute floor of the diameter bound
_SLACK = 1e-9
_FLOOR = 1e-15
# offsets whose growth-bounded pullbacks stay below this are decided
_RETIRE = _FLOOR / 10


class _Hops(NamedTuple):
    """Continuation of local inverses across branch ends, per branch.

    Row d = 0 holds the left end of each branch's domain, row d = 1 the
    right end.  `nb[d, g]` is the branch that continues branch g there,
    or -1 where no local inverse continues: the end of an interval space,
    a fold (orientation flip) or a jump (mod the period on circles).
    Crossing into `nb` moves the lift frame from offset `off` to
    `(f_here + off) - f_there` and the domain position by `shift`.
    `pad_lo`/`pad_hi` are the images padded by 1e-14: a step's in-range test.
    """

    nb: np.ndarray
    f_here: np.ndarray
    f_there: np.ndarray
    shift: np.ndarray
    img_lo: np.ndarray
    img_hi: np.ndarray
    pad_lo: np.ndarray
    pad_hi: np.ndarray
    increasing: np.ndarray


def _hop_table(m: MapSpec) -> _Hops:
    sp = m.space
    B = len(m.branches)
    nb = np.full((2, B), -1)
    f_here = np.zeros((2, B))
    f_there = np.zeros((2, B))
    shift = np.zeros((2, B))
    for g, b2 in enumerate(m.branches):
        for d, step in ((0, -1), (1, 1)):
            n, s = g + step, 0.0
            if not 0 <= n < B:
                if not sp.circle:
                    continue
                n, s = n % B, step * sp.length
            b3 = m.branches[n]
            if b3.increasing != b2.increasing:
                continue
            fh = float(b2.f(b2.hi if d else b2.lo))
            ft = float(b3.f(b3.lo if d else b3.hi))
            if sp.dist(fh, ft) > 1e-9:
                continue
            nb[d, g], f_here[d, g], f_there[d, g], shift[d, g] = n, fh, ft, s
    return _Hops(nb, f_here, f_there, shift,
                 np.array([b.img_lo for b in m.branches]),
                 np.array([b.img_hi for b in m.branches]),
                 np.array([b.img_lo - 1e-14 for b in m.branches]),
                 np.array([b.img_hi + 1e-14 for b in m.branches]),
                 np.array([b.increasing for b in m.branches]))


def _walk(m: MapSpec, h: _Hops, g, w, yc, target):
    """Offsets u - w of the preimages of lift values `target` near w.

    Element i starts in branch g[i], whose lift value at w[i] is yc[i],
    and crosses branch ends toward target[i] while the map continues
    (mod the period on circles) with the same orientation.  NaN where no
    local inverse reaches the target.
    """
    n = len(target)
    go_right = ((target < yc) != h.increasing[g]).astype(int)
    gb = g.copy()
    off = np.zeros(n)
    dom = np.zeros(n)
    land = np.full(n, -1)
    t_land = np.zeros(n)
    todo = np.arange(n)
    for _ in range(len(m.branches) + 1):
        t2 = target[todo] - off[todo]
        here = gb[todo]
        hit = (h.img_lo[here] - 1e-13 <= t2) & (t2 <= h.img_hi[here] + 1e-13)
        land[todo[hit]] = here[hit]
        t_land[todo[hit]] = t2[hit]
        todo = todo[~hit]
        d, here = go_right[todo], gb[todo]
        nxt = h.nb[d, here]
        go = nxt >= 0
        todo, d, here = todo[go], d[go], here[go]
        if not len(todo):
            break
        off[todo] = (h.f_here[d, here] + off[todo]) - h.f_there[d, here]
        dom[todo] += h.shift[d, here]
        gb[todo] = nxt[go]
    u = np.full(n, np.nan)
    for b in np.unique(land[land >= 0]):
        sel = land == b
        u[sel] = (m.branches[b].inverse_many(t_land[sel]) + dom[sel]) - w[sel]
    return u


class _Points(NamedTuple):
    """Per orbit point w: its branch g, f(w) and f'(w), evaluated once per call."""

    g: np.ndarray
    w: np.ndarray
    fw: np.ndarray
    dfw: np.ndarray


def _point_table(m: MapSpec, w, g) -> _Points:
    fw, dfw = np.empty(len(w)), np.empty(len(w))
    for b, br in enumerate(m.branches):
        sel = np.flatnonzero(g == b)  # an index gathers faster than a mask
        if len(sel):
            fw[sel], dfw[sel] = br.fdf(w[sel])
    return _Points(g, w, fw, dfw)


def _invert(br, w, fw, dfw, Ylo, Yhi):
    """Offsets around w of the preimage of [Ylo, Yhi], which lies in the
    image of branch br, from the linearised starts w + (Y - f(w)) / f'(w)."""
    x0 = np.concatenate([w + (Ylo - fw) / dfw, w + (Yhi - fw) / dfw])
    sol = br.inverse_many(np.concatenate([Ylo, Yhi]), x0)
    a, b = sol[:len(w)], sol[len(w):]
    if not br.increasing:
        a, b = b, a
    return a - w, b - w


def _pullback(m: MapSpec, h: _Hops, P: _Points, j, rel_lo, rel_hi):
    """One pullback step, batched over candidates.

    Element i holds the offsets (rel_lo, rel_hi) of an interval around
    f(w), w = P.w[j[i]], in the lift frame of w's branch.  Returns the
    offsets of its preimage around w under the local inverse at w, and a
    mask of the elements that have none (their offsets are returned as 0).
    """
    g, w, fw, dfw = P.g[j], P.w[j], P.fw[j], P.dfw[j]
    Ylo = fw + rel_lo
    Yhi = fw + rel_hi
    inr = (Ylo >= h.pad_lo[g]) & (Yhi <= h.pad_hi[g])
    n = len(j)
    # every element in range on one branch: no regrouping (count_nonzero is
    # several times cheaper than .all() on short arrays)
    if n and np.count_nonzero(inr) == n and np.count_nonzero(g != g[0]) == 0:
        return (*_invert(m.branches[g[0]], w, fw, dfw, Ylo, Yhi), np.zeros(n, dtype=bool))
    new_lo = np.zeros(n)
    new_hi = np.zeros(n)
    fail = np.zeros(n, dtype=bool)
    for b, br in enumerate(m.branches):
        idx = np.flatnonzero(inr & (g == b))
        if len(idx):
            new_lo[idx], new_hi[idx] = _invert(br, w[idx], fw[idx], dfw[idx], Ylo[idx], Yhi[idx])
    idx = np.flatnonzero(~inr)
    if len(idx):
        k = len(idx)
        ww = w[idx]
        u = _walk(m, h, np.concatenate([g[idx]] * 2), np.concatenate([ww, ww]),
                  np.concatenate([fw[idx]] * 2), np.concatenate([Ylo[idx], Yhi[idx]]))
        u1, u2 = u[:k], u[k:]
        bad = np.isnan(u1) | np.isnan(u2)
        new_lo[idx] = np.where(bad, 0.0, (ww + np.fmin(u1, u2)) - ww)
        new_hi[idx] = np.where(bad, 0.0, (ww + np.fmax(u1, u2)) - ww)
        fail[idx] = bad
    return new_lo, new_hi, fail


def _growth(dfw):
    """G[j] = exp(max_{i<=j} S_i - S_j), S_j = sum_{l<j} log|f'(w_l)|: the
    most the first-order pullback from time j to any earlier time widens
    an interval.  Not finite where f' vanishes or the exponent overflows."""
    with np.errstate(all="ignore"):
        S = np.concatenate(([0.0], np.cumsum(np.log(np.abs(dfw[:-1])))))
        return np.exp(np.maximum.accumulate(S) - S)


def zooming_frequency(m: MapSpec, x: float, N: int, c: Contraction,
                      delta: float) -> ZoomingReport:
    """Detected (alpha, delta, 1)-zooming times along the orbit of x.

    n is detected iff pulling the delta-ball at f^n(x) back along the
    orbit's inverse branches succeeds down to time 0 and the pullback at
    time j has diameter <= alpha_{n-j}(diameter of the ball) * (1 + 1e-9)
    + 1e-15, for all j.  OutOfRange unless N is an integer >= 1 and
    delta >= 0 (below half the length on a circle).
    """
    _check_N(N)
    params = {"detector": "zooming", "contraction": c.kind, "rate": c.rate,
              "delta": delta, "ell": 1, "N": N}
    if c.kind == "lipschitz_table":
        params["table"] = list(c.table)
    if not delta >= 0:
        raise OutOfRange("delta >= 0 required")
    sp = m.space
    if sp.circle and delta >= sp.length / 2:
        raise OutOfRange("delta must be below half the circle length")
    pts, bidx, ok = strict_orbit(m, x, N)
    M = len(bidx)
    if delta == 0:
        return ZoomingReport.build([], N, not ok, M, params)
    centers = pts[1:]
    if sp.circle:
        rel_lo = np.full(M, -delta)
        rel_hi = np.full(M, delta)
    else:
        rel_lo = np.maximum(sp.lo - centers, -delta)
        rel_hi = np.minimum(sp.hi - centers, delta)
    D0 = rel_hi - rel_lo
    hops = _hop_table(m)
    P = _point_table(m, pts[:M], bidx)
    # a candidate at orbit point j with offsets at most lim[j] = _RETIRE / G[j]
    # is detected (see the module docstring); none is where G is not finite
    G = _growth(P.dfw)
    lim = np.where(G < np.inf, _RETIRE / G, -1.0)
    # compact state of the candidates: after step k candidate n = j + k sits
    # at orbit point j with pullback offsets rel_* and ball diameter D0
    j = np.arange(M)
    detected = [np.zeros(0, dtype=int)]
    k = 0
    while len(j):
        k += 1
        rel_lo, rel_hi, fail = _pullback(m, hops, P, j, rel_lo, rel_hi)
        fail |= rel_hi - rel_lo > c.factor(k) * D0 * (1.0 + _SLACK) + _FLOOR
        done = ((j == 0) | (np.maximum(-rel_lo, rel_hi) <= lim[j])) & ~fail
        if done.any():
            detected.append(j[done] + k)
        keep = ~(fail | done)
        j, D0, rel_lo, rel_hi = j[keep] - 1, D0[keep], rel_lo[keep], rel_hi[keep]
    found = np.concatenate(detected)
    if len(found) and found.max() > k:
        # a retired candidate n stands for pullback steps up to n, each of
        # which needs its contraction factor (a table may lack it)
        c.factor(int(found.max()))
    return ZoomingReport.build(found, N, not ok, M, params)
