"""Zooming/hyperbolic time detection and Lyapunov exponents.

Two detectors are exposed.  `pliss_times` is the derivative-sum form:
n is detected iff every orbit suffix ending at n expands at rate at
least lambda.  `zooming_frequency` is the geometric certifying form:
n is detected iff the inverse branch of f^n along the orbit exists on
the delta-ball around f^n(x) and every intermediate pullback meets the
prescribed contraction schedule.  Ball pullbacks act on interval
endpoints only and are exact up to the root-finder tolerance.

The geometric detector pulls every candidate back one step at a time,
batched over candidates.  Once a candidate's two endpoint offsets are
both exactly 0.0 its outcome is fixed: before the loop, one batched
step on zero offsets at every orbit point records where zero offsets
come back as exactly zero without failing, and a zero candidate whose
remaining path consists of such points is detected and leaves the
batch at once.  This is exact, not a screen.  An in-range endpoint is
inverted by `Branch.inverse_many` started at the linearised preimage
w + (y - f(w)) / f'(w).  On a branch without a closed-form inverse a
zero offset starts at w itself with f(w) - y = 0 exactly, so its first
step is 0 and it stops at w, whatever else is in the batch (a closed
form ignores the start, and the pre-pass records whether it returns w).
The solver stops each element on its own step and computes it from its
own target and start point alone, so removing a zero element changes
no other element's arithmetic.  Along typical orbits of expanding maps
almost every pullback step ends in such zero offsets, which makes the
detector cost roughly linear in N instead of quadratic.

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
from .maps import MapSpec, strict_orbit

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


def _orbit_log_derivs(m: MapSpec, pts, bidx):
    out = np.empty(len(bidx))
    for g in np.unique(bidx):
        mask = bidx == g
        out[mask] = np.log(np.abs(m.branches[g].df_many(pts[:-1][mask])))
    return out


def pliss_times(m: MapSpec, x: float, N: int, lam: float) -> ZoomingReport:
    """Times n with sum_{i=j}^{n-1} log|f'(f^i x)| >= lam (n-j) for all j < n."""
    if N < 1:
        raise OutOfRange("N >= 1 required")
    if not math.isfinite(lam):
        raise OutOfRange("pliss_times needs a finite lambda")
    pts, bidx, ok = strict_orbit(m, x, N)
    M = len(bidx)
    logd = _orbit_log_derivs(m, pts, bidx)
    S = np.concatenate(([0.0], np.cumsum(logd)))
    T = S - lam * np.arange(M + 1)
    if M:
        runmax = np.maximum.accumulate(T[:-1])
        det = np.nonzero(T[1:] >= runmax)[0] + 1
    else:
        det = np.array([], dtype=int)
    return ZoomingReport.build(det, N, not ok, M,
                               {"detector": "pliss", "lambda": lam, "ell": 1, "N": N})


def lyapunov(m: MapSpec, x: float, N: int) -> float:
    """(1/N) sum_{j<N} log|f'(f^j x)|."""
    if N < 1:
        raise OutOfRange("N >= 1 required")
    pts, bidx, ok = strict_orbit(m, x, N)
    if len(bidx) < N:
        raise OrbitTruncated(
            f"orbit of {x!r} defined for {len(bidx)} < {N} steps"
        )
    return float(np.mean(_orbit_log_derivs(m, pts, bidx)))


# ---------------------------------------------------------------------------
# geometric detector


class _Hops(NamedTuple):
    """Continuation of local inverses across branch ends, per branch.

    Row d = 0 holds the left end of each branch's domain, row d = 1 the
    right end.  `nb[d, g]` is the branch that continues branch g there,
    or -1 where no local inverse continues: the end of an interval space,
    a fold (orientation flip) or a jump (mod the period on circles).
    Crossing into `nb` moves the lift frame from offset `off` to
    `(f_here + off) - f_there` and the domain position by `shift`.
    """

    nb: np.ndarray
    f_here: np.ndarray
    f_there: np.ndarray
    shift: np.ndarray
    img_lo: np.ndarray
    img_hi: np.ndarray
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


def _pullback(m: MapSpec, h: _Hops, w, bs, rel_lo, rel_hi):
    """One pullback step, batched over candidates.

    Element i holds the offsets (rel_lo, rel_hi) of an interval around
    f(w[i]), in the lift frame of branch bs[i].  Returns the offsets of
    its preimage around w[i] under the local inverse at w[i], and a mask
    of the elements that have none (their offsets are returned as 0).
    """
    n = len(w)
    new_lo = np.zeros(n)
    new_hi = np.zeros(n)
    fail = np.zeros(n, dtype=bool)
    walk = []
    for g, br in enumerate(m.branches):
        idx = np.flatnonzero(bs == g)
        if not len(idx):
            continue
        ww = w[idx]
        yc = br.f_many(ww)
        Ylo = yc + rel_lo[idx]
        Yhi = yc + rel_hi[idx]
        inr = (Ylo >= br.img_lo - 1e-14) & (Yhi <= br.img_hi + 1e-14)
        if not inr.all():
            out = ~inr
            walk.append((np.full(int(out.sum()), g), idx[out], ww[out], yc[out],
                         Ylo[out], Yhi[out]))
            idx, ww, yc, Ylo, Yhi = idx[inr], ww[inr], yc[inr], Ylo[inr], Yhi[inr]
            if not len(idx):
                continue
        dwc = br.df_many(ww)
        targets = np.concatenate([Ylo, Yhi])
        base = np.concatenate([ww, ww])
        ycc = np.concatenate([yc, yc])
        dcc = np.concatenate([dwc, dwc])
        sol = br.inverse_many(targets, base + (targets - ycc) / dcc)
        a, b = sol[:len(ww)], sol[len(ww):]
        if not br.increasing:
            a, b = b, a
        new_lo[idx] = a - ww
        new_hi[idx] = b - ww
    if walk:
        g, idx, ww, yc, Ylo, Yhi = (np.concatenate(v) for v in zip(*walk))
        k = len(idx)
        u = _walk(m, h, np.concatenate([g, g]), np.concatenate([ww, ww]),
                  np.concatenate([yc, yc]), np.concatenate([Ylo, Yhi]))
        u1, u2 = u[:k], u[k:]
        bad = np.isnan(u1) | np.isnan(u2)
        new_lo[idx] = np.where(bad, 0.0, (ww + np.fmin(u1, u2)) - ww)
        new_hi[idx] = np.where(bad, 0.0, (ww + np.fmax(u1, u2)) - ww)
        fail[idx] = bad
    return new_lo, new_hi, fail


def zooming_frequency(m: MapSpec, x: float, N: int, c: Contraction,
                      delta: float, slack: float = 1e-9) -> ZoomingReport:
    """Detected (alpha, delta, 1)-zooming times along the orbit of x.

    n is detected iff pulling the delta-ball at f^n(x) back along the
    orbit's inverse branches succeeds down to time 0 and the pullback at
    time j has diameter <= alpha_{n-j}(diameter of the ball), for all j.
    """
    if N < 1:
        raise OutOfRange("N >= 1 required")
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
    # clear[j]: zero offsets at time j pull back to zero offsets, without
    # failing, through every step down to time 0
    lo0, hi0, fail0 = _pullback(m, hops, pts[:M], bidx, np.zeros(M), np.zeros(M))
    absorbing = (lo0 == 0.0) & (hi0 == 0.0) & ~fail0
    clear = np.concatenate(([True], np.logical_and.accumulate(absorbing)))
    # compact state: candidate n = active[i] + 1, pullback offsets rel_*
    active = np.arange(M)
    detected = [np.zeros(0, dtype=int)]
    k = 0
    while len(active):
        k += 1
        j = active + 1 - k
        rel_lo, rel_hi, fail = _pullback(m, hops, pts[j], bidx[j], rel_lo, rel_hi)
        diam = rel_hi - rel_lo
        bound = c.factor(k) * D0[active] * (1.0 + slack) + 1e-15
        fail |= diam > bound
        done = ((j == 0) | ((rel_lo == 0.0) & (rel_hi == 0.0) & clear[j])) & ~fail
        if done.any():
            detected.append(active[done] + 1)
        keep = ~(fail | done)
        active = active[keep]
        rel_lo = rel_lo[keep]
        rel_hi = rel_hi[keep]
    found = np.concatenate(detected)
    if len(found) and found.max() > k:
        # a retired candidate n stands for pullback steps up to n, each of
        # which needs its contraction factor (a table may lack it)
        c.factor(int(found.max()))
    return ZoomingReport.build(found, N, not ok, M, params)
