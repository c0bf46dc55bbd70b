"""Piecewise one-dimensional maps: branches, built-in families, orbits.

A map is a finite ordered collection of strictly monotone branches on
open subintervals of a phase space [lo, hi], optionally with the two
endpoints identified (circle).  Built-ins: the doubling map, the
Manneville-Pomeau/LSV family (stored as its circle extension, so the
map is total off the single break point 1/2), symmetric tent maps and
real quadratic maps x^2 + c on their invariant interval.

On a circle a branch formula may return any lift of its values (2x and
2x - 1 are the same doubling branch), with an image at most one period
long.  `Space.lift`, the lift nearest a branch's midpoint, places every
circle value: in orbits, `iterate`'s composites, the chain pullback
(`_pull_trie`, once per distinct chain suffix), and the image splits that
`iterate` and the scheme search share.

`strict_orbit`, the orbit behind `pliss_times`, `lyapunov` and
`zooming_frequency`, is one loop for every map.  It binds the branch
ends, the branch formulas, the critical set and the circle constants
once; each step is one bisection, one interior and critical test, one
formula call and the circle reduction of `Space.wrap`, written inline.
Points and branch indices go into packed `array` buffers (16 bytes a
step) that become the returned arrays without a copy.  A step of
lsv(0.6) costs about 0.45-0.6 us (2-core Xeon, Python 3.11); a step of
an `iterate` composite costs several times that, in its `Space.lift`
calls.

Points are plain doubles; all tolerances are at desk scale (1e-6..1e-13).
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import AtCriticalOrBoundary, NotInImage, OutOfRange

__all__ = [
    "Space",
    "Branch",
    "MapSpec",
    "OrbitResult",
    "builtin",
    "doubling",
    "lsv",
    "tent",
    "quadratic",
    "from_json",
    "to_json",
    "evaluate",
    "deriv",
    "branch_at",
    "orbit",
    "strict_orbit",
    "iterate",
    "BUILTIN_NAMES",
]


@dataclass(frozen=True)
class Space:
    lo: float
    hi: float
    circle: bool = False

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def wrap(self, x):
        """Reduce x into [lo, hi) on circles (floats or arrays); identity otherwise."""
        # strict_orbit inlines the float case; keep the two in step
        if not self.circle:
            return x
        y = self.lo + (x - self.lo) % self.length
        # % rounds a tiny negative remainder up to the period itself
        if getattr(y, "ndim", 0):
            return np.where(y < self.hi, y, self.lo)
        return y if y < self.hi else self.lo

    def lift(self, y, lo, hi):
        """The lift y + kL nearest the midpoint of (lo, hi) on a circle of
        length L, y itself on intervals; floats stay floats, arrays broadcast."""
        if not self.circle:
            return y
        k = (y - 0.5 * (lo + hi)) / self.length
        if getattr(k, "ndim", 0):
            return y - self.length * np.round(k)
        k = float(k)
        return y - self.length * round(k) if math.isfinite(k) else math.nan

    def dist(self, x, y):
        """|x - y|, the shorter way round on circles (floats or arrays)."""
        d = np.abs(np.subtract(x, y))
        if self.circle:
            d = np.mod(d, self.length)
            d = np.minimum(d, self.length - d)
        return d


def _affine(params):
    a = float(params["a"])
    b = float(params["b"])
    f = lambda x: a * x + b
    df = lambda x: a
    finv = lambda y: (y - b) / a
    return f, df, finv


def _lsv_left(params):
    alpha = float(params["alpha"])
    A = 2.0 ** alpha

    def f(x):
        return x * (1.0 + A * abs(x) ** alpha)

    def df(x):
        return 1.0 + (alpha + 1.0) * A * abs(x) ** alpha

    return f, df, None


def _lsv_right(params):
    return _affine({"a": 2.0, "b": -1.0})


def _quadratic(params):
    c = float(params["c"])
    sign = float(params.get("sign", 1.0))
    f = lambda x: x * x + c
    df = lambda x: 2.0 * x

    def finv(y):
        return sign * np.sqrt(np.maximum(y - c, 0.0))

    return f, df, finv


def _table(params):
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(params["x"], dtype=float)
    ys = np.asarray(params["y"], dtype=float)
    if len(xs) < 3:
        raise ValueError("table branch needs at least 3 nodes")
    d = np.diff(ys)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("table branch values must be strictly monotone")
    interp = PchipInterpolator(xs, ys, extrapolate=True)
    dinterp = interp.derivative()
    return interp, dinterp, None


_KINDS = {
    "affine": _affine,
    "lsv_left": _lsv_left,
    "lsv_right": _lsv_right,
    "quadratic": _quadratic,
    "table": _table,
}


@dataclass(frozen=True)
class Branch:
    """One strictly monotone branch, with its lift formula (no mod)."""

    lo: float
    hi: float
    kind: str
    params: dict = field(default_factory=dict)
    _f: object = field(default=None, compare=False, repr=False)
    _df: object = field(default=None, compare=False, repr=False)
    _finv: object = field(default=None, compare=False, repr=False)
    _slack: object = field(default=None, compare=False, repr=False)
    increasing: bool = field(default=True, compare=False)
    img_lo: float = field(default=0.0, compare=False)
    img_hi: float = field(default=0.0, compare=False)

    @staticmethod
    def make(lo, hi, kind, params=None) -> "Branch":
        params = dict(params or {})
        if kind not in _KINDS:
            raise ValueError(f"unknown branch kind {kind!r}")
        f, df, finv = _KINDS[kind](params)
        va, vb = float(f(lo)), float(f(hi))
        inc = vb > va
        return Branch(
            lo=float(lo), hi=float(hi), kind=kind, params=params,
            _f=f, _df=df, _finv=finv, increasing=inc,
            img_lo=min(va, vb), img_hi=max(va, vb),
        )

    # -- lift formula on the branch closure (scalar or ndarray) --
    def f(self, x):
        return self._f(x)

    def df(self, x):
        return self._df(x)

    def f_many(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._f(np.asarray(x, dtype=float)), dtype=float)

    def df_many(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = np.asarray(self._df(x), dtype=float)
        if d.ndim == 0:
            d = np.full(x.shape, float(d))
        return d

    def slack_many(self, x: np.ndarray):
        """Rounding that a composite's inner steps carry to f(x): each step's
        ulp times the |f'| of the steps after it; 0 for one formula."""
        return 0.0 if self._slack is None else self._slack(np.asarray(x, dtype=float))

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def inverse_many_warm(self, y: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """Vectorized Newton inverse with caller-supplied starting points.

        Falls back to the robust bisection inverse for entries that fail
        to converge (monotone branches; clamped to the domain closure).
        Each element stops on its own residual: it takes the step from
        the first iterate whose residual is below 1e-14 (relative) and
        then keeps its value, so its bits do not depend on the others in
        the call.
        """
        y = np.asarray(y, dtype=float)
        if self._finv is not None:
            x = np.asarray(self._finv(np.clip(y, self.img_lo, self.img_hi)), dtype=float)
            return np.clip(x, self.lo, self.hi)
        x = np.clip(np.asarray(x0, dtype=float), self.lo, self.hi)
        scale = max(abs(self.img_lo), abs(self.img_hi), 1.0)
        done = np.zeros(x.shape, dtype=bool)
        for _ in range(10):
            fx = self._f(x) - y
            d = self._df(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = fx / d
            np.copyto(x, np.clip(x - step, self.lo, self.hi), where=~done)
            done |= np.abs(fx) < 1e-14 * scale
            if done.all():
                break
        bad = np.abs(self._f(x) - y) > 1e-11 * scale
        if np.any(bad):
            x[bad] = self.inverse_many(y[bad])
        return x

    def inverse_many(self, y: np.ndarray) -> np.ndarray:
        """Vectorized inverse on the branch closure; NotInImage for a value
        more than 1e-12 (relative) outside the image.  Safeguarded Newton
        starts from the target value (clipped into the branch) and stops
        each element on its own step, so an element's bits do not depend
        on the others in the call."""
        y = np.asarray(y, dtype=float)
        pad = 1e-12 * max(1.0, abs(self.img_lo), abs(self.img_hi))
        out = (y < self.img_lo - pad) | (y > self.img_hi + pad)
        if out.any():
            raise NotInImage(
                f"{float(y[out][0])!r} outside image [{self.img_lo}, {self.img_hi}] "
                f"of {self.kind} branch"
            )
        # np.minimum/np.maximum: np.clip costs several times as much on short arrays
        y = np.minimum(np.maximum(y, self.img_lo), self.img_hi)
        if self._finv is not None:
            return np.minimum(np.maximum(self._finv(y), self.lo), self.hi)
        lo = np.full_like(y, self.lo)
        hi = np.full_like(y, self.hi)
        x = np.minimum(np.maximum(y, self.lo), self.hi)
        done = np.zeros(y.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero df bisects
            for _ in range(80):
                fx = self._f(x) - y
                above = (fx > 0) == self.increasing
                np.copyto(hi, x, where=above)
                np.copyto(lo, x, where=~above)
                xn = x - fx / self._df(x)
                inside = (xn >= lo) & (xn <= hi)
                if not inside.all():  # nan, inf and steps out of the bracket bisect
                    np.copyto(xn, 0.5 * (lo + hi), where=~inside)
                # an element keeps the iterate whose step fell below 1e-15
                small = np.abs(xn - x) < 1e-15
                np.copyto(x, xn, where=~done)
                done |= small
                if done.all():
                    break
        return x

    def spec(self) -> dict:
        params = {k: (list(v) if np.ndim(v) else v) for k, v in self.params.items()}
        return {"lo": self.lo, "hi": self.hi, "kind": self.kind, "params": params}


@dataclass(frozen=True)
class MapSpec:
    name: str
    space: Space
    branches: tuple
    critical: tuple = ()
    neutral: tuple = ()

    def __post_init__(self):
        bs = sorted(self.branches, key=lambda b: b.lo)
        if not bs:
            raise ValueError("a map needs at least one branch")
        object.__setattr__(self, "branches", tuple(bs))
        for a, b in zip(bs, bs[1:]):
            if b.lo < a.hi - 1e-15:
                raise ValueError("branch domains overlap")
        # a longer image has no unique lift (rounding may add 1e-9 relative)
        longest = max(b.img_hi - b.img_lo for b in bs)
        if self.space.circle and longest > self.space.length * (1 + 1e-9):
            raise ValueError("a circle branch has an image longer than the circle")
        object.__setattr__(self, "_los", tuple(b.lo for b in bs))

    def branch_index(self, x: float) -> int:
        """Index of the open branch domain containing x, else -1."""
        i = bisect_right(self._los, x) - 1
        if i >= 0 and self.branches[i].contains(x):
            return i
        return -1


@dataclass(frozen=True)
class OrbitResult:
    points: np.ndarray
    complete: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


# ---------------------------------------------------------------------------
# built-in families


def doubling() -> MapSpec:
    sp = Space(0.0, 1.0, circle=True)
    return MapSpec(
        "doubling", sp,
        (Branch.make(0.0, 0.5, "affine", {"a": 2.0, "b": 0.0}),
         Branch.make(0.5, 1.0, "affine", {"a": 2.0, "b": -1.0})),
    )


def lsv(alpha: float) -> MapSpec:
    if not 0 < alpha < math.inf:
        raise OutOfRange("lsv needs a finite alpha > 0")
    sp = Space(0.0, 1.0, circle=True)
    return MapSpec(
        f"lsv(alpha={alpha:g})", sp,
        (Branch.make(0.0, 0.5, "lsv_left", {"alpha": alpha}),
         Branch.make(0.5, 1.0, "lsv_right")),
        neutral=(0.0,),
    )


def tent(s: float = 2.0) -> MapSpec:
    if not (0 < s <= 2):
        raise OutOfRange("tent needs slope in (0, 2]")
    sp = Space(0.0, 1.0, circle=False)
    return MapSpec(
        f"tent(s={s:g})", sp,
        (Branch.make(0.0, 0.5, "affine", {"a": s, "b": 0.0}),
         Branch.make(0.5, 1.0, "affine", {"a": -s, "b": s})),
        critical=(0.5,),
    )


def quadratic(c: float) -> MapSpec:
    if not (-2.0 <= c < 0.0):
        raise OutOfRange("quadratic built-in covers c in [-2, 0)")
    hi = c * c + c
    sp = Space(c, hi, circle=False)
    return MapSpec(
        f"quadratic(c={c:g})", sp,
        (Branch.make(c, 0.0, "quadratic", {"c": c, "sign": -1.0}),
         Branch.make(0.0, hi, "quadratic", {"c": c, "sign": 1.0})),
        critical=(0.0,),
    )


BUILTIN_NAMES = {
    "doubling": (doubling, ()),
    "lsv": (lsv, ("alpha",)),
    "tent": (tent, ("s",)),
    "quadratic": (quadratic, ("c",)),
}


def builtin(name: str, **params) -> MapSpec:
    try:
        fn, _ = BUILTIN_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown built-in map {name!r}") from None
    return fn(**params)


def to_json(m: MapSpec) -> dict:
    """Map-file document of m; OutOfRange for `iterate`'s composite branches."""
    if any(b.kind not in _KINDS for b in m.branches):
        raise OutOfRange(f"map {m.name} has composite branches, which a map file cannot hold")
    return {
        "name": m.name,
        "space": {"lo": m.space.lo, "hi": m.space.hi, "circle": m.space.circle},
        "branches": [b.spec() for b in m.branches],
        "critical": list(m.critical),
        "neutral": list(m.neutral),
    }


def from_json(obj) -> MapSpec:
    if isinstance(obj, str):
        with open(obj) as fh:
            obj = json.load(fh)
    sp = Space(float(obj["space"]["lo"]), float(obj["space"]["hi"]),
               bool(obj["space"].get("circle", False)))
    branches = tuple(
        Branch.make(b["lo"], b["hi"], b["kind"], b.get("params", {}))
        for b in obj["branches"]
    )
    return MapSpec(obj.get("name", "custom"), sp, branches,
                   critical=tuple(map(float, obj.get("critical", ()))),
                   neutral=tuple(map(float, obj.get("neutral", ()))))


def _same_map(a: MapSpec, b: MapSpec) -> bool:
    """Whether a and b are one map: the same space, critical set and branch
    specs, whatever their names (`MapSpec` equality can raise on tables)."""
    key = lambda m: (m.space, m.critical, [br.spec() for br in m.branches])
    return a is b or key(a) == key(b)


# ---------------------------------------------------------------------------
# point operations


def _finite_point(x) -> float:
    """float(x), or OutOfRange when x is nan or infinite (which wrap would
    send to a valid-looking point on circles)."""
    x = float(x)
    if not math.isfinite(x):
        raise OutOfRange(f"x={x!r} is not finite")
    return x


def branch_at(m: MapSpec, x: float) -> Branch:
    x = m.space.wrap(_finite_point(x))
    if x in m.critical:
        raise AtCriticalOrBoundary(f"x={x!r} is a critical point of {m.name}")
    i = m.branch_index(x)
    if i < 0:
        raise AtCriticalOrBoundary(f"x={x!r} is on a branch boundary of {m.name}")
    return m.branches[i]


def evaluate(m: MapSpec, x: float) -> float:
    """f(x); reduced mod 1 into the phase space for circle maps."""
    b = branch_at(m, x)
    y = float(b.f(m.space.wrap(x)))
    return m.space.wrap(y) if m.space.circle else y


def deriv(m: MapSpec, x: float) -> float:
    """Signed derivative f'(x) (use abs() for the modulus)."""
    b = branch_at(m, x)
    return float(b.df(m.space.wrap(x)))


def _closure_value(m: MapSpec, x: float):
    """Evaluate f at x using branch-closure formulas; None when ambiguous.

    Interior points use their branch; boundary points are accepted when
    all adjacent closure formulas agree (mod 1 on circles).
    """
    sp = m.space
    x = sp.wrap(x)
    i = m.branch_index(x)
    if i >= 0:
        y = float(m.branches[i].f(x))
        return sp.wrap(y) if sp.circle else y
    cands = []
    for b in m.branches:
        xx = sp.lift(x, b.lo, b.hi)
        if b.lo - 1e-14 <= xx <= b.hi + 1e-14:
            y = float(b.f(min(max(xx, b.lo), b.hi)))
            cands.append(sp.wrap(y) if sp.circle else y)
    if not cands:
        return None
    ref = cands[0]
    for y in cands[1:]:
        if sp.dist(ref, y) > 1e-9:
            return None
    return ref


def orbit(m: MapSpec, x: float, n: int) -> OrbitResult:
    """Maximal prefix of (x, f(x), ..., f^n(x)), with a completion flag.

    Boundary and critical points are passed through whenever the adjacent
    branch closures agree on the value there; otherwise the orbit stops.
    """
    x = _finite_point(x)
    pts = [m.space.wrap(x) if m.space.circle else x]
    ok = True
    for _ in range(n):
        y = _closure_value(m, pts[-1])
        if y is None:
            ok = False
            break
        pts.append(y)
    return OrbitResult(np.array(pts), ok)


def strict_orbit(m: MapSpec, x: float, n: int):
    """Orbit using interior-only evaluation.

    Returns (points, branch_indices, complete); stops at the first point on
    a boundary or in the critical set.  branch_indices[j] is the branch
    containing points[j] (length = len(points) - 1 when complete).
    """
    x = _finite_point(x)
    sp = m.space
    x = sp.wrap(x)
    # everything a step needs, bound once; MapSpec.branch_index and
    # Space.wrap are inlined, since a method call per step costs about as
    # much as the step itself.  A point below every branch gets i = -1,
    # and los[-1] >= los[0] > x fails the interior test.
    los, his = m._los, tuple(b.hi for b in m.branches)
    fs = tuple(b._f for b in m.branches)
    crit, circle, lo, hi, L = m.critical, sp.circle, sp.lo, sp.hi, sp.length
    pts, bidx = array("d", [x]), array("q")
    put_x, put_i = pts.append, bidx.append
    ok = True
    for _ in range(n):
        i = bisect_right(los, x) - 1
        if not los[i] < x < his[i] or x in crit:
            ok = False
            break
        put_i(i)
        x = float(fs[i](x))
        if circle:
            x = lo + (x - lo) % L
            if not x < hi:
                x = lo
        put_x(x)
    return np.frombuffer(pts), np.frombuffer(bidx, dtype=np.int64), ok


# ---------------------------------------------------------------------------
# images and chains


def _window_parts(sp: Space, lo: float, hi: float, tol: float):
    """Parts of the phase space covered by (lo, hi), which may be a lift.

    On circles the interval is shifted by whole periods to put its midpoint
    in the space, then cut where it passes an end by more than tol; an
    image at most one period long gives at most two parts.
    """
    mid = 0.5 * (lo + hi)
    k = mid - sp.lift(mid, sp.lo, sp.hi)
    lo, hi = lo - k, hi - k
    if sp.circle and sp.lo - lo > tol:
        return [(lo + sp.length, sp.hi), (sp.lo, hi)]
    if sp.circle and hi - sp.hi > tol:
        return [(lo, sp.hi), (sp.lo, hi - sp.length)]
    return [(lo, hi)]


def _image_pieces(m: MapSpec, lo: float, hi: float, tol: float):
    """Split the parts (`_window_parts`) of (lo, hi) by the branch domains.

    Yields (i, s_lo, s_hi, f_lo, f_hi) wherever a part meets the domain of
    branch i in more than tol: the meet and its image under branch i (a lift).
    """
    for a, b in _window_parts(m.space, lo, hi, tol):
        for i, br in enumerate(m.branches):
            s_lo, s_hi = max(a, br.lo), min(b, br.hi)
            if s_hi - s_lo > tol:
                v1, v2 = float(br.f(s_lo)), float(br.f(s_hi))
                yield i, s_lo, s_hi, min(v1, v2), max(v1, v2)


@dataclass(frozen=True, eq=False)
class ChainTrie:
    """Seed intervals pulled back through the distinct suffixes of chains.

    `at[d]:at[d + 1]` are the nodes of depth d; the seeds, their own
    parents, come first.  Node n is the suffix that starts with map branch
    `symbols[n]`: its parent's values less `shift[n]` (`Space.lift`) pulled
    back through that branch.  Its five `values` are the pullbacks of its
    seed's lo, lo + delta, midpoint, hi - delta and hi (delta = 1e-3 of the
    seed).  `leaf[e]` is the node of chain e.
    """

    parent: np.ndarray
    symbols: np.ndarray
    at: list
    values: np.ndarray
    shift: np.ndarray
    leaf: np.ndarray

    def ends(self):
        """(lo, hi) arrays of the chains' cylinders: their leaves' outer values."""
        v = self.values[self.leaf][:, ::4]
        return v.min(axis=1), v.max(axis=1)


def _chain_trie(chains, lo, hi) -> ChainTrie:
    """The trie of the distinct suffixes of chains[e] on the seed
    (lo[e], hi[e]), with the seeds' values; the other nodes' values are
    nan and their shifts 0.  Nodes go by depth, then by map branch, then
    by the chain suffixes' lexicographic order: the order depends only on
    the set of chains and seeds.  lo and hi are per-chain arrays or one
    value for all."""
    n = len(chains)
    ends = np.stack([np.broadcast_to(np.asarray(v, dtype=float), n) for v in (lo, hi)], axis=1)
    # a (lo, hi) row as one complex number: np.unique sorts those
    # lexicographically too, many times faster than rows (axis=0)
    seeds, root = np.unique(ends.view(complex).reshape(-1), return_inverse=True)
    seeds = seeds.view(float).reshape(-1, 2)
    # row e: chain e's seed, then its symbols last first (-1 padded); sorted,
    # a row makes a node at column d unless the row above agrees up to d
    L = np.fromiter(map(len, chains), dtype=np.int64, count=n)
    C = np.full((n, 1 + int(L.max(initial=0))), -1)
    C[:, 0] = root
    C[:, 1:][np.arange(C.shape[1] - 1) < L[:, None]] = np.fromiter(
        itertools.chain.from_iterable(c[::-1] for c in chains), dtype=np.int64, count=int(L.sum()))
    order = np.lexsort(C.T[::-1])
    S = C[order]
    new = S >= 0
    new[1:] &= ~np.logical_and.accumulate(S[1:] == S[:-1], axis=1)
    # a cell's node is the last made above it; nodes go by depth, then branch
    depth, row = np.nonzero(new.T)
    ids = np.zeros(new.shape, dtype=np.int64)
    ids[row, depth] = np.arange(len(row))
    rank = np.lexsort((np.where(depth > 0, S[row, depth], -1), depth))
    renumber = np.empty(len(rank) + 1, dtype=np.int64)
    renumber[rank] = np.arange(len(rank))
    ids = renumber[np.maximum.accumulate(np.where(new, ids, -1), axis=0)]
    depth, row = depth[rank], row[rank]
    symbols = np.where(depth > 0, S[row, depth], -1)
    parent = np.where(depth > 0, ids[row, depth - 1], np.arange(len(rank)))
    at = np.searchsorted(depth, np.arange(C.shape[1] + 1)).tolist()
    leaf = np.empty(n, dtype=np.int64)
    leaf[order] = ids[np.arange(n), L[order]]
    values, shift = np.full((len(rank), 5), np.nan), np.zeros(len(rank))
    d = 1e-3 * (seeds[:, 1] - seeds[:, 0])
    values[:at[1]] = np.stack([seeds[:, 0], seeds[:, 0] + d, 0.5 * (seeds[:, 0] + seeds[:, 1]),
                               seeds[:, 1] - d, seeds[:, 1]], axis=1)
    return ChainTrie(parent=parent, symbols=symbols, at=at, values=values, shift=shift,
                     leaf=leaf)


def _shift(m: MapSpec, T: ChainTrie, a: int, b: int) -> None:
    """Set the circle shifts of nodes a:b from their parents' values: each
    parent is lifted by its outer midpoint toward its child's branch image."""
    if m.space.circle:
        img = np.array([(br.img_lo, br.img_hi) for br in m.branches]).T
        g, y = T.symbols[a:b], T.values[T.parent[a:b]]
        mid = 0.5 * (y[:, 0] + y[:, 4])
        T.shift[a:b] = mid - m.space.lift(mid, img[0][g], img[1][g])


def _pull_trie(m: MapSpec, chains, lo, hi) -> ChainTrie:
    """Pull the intervals (lo[e], hi[e]) back through the chains[e].

    Every node of the chains' trie (`_chain_trie`) is pulled back once,
    all nodes of a depth in lock step: on circles each parent is first
    lifted (`_shift`), then inverted (`Branch.inverse_many`), one
    vectorized inverse per map branch.
    """
    T = _chain_trie(chains, lo, hi)
    at, values = T.at, T.values
    for a, b in zip(at[1:-1], at[2:]):
        _shift(m, T, a, b)
        y, g = values[T.parent[a:b]] - T.shift[a:b, None], T.symbols[a:b]
        cut = (a + np.searchsorted(g, np.arange(len(m.branches) + 1))).tolist()
        for k, br in enumerate(m.branches):
            if cut[k] < cut[k + 1]:
                v = y[cut[k] - a:cut[k + 1] - a].ravel()
                values[cut[k]:cut[k + 1]] = br.inverse_many(v).reshape(-1, 5)
    return T


# ---------------------------------------------------------------------------
# iterates


def _composite(chain_branches, space):
    """Lift formulas of a chain and its rounding slack (`Branch.slack_many`):
    each step takes the lift nearest its branch (floats or arrays)."""

    def f(x):
        for b in chain_branches:
            x = b.f(space.lift(x, b.lo, b.hi))
        return x

    def df(x):
        d = 1.0
        for b in chain_branches:
            x = space.lift(x, b.lo, b.hi)
            d = d * b.df(x)
            x = b.f(x)
        return d

    def slack(x):
        acc = 0.0
        for b in chain_branches:
            x = space.lift(x, b.lo, b.hi)
            acc = acc * np.abs(b.df(x))
            x = b.f(x)
            acc = acc + np.spacing(np.abs(x))
        return acc

    return f, df, slack


def iterate(m: MapSpec, ell: int) -> MapSpec:
    """MapSpec of f^ell; branch domains are the order-ell monotonicity pieces.

    The phase space is split by the branch domains, then each piece's
    image is split again (`_image_pieces`), ell splits in all; the last
    splits are pulled back through their chains in one `_pull_trie`.
    """
    if ell < 1:
        raise OutOfRange("iterate needs ell >= 1")
    if ell == 1:
        return m
    sp = m.space
    # (chain, the meet (s_lo, s_hi) of its last branch, the meet's image)
    level = [((), None, None, sp.lo, sp.hi)]
    for _ in range(ell):
        level = [(chain + (i,), *piece) for chain, _, _, lo, hi in level
                 for i, *piece in _image_pieces(m, lo, hi, 1e-13)]
    chains, s_lo, s_hi, _, _ = zip(*level)
    dlo, dhi = _pull_trie(m, [c[:-1] for c in chains], s_lo, s_hi).ends()
    branches = []
    for chain, a, b in zip(chains, dlo.tolist(), dhi.tolist()):
        f, df, slack = _composite([m.branches[i] for i in chain], sp)
        va, vb = float(f(a)), float(f(b))
        branches.append(Branch(
            lo=a, hi=b, kind="composite",
            params={"chain": list(chain)},
            _f=f, _df=df, _finv=None, _slack=slack,
            increasing=vb > va, img_lo=min(va, vb), img_hi=max(va, vb),
        ))
    return MapSpec(f"{m.name}^{ell}", sp, tuple(branches),
                   critical=m.critical, neutral=m.neutral)
