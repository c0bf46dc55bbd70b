"""Piecewise one-dimensional maps: branches, built-in families, orbits.

A map is a finite ordered collection of strictly monotone branches on
open subintervals of a phase space [lo, hi], optionally with the two
endpoints identified (circle).  Built-ins: the doubling map, the
Manneville-Pomeau/LSV family (stored as its circle extension, so the
map is total off the single break point 1/2), symmetric tent maps and
real quadratic maps x^2 + c on their invariant interval.

`Branch.inverse_many` is the one inverse: closed forms where a branch
has one, else a safeguarded Newton whose elements each stop on their
own step; a nan target, like one outside the image, raises NotInImage.
Calls of at most `_SHORT_NEWTON` (32) elements, such as the
scheme pullback's five values a trie node, step in Python floats and
evaluate (f, f') on a numpy array, so they keep numpy's bits for the
power |x|^alpha; every other step is one IEEE operation, the same on a
float as on an array element.

On a circle a branch formula may return any lift of its values (2x and
2x - 1 are the same doubling branch), with an image at most one period
long.  `Space.lift`, the lift nearest a branch's midpoint, places every
circle value: in orbits, `iterate`'s composites, the chain pullback
(`_pull_trie`, once per trie edge, by one rule), and the image splits that
`iterate` and the scheme search share.

The chain pullback works on the trie of the chains' distinct suffixes
(`_chain_trie`), laid out from the chains sorted once as byte strings,
each symbol compared once with the row above.  Only the inner nodes,
those with children, are pulled back depth by depth, one inverse call a
depth and map branch; nothing is pulled through a leaf, so all leaves
follow in one call per branch.

`strict_orbit`, the orbit behind `pliss_times`, `lyapunov` and
`zooming_frequency`, is a fast pass and a check, for every map.  The fast
pass is one function per map, generated from its branches on its first
orbit and kept (`_compile_fast_pass`).  A step of it has no tests: a
balanced tree of comparisons with the branch ends picks the branch, a
formula kind's expression (`_KINDS`, the text `Branch.f` is compiled
from) is inlined, any other branch is one call of its f, the circle
reduction of `Space.wrap` follows, and the point goes into a packed
`array` buffer (8 bytes a step).  After each block of `_ORBIT_BLOCK`
(4096) steps one numpy pass checks the block's points: the branch index
(`np.searchsorted`, the tree's), the interior and critical tests, and on
circles a reduction rounded up to hi.  The first step it rejects, or the
one whose formula raised, is decided by `branch_at`'s test of its point:
an invalid point ends the orbit there, a valid one raises the formula's
error again, and otherwise (a circle image rounded up to hi, or nan) the
step lands on lo and the pass resumes from there.  A stop costs at most
one block of extra formula calls.  The branch indices come from one
`np.searchsorted` over the finished orbit: 16 bytes a step in all, and
the peak traced allocation of a 1e5-step orbit is 1.6 MB, the returned
arrays.  A step of lsv(0.6) costs about 0.21 us (quadratic(-1.8) 0.13
us); a step of an `iterate` composite costs several times that, in its
`Space.lift` calls.  Building a pass costs about 0.1 ms at two branches
and 25-45 us a branch from 64 to 65536, mostly in Python's compiler.

Points are plain doubles; all tolerances are at desk scale (1e-6..1e-13).
"""

from __future__ import annotations

import json
import math
import numbers
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import repeat

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
    "ChainTrie",
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
        # strict_orbit's fast pass inlines the float case and leaves a
        # rounded-up hi to its check
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
            return y - self.length * np.rint(k)
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
    df = lambda x: np.full(np.shape(x), a)
    finv = lambda y: (y - b) / a
    return {"a": a, "b": b}, df, finv, None


def _lsv_left(params):
    alpha = float(params["alpha"])
    if not 0 < alpha < math.inf:
        raise OutOfRange(f"lsv_left needs a finite alpha > 0, got {alpha!r}")
    try:
        A = 2.0 ** alpha
    except OverflowError:
        raise OutOfRange(f"lsv_left's 2^alpha overflows a double at alpha={alpha!r}") from None

    def df(x):
        return 1.0 + (alpha + 1.0) * A * abs(x) ** alpha

    def fdf(x):  # f and df from one power, with their bits
        p = abs(x) ** alpha
        return x * (1.0 + A * p), 1.0 + (alpha + 1.0) * A * p

    return {"A": A, "alpha": alpha}, df, None, fdf


def _lsv_right(params):
    return _affine({"a": 2.0, "b": -1.0})


def _quadratic(params):
    c = float(params["c"])
    sign = float(params.get("sign", 1.0))
    df = lambda x: 2.0 * x

    def finv(y):
        return sign * np.sqrt(np.maximum(y - c, 0.0))

    return {"c": c}, df, finv, None


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
    return interp, dinterp, None, None


# The branch kinds: (f as an expression in x and its constants, the
# constructor).  A constructor returns f's constants by name, f', the
# closed-form inverse or None and the fused (f, f') or None; a kind with no
# expression (tables) returns f itself in place of the constants.
# `Branch.make` compiles f from the expression and `strict_orbit`'s fast
# pass inlines the same text, so each formula is written once
_AFFINE = "a * x + b"
_KINDS = {
    "affine": (_AFFINE, _affine),
    "lsv_left": ("x * (1.0 + A * abs(x) ** alpha)", _lsv_left),
    "lsv_right": (_AFFINE, _lsv_right),
    "quadratic": ("x * x + c", _quadratic),
    "table": (None, _table),
}


@cache
def _formula(expr: str, names: tuple):
    """The maker of f from a kind's expression text, compiled once: it takes
    the constants by name and returns f, a function of x (a float or an
    array) whose constants are closure cells."""
    return eval(f"lambda {', '.join(names)}: lambda x: {expr}", {})


# `inverse_many` takes its Newton steps in Python floats for at most this
# many elements: there numpy's cost per call outweighs its cost per element
_SHORT_NEWTON = 32


@dataclass(frozen=True)
class Branch:
    """One strictly monotone branch: its lift formula f (no mod), f', a
    closed-form inverse finv or None, fdf, the pair (f(x), f'(x)) with the
    bits of f and df (one formula where the kind has one, else the two
    calls), slack, the rounding a composite's inner steps carry to f
    (0 for a single formula), and consts, the constants of a formula
    kind's f by name (None where f is called as it is: tables, composites
    and formulas given as functions).  On an array x, df and fdf return
    arrays of x's shape.  Its orientation and image [img_lo, img_hi] are
    read off f at the domain ends, and must be finite (OutOfRange); a
    domain with lo >= hi, or an f with f(lo) == f(hi), is no branch
    (ValueError)."""

    lo: float
    hi: float
    kind: str
    params: dict = field(default_factory=dict)
    f: object = field(default=None, compare=False, repr=False)
    df: object = field(default=None, compare=False, repr=False)
    finv: object = field(default=None, compare=False, repr=False)
    fdf: object = field(default=None, compare=False, repr=False)
    slack: object = field(default=None, compare=False, repr=False)
    consts: dict = field(default=None, compare=False, repr=False)
    increasing: bool = field(init=False, compare=False)
    img_lo: float = field(init=False, compare=False)
    img_hi: float = field(init=False, compare=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"a branch needs lo < hi, got [{self.lo}, {self.hi}]")
        f, df = self.f, self.df
        object.__setattr__(self, "fdf", self.fdf or (lambda x: (f(x), df(x))))
        object.__setattr__(self, "slack", self.slack or (lambda x: 0.0))
        va, vb = float(self.f(self.lo)), float(self.f(self.hi))
        if not (math.isfinite(va) and math.isfinite(vb)):
            raise OutOfRange(f"{self.kind} branch on [{self.lo}, {self.hi}] has the image "
                             f"ends {va!r}, {vb!r}, not finite")
        if va == vb:
            raise ValueError(f"{self.kind} branch on [{self.lo}, {self.hi}] is constant "
                             f"({va!r} at both ends), not strictly monotone")
        object.__setattr__(self, "increasing", vb > va)
        object.__setattr__(self, "img_lo", min(va, vb))
        object.__setattr__(self, "img_hi", max(va, vb))

    @staticmethod
    def make(lo, hi, kind, params=None) -> "Branch":
        params = dict(params or {})
        if kind not in _KINDS:
            raise ValueError(f"unknown branch kind {kind!r}")
        expr, build = _KINDS[kind]
        f, df, finv, fdf = build(params)
        consts = None
        if expr is not None:  # the constructor gave f's constants, not f
            f, consts = _formula(expr, tuple(f))(**f), f
        return Branch(float(lo), float(hi), kind, params, f, df, finv, fdf, consts=consts)

    def inverse_many(self, y: np.ndarray, x0=None) -> np.ndarray:
        """Vectorized inverse on the branch closure; NotInImage for a nan
        value or one more than 1e-12 (relative) outside the image, whatever
        the start.  A closed-form `finv`
        ignores x0.  Otherwise safeguarded Newton starts from x0 (of y's
        shape; default: the target value; a nan start, from a zero slope,
        takes the left end), clipped into the branch, keeps every iterate
        in a shrinking bracket and stops each element on its own step.
        Each iteration evaluates (f, f') once, in one `fdf` call, and an
        element that stops leaves the working arrays, so later iterations
        cost only the elements still stepping.  At most _SHORT_NEWTON elements take the same steps in
        Python floats (`_newton_short`), where numpy's cost per call
        outweighs its cost per element.  An element's bits depend only on
        its own target and start, not on the others in the call or on
        which of the two loops ran; a start with f(x0) == y exactly takes
        a zero step and stops at x0."""
        y = np.asarray(y, dtype=float)
        pad = 1e-12 * max(1.0, abs(self.img_lo), abs(self.img_hi))
        out = ~((y >= self.img_lo - pad) & (y <= self.img_hi + pad))  # nan too
        if np.count_nonzero(out):
            raise NotInImage(
                f"{float(y[out][0])!r} outside image [{self.img_lo}, {self.img_hi}] "
                f"of {self.kind} branch"
            )
        # np.minimum/np.maximum: np.clip costs several times as much on short arrays
        y = np.minimum(np.maximum(y, self.img_lo), self.img_hi)
        if self.finv is not None:
            return np.minimum(np.maximum(self.finv(y), self.lo), self.hi)
        shape, y = y.shape, y.reshape(-1)
        if x0 is None:
            x = np.minimum(np.maximum(y, self.lo), self.hi)
        else:
            x = np.fmin(np.fmax(x0, self.lo), self.hi).reshape(-1)
        if len(x) <= _SHORT_NEWTON:
            return self._newton_short(x, y).reshape(shape)
        lo, hi = self.lo, self.hi  # the bracket, arrays from the first step on
        # at: the places in res of the elements still stepping (None: all of them)
        res, at = None, None
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero df bisects
            for _ in range(80):
                fx, dfx = self.fdf(x)
                fx = fx - y
                above = (fx > 0) == self.increasing
                hi = np.where(above, x, hi)
                lo = np.where(above, lo, x)
                xn = x - fx / dfx
                inside = (xn >= lo) & (xn <= hi)
                # nan, inf and steps out of the bracket bisect (count_nonzero:
                # .all() and .any() cost several times as much on short arrays)
                if np.count_nonzero(inside) < len(xn):
                    np.copyto(xn, 0.5 * (lo + hi), where=~inside)
                # an element keeps the iterate whose step fell below 1e-15
                small = np.abs(xn - x) < 1e-15
                x = xn
                stopped = np.count_nonzero(small)
                if stopped == len(x):
                    break
                if stopped:
                    go = ~small
                    if at is None:
                        res, at = x, np.flatnonzero(go)
                    else:
                        res[at[small]] = x[small]
                        at = at[go]
                    x, y, lo, hi = x[go], y[go], lo[go], hi[go]
        if at is not None:
            res[at] = x
            x = res
        return x.reshape(shape)

    def _newton_short(self, x, y):
        """`inverse_many`'s Newton steps on a short array, in Python floats
        but for (f, f'): that is still one `fdf` call an iteration, on an
        array of the elements still stepping, since numpy's |x|^alpha need
        not have libm's bits (its SIMD power differs from `**` on about 5 %
        of lsv(1.5)'s arguments).  Every other step is one IEEE operation,
        with the same bits on a float as on an array element; a zero f'
        (ZeroDivisionError here, an inf or nan step in numpy) bisects."""
        n, inc = len(x), self.increasing
        xs, ys, los, his = x.tolist(), y.tolist(), [self.lo] * n, [self.hi] * n
        out, go = xs[:], list(range(n))  # go: the places in out still stepping
        for _ in range(80):
            if not go:
                break
            fx, dfx = (v.tolist() for v in self.fdf(np.array(xs)))
            stopped = False
            for k, xk in enumerate(xs):
                r = fx[k] - ys[k]
                if (r > 0) == inc:
                    his[k] = xk
                else:
                    los[k] = xk
                try:
                    xn = xk - r / dfx[k]
                except ZeroDivisionError:
                    xn = math.nan
                if not los[k] <= xn <= his[k]:
                    xn = 0.5 * (los[k] + his[k])
                xs[k] = xn
                if abs(xn - xk) < 1e-15:
                    out[go[k]], go[k], stopped = xn, -1, True
            if stopped:
                keep = [k for k, g in enumerate(go) if g >= 0]
                xs, ys, los, his, go = ([v[k] for k in keep] for v in (xs, ys, los, his, go))
        for g, xk in zip(go, xs):
            out[g] = xk
        return np.array(out, dtype=float)

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
        sp = self.space
        if not (math.isfinite(sp.lo) and math.isfinite(sp.hi) and sp.lo < sp.hi):
            raise ValueError(f"a phase space needs finite ends lo < hi, got [{sp.lo}, {sp.hi}]")
        bs = sorted(self.branches, key=lambda b: b.lo)
        if not bs:
            raise ValueError("a map needs at least one branch")
        object.__setattr__(self, "branches", tuple(bs))
        for a, b in zip(bs, bs[1:]):
            if b.lo < a.hi - 1e-15:
                raise ValueError("branch domains overlap")
        if bs[0].lo < sp.lo - 1e-15 or max(b.hi for b in bs) > sp.hi + 1e-15:
            raise ValueError(f"a branch domain leaves the phase space [{sp.lo}, {sp.hi}]")
        # a longer image has no unique lift (rounding may add 1e-9 relative)
        longest = max(b.img_hi - b.img_lo for b in bs)
        if self.space.circle and longest > self.space.length * (1 + 1e-9):
            raise ValueError("a circle branch has an image longer than the circle")
        object.__setattr__(self, "_los", tuple(b.lo for b in bs))

    def branch_index(self, x: float) -> int:
        """Index of the open branch domain containing x, else -1."""
        i = bisect_right(self._los, x) - 1
        if i >= 0 and self._los[i] < x < self.branches[i].hi:
            return i
        return -1

    @cached_property
    def _ends(self):
        """The branch domains' lo and hi ends as arrays, made on first read and kept."""
        return np.array(self._los), np.array([b.hi for b in self.branches])

    @cached_property
    def _fast_pass(self):
        """`strict_orbit`'s fast pass (`_compile_fast_pass`), made on the first orbit and kept."""
        return _compile_fast_pass(self)


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


def _is_int(v) -> bool:
    """Whether v is an integer and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_step_count(n) -> None:
    """OutOfRange unless an orbit's step count n is an integer >= 0 (not a bool)."""
    if not _is_int(n) or n < 0:
        raise OutOfRange(f"an orbit needs an integer n >= 0 steps, got {n!r}")


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
    OutOfRange unless n is an integer >= 0 (not a bool).
    """
    _check_step_count(n)
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


# `strict_orbit`'s fast pass takes this many steps between two checks: a
# stop costs at most this many extra formula calls
_ORBIT_BLOCK = 4096


def strict_orbit(m: MapSpec, x: float, n: int):
    """Orbit using interior-only evaluation.

    Returns (points, branch_indices, complete); stops at the first point on
    a boundary or in the critical set.  branch_indices[j] is the branch
    containing points[j] (length = len(points) - 1 when complete).
    OutOfRange unless n is an integer >= 0 (not a bool).
    """
    _check_step_count(n)
    x = m.space.wrap(_finite_point(x))
    run = m._fast_pass
    pts = array("d", [x])
    ok, done = True, 0  # done: the steps checked and accepted
    while done < n:
        error = None
        try:
            x = run(x, min(_ORBIT_BLOCK, n - done), pts.append)
        except Exception as e:  # raised again below if its point is valid
            error = e
        done += _accepted_steps(m, pts, done)
        if done < len(pts) - 1 or error is not None:
            # the first step rejected, or the one whose formula raised:
            # `branch_at`'s test of its point decides
            if m.branch_index(pts[done]) < 0 or pts[done] in m.critical:
                del pts[done + 1:]
                ok = False
                break
            if done == len(pts) - 1:
                raise error
            # on a circle the reduction rounded the image up to hi, or it
            # is nan: the step lands on lo, and the pass resumes there
            x = pts[done + 1] = m.space.lo
            del pts[done + 2:]
            done += 1
    # every step's index is the tree's, which is the bisection's, so one
    # pass finds them all
    pts = np.frombuffer(pts)
    bidx = np.searchsorted(m._ends[0], pts[:-1], "right")
    bidx -= 1
    return pts, bidx.astype(np.int64, copy=False), ok


def _compile_fast_pass(m: MapSpec):
    """`strict_orbit`'s fast pass for m, generated from its branches and
    compiled: run(x, n, put) takes n steps from x, puts each point and
    returns the last.  A step has no tests.  A balanced tree of
    comparisons with the branch ends picks the branch as `bisect_right`
    does (a point below every end takes the first branch, a nan the last);
    a formula kind's expression (`_KINDS`) is inlined, any other branch is
    called as float(f(x)); on circles the reduction lo + (y - lo) % L
    follows.  The ends, constants and functions are locals unpacked from
    one tuple at each call, under generated names: no parameter text
    enters the source."""
    bs, sp = m.branches, m.space
    names, values = [], []

    def bind(v):
        names.append(f"k{len(names)}")
        values.append(v)
        return names[-1]

    def value(b):  # the branch's f(x) as source
        if b.consts is None:
            return f"flt({bind(b.f)}(x))"
        rename = {k: bind(v) for k, v in b.consts.items()}
        return re.sub(r"\b[A-Za-z_]\w*\b", lambda w: rename.get(w[0], w[0]), _KINDS[b.kind][0])

    def tree(i, j, pad):  # the source of a step on branches i..j - 1
        if j - i == 1:
            return [f"{pad}x = {step.format(value(bs[i]))}"]
        k = (i + j) // 2
        return [f"{pad}if x < {bind(bs[k].lo)}:", *tree(i, k, pad + "    "),
                f"{pad}else:", *tree(k, j, pad + "    ")]

    step = "{}"
    if sp.circle:
        lo, L = bind(sp.lo), bind(sp.length)
        step = f"{lo} + (({{}}) - {lo}) % {L}"
    body = tree(0, len(bs), " " * 8)
    src = "\n".join([
        "def run(x, n, put):",
        f"    {', '.join(names)}, flt, repeat = K",
        "    for _ in repeat(None, n):",
        *body,
        "        put(x)",
        "    return x",
    ])
    scope = {"K": (*values, float, repeat)}
    exec(compile(src, f"<fast pass of {len(bs)} branches>", "exec"), scope)
    return scope["run"]


def _accepted_steps(m: MapSpec, pts: array, start: int) -> int:
    """`strict_orbit`'s check: how many steps from pts[start] on the fast
    pass took as they stand.  A step stands when its point is inside its
    branch (`np.searchsorted` gives the bisection's index) and not
    critical, and on circles when its image is below hi: a reduction
    rounded up to hi, or a nan, goes to lo."""
    sp = m.space
    x = np.frombuffer(pts, offset=pts.itemsize * start)  # a view, gone on return: pts may grow
    x_in, (lo_end, hi_end) = x[:-1], m._ends
    i = np.searchsorted(lo_end, x_in, "right")
    i -= 1
    good = (lo_end[i] < x_in) & (x_in < hi_end[i])
    for c in m.critical:
        good &= x_in != c
    if sp.circle:
        good &= x[1:] < sp.hi
    bad = np.flatnonzero(~good)
    return int(bad[0]) if len(bad) else len(good)


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
    `symbols[n]`: its parent's values, lifted (`_shift`), pulled back
    through that branch.  Its five `values` are the pullbacks of its
    seed's lo, lo + delta, midpoint, hi - delta and hi (delta = 1e-3 of the
    seed).  `leaf[e]` is the node of chain e.
    """

    parent: np.ndarray
    symbols: np.ndarray
    at: list
    values: np.ndarray
    leaf: np.ndarray

    def ends(self):
        """(lo, hi) arrays of the chains' cylinders: their leaves' outer values."""
        v = self.values[self.leaf][:, ::4]
        return v.min(axis=1), v.max(axis=1)


def _chain_trie(chains, lo, hi) -> ChainTrie:
    """The trie of the distinct suffixes of chains[e] on the seed
    (lo[e], hi[e]), with the seeds' values; the other nodes' values are
    nan.  Nodes go by depth, then by map branch, then by the chain
    suffixes' lexicographic order: the order depends only on the set of
    chains and seeds.  lo and hi are per-chain arrays or one value for all.

    Row e is chain e's seed, then its symbols last first.  The rows are
    sorted once and their symbols laid end to end, each compared once with
    the same column of the row above; a row makes a node at each column
    past the prefix it shares with that row.  The nodes so made are in
    preorder, where a node's parent is the last node before it one depth
    up; one stable sort puts them by depth and branch."""
    n = len(chains)
    ends = np.stack([np.broadcast_to(np.asarray(v, dtype=float), n) for v in (lo, hi)], axis=1)
    # a (lo, hi) row as one complex number: np.unique sorts those
    # lexicographically too, many times faster than rows (axis=0)
    seeds, root = np.unique(ends.view(complex).reshape(-1), return_inverse=True)
    seeds = seeds.view(float).reshape(-1, 2)
    # the symbols as bytes, which sort as the symbols do: one byte a
    # symbol below 256, else four big-endian ones
    try:
        rows, dtype = [bytes(tuple(c))[::-1] for c in chains], np.dtype(np.uint8)
    except ValueError:
        rows = [np.array(c[::-1], dtype=">u4").tobytes() for c in chains]
        dtype = np.dtype(">u4")
    root, rows, order = zip(*sorted(zip(root.tolist(), rows, range(n)))) if n else ((), (), ())
    S = np.frombuffer(b"".join(rows), dtype=dtype)
    W = np.fromiter(map(len, rows), dtype=np.int64, count=n) // dtype.itemsize
    start, above = np.cumsum(W) - W, np.concatenate(([0], W))[:-1]
    # each row's first symbol unlike the row above's in its column (past
    # the end of the row above the comparison means nothing: `same` is
    # cut to its length); a seed like the one above adds a shared column
    differ = np.flatnonzero(S != S[np.arange(len(S)) - np.repeat(above, W)])
    row = np.searchsorted(start, differ, side="right") - 1
    first = np.flatnonzero(np.diff(row, prepend=-1))
    same = W.copy()
    same[row[first]] = differ[first] - start[row[first]]
    shared = np.where(np.diff(root, prepend=-1) == 0, 1 + np.minimum(same, above), 0)
    # row i makes the nodes of its columns shared[i]..W[i] (a duplicate none)
    made = W + 1 - shared
    K = int(made.sum())
    depth = np.repeat(shared - (np.cumsum(made) - made), made) + np.arange(K)
    cell = np.repeat(start - 1, made) + depth  # the node's symbol in S
    symbols = np.full(K, -1)
    symbols[depth > 0] = S[cell[depth > 0]]
    by = np.argsort(depth, kind="stable")
    key = depth[by] * K + by  # sorted: by depth, then preorder
    parent = np.where(depth > 0, by[np.searchsorted(key, (depth - 1) * K + np.arange(K)) - 1],
                      np.arange(K))
    rank = np.lexsort((symbols, depth))
    renumber = np.empty(K, dtype=np.int64)
    renumber[rank] = np.arange(K)
    depth, symbols, parent = depth[rank], symbols[rank], renumber[parent[rank]]
    at = np.searchsorted(depth, np.arange(int(W.max(initial=0)) + 2)).tolist()
    # a row's leaf is the last node made up to it
    leaf = np.empty(n, dtype=np.int64)
    leaf[list(order)] = renumber[np.cumsum(made) - 1]
    values = np.full((K, 5), np.nan)
    d = 1e-3 * (seeds[:, 1] - seeds[:, 0])
    values[:at[1]] = np.stack([seeds[:, 0], seeds[:, 0] + d, 0.5 * (seeds[:, 0] + seeds[:, 1]),
                               seeds[:, 1] - d, seeds[:, 1]], axis=1)
    return ChainTrie(parent=parent, symbols=symbols, at=at, values=values, leaf=leaf)


def _shift(m: MapSpec, T: ChainTrie, nodes, img=None) -> np.ndarray:
    """What nodes (a slice or an index array) pull back: their parents'
    values, on circles lifted by the outer midpoint toward the node's
    branch image; the one lift rule of the pullback and the certificate.
    img: the (2, nodes) image ends of every node's branch, built when None."""
    # _pull_trie lifts short groups in Python floats; keep the two in step
    y = T.values[T.parent[nodes]]
    if not m.space.circle:
        return y
    if img is None:
        img = _node_images(m, T)
    mid = 0.5 * (y[:, 0] + y[:, 4])
    return y - (mid - m.space.lift(mid, img[0, nodes], img[1, nodes]))[:, None]


def _node_images(m: MapSpec, T: ChainTrie) -> np.ndarray:
    """The (2, nodes) image ends of each node's map branch (a root, whose
    symbol is -1, reads the last branch's; no pullback or check uses it)."""
    return np.array([(br.img_lo, br.img_hi) for br in m.branches]).T[:, T.symbols]


def _pull_trie(m: MapSpec, chains, lo, hi) -> ChainTrie:
    """Pull the intervals (lo[e], hi[e]) back through the chains[e].

    Every node of the chains' trie (`_chain_trie`) is pulled back once
    from its parent: on circles the parent is first lifted (`_shift`),
    then inverted (`Branch.inverse_many`).  Only the inner nodes, those
    with children, need a pass per depth, all of a depth on one map
    branch in one call; where they hold at most _SHORT_NEWTON values
    their parents are lifted in Python floats (`Space.lift`'s float path
    has the array path's bits).  A leaf depends on its parent alone, so
    after the last depth every leaf is lifted at once and inverted in one
    call per map branch.
    """
    T = _chain_trie(chains, lo, hi)
    at, values, parent, B, sp = T.at, T.values, T.parent, len(m.branches), m.space
    img = _node_images(m, T)
    below = np.arange(at[1], len(parent))
    has_child = np.zeros(len(parent), dtype=bool)
    has_child[parent] = True
    inner, leaves = below[has_child[below]], below[~has_child[below]]
    # inner nodes go by depth, then branch: cut[d * B + k] is the first of
    # depth d + 1 on branch k (k = B: the first of depth d + 2)
    key = (np.searchsorted(at, inner, side="right") - 1) * B + T.symbols[inner]
    cut = np.searchsorted(key, np.arange(B, B * (len(at) - 1) + 1)).tolist()
    parent_list = parent[inner].tolist()
    for d in range(len(at) - 2):
        c = cut[d * B:d * B + B + 1]
        for br, i, j in zip(m.branches, c, c[1:]):
            if i == j:
                continue
            if 5 * (j - i) > _SHORT_NEWTON:
                y = _shift(m, T, inner[i:j], img).ravel()
            else:  # `_shift` in Python floats; keep the two in step
                y = []
                for p in parent_list[i:j]:
                    v = values[p].tolist()
                    if sp.circle:
                        mid = 0.5 * (v[0] + v[4])
                        s = mid - sp.lift(mid, br.img_lo, br.img_hi)
                        v = [x - s for x in v]
                    y += v
                y = np.array(y)
            values[inner[i:j]] = br.inverse_many(y).reshape(-1, 5)
    leaves = leaves[np.argsort(T.symbols[leaves], kind="stable")]
    y = _shift(m, T, leaves, img)
    cut = np.searchsorted(T.symbols[leaves], np.arange(B + 1)).tolist()
    for br, i, j in zip(m.branches, cut, cut[1:]):
        if i < j:
            values[leaves[i:j]] = br.inverse_many(y[i:j].ravel()).reshape(-1, 5)
    return T


# ---------------------------------------------------------------------------
# iterates

# the most monotonicity pieces `iterate` builds: each is a composite branch
# whose formulas take ell steps, and the count grows like 2^ell
_MAX_ITERATE_PIECES = 1 << 16


def _composite(chain_branches, space):
    """Lift formulas of a chain and its rounding slack (`Branch.slack`: each
    step's ulp times the |f'| of the steps after it); each step takes the
    lift nearest its branch (floats or arrays)."""

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
    OutOfRange unless ell is an integer >= 1 (not a bool), or once a
    split makes more than _MAX_ITERATE_PIECES pieces.
    """
    if not _is_int(ell) or ell < 1:
        raise OutOfRange(f"iterate needs an integer ell >= 1, got {ell!r}")
    if ell == 1:
        return m
    sp = m.space
    # (chain, the meet (s_lo, s_hi) of its last branch, the meet's image)
    level = [((), None, None, sp.lo, sp.hi)]
    for step in range(1, ell + 1):
        pieces = []
        for chain, _, _, lo, hi in level:
            for i, *piece in _image_pieces(m, lo, hi, 1e-13):
                if len(pieces) == _MAX_ITERATE_PIECES:
                    raise OutOfRange(f"{m.name}^{step} has over {_MAX_ITERATE_PIECES} "
                                     f"monotonicity pieces, too many to build")
                pieces.append((chain + (i,), *piece))
        level = pieces
    chains, s_lo, s_hi, _, _ = zip(*level)
    dlo, dhi = _pull_trie(m, [c[:-1] for c in chains], s_lo, s_hi).ends()
    branches = []
    for chain, a, b in zip(chains, dlo.tolist(), dhi.tolist()):
        f, df, slack = _composite([m.branches[i] for i in chain], sp)
        branches.append(Branch(a, b, "composite", {"chain": list(chain)}, f, df, slack=slack))
    return MapSpec(f"{m.name}^{ell}", sp, tuple(branches),
                   critical=m.critical, neutral=m.neutral)
