"""Piecewise one-dimensional maps: branches, built-in families, orbits.

A map is a finite ordered collection of strictly monotone branches on
open subintervals of a phase space [lo, hi], optionally with the two
endpoints identified (circle).  Built-ins: the doubling map, the
Manneville-Pomeau/LSV family (stored as its circle extension, so the
map is total off the single break point 1/2), symmetric tent maps and
real quadratic maps x^2 + c on their invariant interval.

Points are plain doubles; all tolerances are at desk scale (1e-6..1e-13).
"""

from __future__ import annotations

import json
import math
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

    def wrap(self, x: float) -> float:
        """Reduce x into [lo, hi) on circles; identity otherwise."""
        if not self.circle:
            return x
        y = (x - self.lo) % self.length
        return self.lo + y

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
    df = lambda x: a * (x * 0 + 1.0) if isinstance(x, np.ndarray) else a
    finv = lambda y: (y - b) / a
    return f, df, finv


def _lsv_left(params):
    alpha = float(params["alpha"])
    A = 2.0 ** alpha

    def f(x):
        return x * (1.0 + A * np.abs(x) ** alpha) if isinstance(x, np.ndarray) else x * (1.0 + A * x ** alpha)

    def df(x):
        return 1.0 + (alpha + 1.0) * A * (np.abs(x) if isinstance(x, np.ndarray) else x) ** alpha

    return f, df, None


def _lsv_right(params):
    return _affine({"a": 2.0, "b": -1.0})


def _quadratic(params):
    c = float(params["c"])
    sign = float(params.get("sign", 1.0))
    f = lambda x: x * x + c
    df = lambda x: 2.0 * x

    def finv(y):
        r = y - c
        r = np.sqrt(np.maximum(r, 0.0)) if isinstance(r, np.ndarray) else math.sqrt(max(r, 0.0))
        return sign * r

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
        if self.kind == "composite":
            return np.array([float(self._f(v)) for v in x])
        return np.asarray(self._f(np.asarray(x, dtype=float)), dtype=float)

    def df_many(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "composite":
            return np.array([float(self._df(v)) for v in x])
        x = np.asarray(x, dtype=float)
        d = np.asarray(self._df(x), dtype=float)
        if d.ndim == 0:
            d = np.full(x.shape, float(d))
        return d

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def inverse(self, y: float, tol: float = 1e-12) -> float:
        """Solve f(x) = y on the branch closure (monotone bisection + Newton)."""
        pad = max(tol, 1e-12) * max(1.0, abs(self.img_lo), abs(self.img_hi))
        if y < self.img_lo - pad or y > self.img_hi + pad:
            raise NotInImage(
                f"{y!r} outside image [{self.img_lo}, {self.img_hi}] of {self.kind} branch"
            )
        y = min(max(y, self.img_lo), self.img_hi)
        if self._finv is not None:
            x = float(self._finv(y))
            return min(max(x, self.lo), self.hi)
        lo, hi = self.lo, self.hi
        x = 0.5 * (lo + hi)
        for _ in range(200):
            fx = float(self._f(x)) - y
            if abs(fx) <= tol:
                break
            if (fx > 0) == self.increasing:
                hi = x
            else:
                lo = x
            d = float(self._df(x))
            xn = x - fx / d if d != 0.0 else 0.5 * (lo + hi)
            if not (lo <= xn <= hi):
                xn = 0.5 * (lo + hi)
            if xn == x:
                break
            x = xn
        return x

    def inverse_many_warm(self, y: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """Vectorized Newton inverse with caller-supplied starting points.

        Falls back to the robust bisection inverse for entries that fail
        to converge (monotone branches; clamped to the domain closure).
        """
        y = np.asarray(y, dtype=float)
        if self._finv is not None:
            x = np.asarray(self._finv(np.clip(y, self.img_lo, self.img_hi)), dtype=float)
            return np.clip(x, self.lo, self.hi)
        # a composite's lift formulas take scalars only
        f, df = (self.f_many, self.df_many) if self.kind == "composite" else (self._f, self._df)
        x = np.clip(np.asarray(x0, dtype=float), self.lo, self.hi)
        scale = max(abs(self.img_lo), abs(self.img_hi), 1.0)
        for _ in range(10):
            fx = f(x) - y
            d = df(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = fx / d
            x = np.clip(x - step, self.lo, self.hi)
            if np.max(np.abs(fx)) < 1e-14 * scale:
                break
        bad = np.abs(f(x) - y) > 1e-11 * scale
        if np.any(bad):
            x[bad] = self.inverse_many(y[bad])
        return x

    def inverse_many(self, y: np.ndarray) -> np.ndarray:
        """Vectorized inverse on the branch closure (values assumed in image)."""
        y = np.asarray(y, dtype=float)
        y = np.clip(y, self.img_lo, self.img_hi)
        if self._finv is not None:
            x = np.asarray(self._finv(y), dtype=float)
            return np.clip(x, self.lo, self.hi)
        if self.kind == "composite":
            return np.array([self.inverse(float(v), 1e-13) for v in y])
        lo = np.full_like(y, self.lo)
        hi = np.full_like(y, self.hi)
        x = 0.5 * (lo + hi)
        for _ in range(80):
            fx = self._f(x) - y
            above = (fx > 0) == self.increasing
            hi = np.where(above, x, hi)
            lo = np.where(above, lo, x)
            d = self._df(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = x - fx / d
            bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
            xn = np.where(bad, 0.5 * (lo + hi), xn)
            if np.max(np.abs(xn - x)) < 1e-15:
                x = xn
                break
            x = xn
        return x

    def spec(self) -> dict:
        params = {k: (list(v) if isinstance(v, (list, tuple, np.ndarray)) else v)
                  for k, v in self.params.items()}
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
        object.__setattr__(self, "branches", tuple(bs))
        for a, b in zip(bs, bs[1:]):
            if b.lo < a.hi - 1e-15:
                raise ValueError("branch domains overlap")
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


# ---------------------------------------------------------------------------
# point operations


def branch_at(m: MapSpec, x: float) -> Branch:
    x = m.space.wrap(x)
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
        for xx in ((x, x - sp.length, x + sp.length) if sp.circle else (x,)):
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
    pts = [m.space.wrap(x) if m.space.circle else float(x)]
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
    sp = m.space
    x = sp.wrap(x) if sp.circle else float(x)
    pts = [x]
    bidx = []
    ok = True
    for _ in range(n):
        cur = pts[-1]
        i = m.branch_index(cur)
        if i < 0 or cur in m.critical:
            ok = False
            break
        bidx.append(i)
        y = float(m.branches[i].f(cur))
        pts.append(sp.wrap(y) if sp.circle else y)
    return np.array(pts), np.array(bidx, dtype=int), ok


# ---------------------------------------------------------------------------
# iterates


def _composite(chain_branches, space):
    def into(b, y):
        # the lift of y nearest to b's closed domain: wrapping alone sends
        # a chain value 1.0 to 0.0, off a branch that ends at 1
        if not space.circle:
            return y
        y = space.wrap(y)
        if y < b.lo and b.lo - y > y + space.length - b.hi:
            return y + space.length
        if y > b.hi and y - b.hi > b.lo - y + space.length:
            return y - space.length
        return y

    def f(x):
        y = x
        for b in chain_branches:
            y = b.f(into(b, y))
        return y

    def df(x):
        y = x
        d = 1.0
        for b in chain_branches:
            yy = into(b, y)
            d = d * b.df(yy)
            y = b.f(yy)
        return d

    return f, df


def iterate(m: MapSpec, ell: int) -> MapSpec:
    """MapSpec of f^ell; branch domains are the order-ell monotonicity pieces."""
    if ell < 1:
        raise ValueError("ell >= 1 required")
    if ell == 1:
        return m
    sp = m.space
    pieces = []

    def descend(dlo, dhi, chain, depth):
        # current image of (dlo, dhi) under the chain so far
        if depth == ell:
            pieces.append((dlo, dhi, tuple(chain)))
            return
        if chain:
            a = dlo
            bnd = dhi
            y_lo, y_hi = a, bnd
            for bi in chain:
                br = m.branches[bi]
                v1, v2 = float(br.f(sp.wrap(y_lo) if sp.circle else y_lo)), float(br.f(sp.wrap(y_hi) if sp.circle else y_hi))
                y_lo, y_hi = min(v1, v2), max(v1, v2)
                if sp.circle:
                    # keep within one period window; built-ins stay in [0,1]
                    shift = math.floor(y_lo - sp.lo)
                    y_lo -= shift
                    y_hi -= shift
            img_lo, img_hi = y_lo, y_hi
        else:
            img_lo, img_hi = dlo, dhi
        for bi, br in enumerate(m.branches):
            s_lo, s_hi = max(img_lo, br.lo), min(img_hi, br.hi)
            if s_hi - s_lo <= 1e-13:
                continue
            # pull (s_lo, s_hi) back to domain coordinates through the chain
            a, b = s_lo, s_hi
            for bj in reversed(chain):
                brj = m.branches[bj]
                a, b = brj.inverse(a, 1e-14), brj.inverse(b, 1e-14)
                if a > b:
                    a, b = b, a
            descend(a, b, chain + [bi], depth + 1)

    descend(sp.lo, sp.hi, [], 0)

    branches = []
    for dlo, dhi, chain in pieces:
        cbs = [m.branches[i] for i in chain]
        f, df = _composite(cbs, sp)
        va, vb = float(f(dlo)), float(f(dhi))
        branches.append(Branch(
            lo=dlo, hi=dhi, kind="composite",
            params={"chain": list(chain)},
            _f=f, _df=df, _finv=None,
            increasing=vb > va, img_lo=min(va, vb), img_hi=max(va, vb),
        ))
    return MapSpec(f"{m.name}^{ell}", sp, tuple(branches),
                   critical=m.critical, neutral=m.neutral)
