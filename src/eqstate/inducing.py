"""Full induced Markov maps by exact first-return combinatorics.

The construction expands forward images of the base through the branch
partition, emitting a scheme branch whenever an image covers the base
and continuing with the uncovered remainders.  This is exact (interval
endpoints only, no orbit sampling) and restricted to Markov-compatible
bases: any image that partially overlaps the base aborts the build.  On
circles an image may be a lift; it meets the base in phase-space parts
(`maps._window_parts`, split further as in `iterate`).

Every branch is certified full by one forward walk of all chains in lock
step (`maps._walk_chains`), which `thermo` reads too for induced
potentials and sampling.  At each step the walk takes the lift of a point
nearest the step's branch (`Space.lift`: on circles a value of 1.0 stays
1.0 for a branch that ends at 1), clamps it into the branch and applies
the branch formula; the certificate rejects an end whose lift lies more
than 1e-9 off its branch.

Level counts #{R=n} are the generating data for the pressure equation;
closed-form generators for the worked families are provided alongside
enumerated counts so series tails can be certified, not just truncated.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotMarkovCompatible,
    OutOfRange,
    ToleranceFailure,
    UnknownGenerator,
)
from .maps import MapSpec, _chain_array, _image_pieces, _pull_chains, _walk_chains, _window_parts
from .maps import from_json as map_from_json, to_json as map_to_json

__all__ = [
    "SchemeBranch",
    "InducingScheme",
    "LevelCounts",
    "CylinderRefinement",
    "first_return_scheme",
    "level_counts",
    "analytic_counts",
    "refine",
    "save_scheme",
    "load_scheme",
]

_MAX_PIECES = 200_000


@dataclass(frozen=True)
class SchemeBranch:
    index: int
    lo: float
    hi: float
    return_time: int
    chain: tuple
    marker: float


@dataclass(frozen=True)
class InducingScheme:
    map: MapSpec
    base_lo: float
    base_hi: float
    branches: tuple
    complete_up_to: int
    exhausted: bool
    tol: float

    @property
    def base(self):
        return (self.base_lo, self.base_hi)

    @property
    def diam_base(self) -> float:
        return self.base_hi - self.base_lo

    def return_times(self) -> np.ndarray:
        return np.array([b.return_time for b in self.branches], dtype=int)

    def markers(self) -> np.ndarray:
        return np.array([b.marker for b in self.branches])

    def __len__(self):
        return len(self.branches)


def _base_ok(sp, lo: float, hi: float) -> bool:
    """Whether (lo, hi) is a nondegenerate subinterval of the phase space."""
    return sp.lo - 1e-12 <= lo < hi <= sp.hi + 1e-12


def _check_tol(tol: float) -> None:
    """Raise OutOfRange unless the tolerance tol is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise OutOfRange(f"tol must be finite and >= 0, got {tol!r}")


def first_return_scheme(m: MapSpec, base, n_max: int, tol: float = 1e-9) -> InducingScheme:
    """First-return full-branch scheme over a Markov-compatible base interval.

    Emits every first-return branch with R <= n_max; each branch is
    certified full by mapping its cylinder endpoints forward onto the
    base boundary within tol.
    """
    _check_tol(tol)
    B_lo, B_hi = float(base[0]), float(base[1])
    sp = m.space
    if not _base_ok(sp, B_lo, B_hi):
        raise OutOfRange("base must be a nondegenerate subinterval of the phase space")

    chains = []
    dropped_at_horizon = False
    # queue holds forward images (lifts on circles): (img_lo, img_hi, chain); time = len(chain)
    queue = deque()

    def advance(lo, hi, chain):
        """Split (lo,hi) by branch domains and push one-step images."""
        nonlocal dropped_at_horizon
        if len(chain) >= n_max:
            dropped_at_horizon = True
            return
        for bi, _, _, f_lo, f_hi in _image_pieces(m, lo, hi, tol):
            queue.append((f_lo, f_hi, chain + (bi,)))

    advance(B_lo, B_hi, ())
    seen = 0
    while queue:
        img_lo, img_hi, chain = queue.popleft()
        seen += 1
        if seen > _MAX_PIECES:
            raise NotMarkovCompatible(
                f"piece count exceeded {_MAX_PIECES}; base is likely not Markov-compatible"
            )
        for lo, hi in _window_parts(sp, img_lo, img_hi, tol):
            ov = min(hi, B_hi) - max(lo, B_lo)
            if ov <= tol:
                advance(lo, hi, chain)
                continue
            covers = lo <= B_lo + tol and hi >= B_hi - tol
            if not covers:
                raise NotMarkovCompatible(
                    f"image ({lo:.17g}, {hi:.17g}) of a time-{len(chain)} piece "
                    f"straddles the base ({B_lo:.17g}, {B_hi:.17g})"
                )
            chains.append(chain)
            if B_lo - lo > tol:
                advance(lo, B_lo, chain)
            if hi - B_hi > tol:
                advance(B_hi, hi, chain)

    c_lo, c_hi = _pull_chains(m, chains, B_lo, B_hi)
    order = sorted(range(len(chains)), key=lambda e: (len(chains[e]), c_lo[e]))
    chains = [chains[e] for e in order]
    c_lo, c_hi = c_lo[order], c_hi[order]
    # full-branch certificate: both cylinder ends map onto the base boundary
    ends = np.concatenate([c_lo, c_hi])
    img = np.empty(len(ends))
    far = np.zeros(len(ends), dtype=bool)
    for _, e, _, lift, x, fx in _walk_chains(m, _chain_array(chains + chains), ends):
        img[e] = fx
        far[e] |= np.abs(lift - x) > 1e-9
    img = sp.wrap(img)
    img[far] = np.nan
    d = np.minimum(sp.dist(img, B_lo), sp.dist(img, B_hi))
    bad = np.flatnonzero(~(d <= tol))
    if len(bad):
        k = len(chains)
        e = min(bad, key=lambda e: (e % k, e // k))
        raise ToleranceFailure(
            f"endpoint {float(ends[e])!r} of branch {e % k} (R={len(chains[e % k])}) maps to "
            f"{None if np.isnan(img[e]) else float(img[e])!r}, "
            f"not onto the base boundary within {tol}"
        )
    branches = tuple(
        SchemeBranch(index=idx, lo=float(a), hi=float(b), return_time=len(chain),
                     chain=chain, marker=0.5 * (float(a) + float(b)))
        for idx, (a, b, chain) in enumerate(zip(c_lo, c_hi, chains))
    )
    return InducingScheme(
        map=m, base_lo=B_lo, base_hi=B_hi, branches=branches,
        complete_up_to=n_max, exhausted=not dropped_at_horizon,
        tol=tol,
    )


@dataclass(frozen=True)
class LevelCounts:
    """n -> #{R=n}, enumerated or closed form, with a growth certificate.

    support: 'finite' (counts exactly zero beyond the table), 'infinite'
    (closed form valid for every n), or 'truncated' (enumerated horizon,
    unknown beyond).  The certificate is count(n) <= prefactor * e^{rate n}.
    """

    kind: str
    table: tuple = ()
    params: dict = field(default_factory=dict)
    horizon: int = 0
    support: str = "finite"
    rate: float = 0.0
    prefactor: float = 1.0

    def count(self, n: int) -> float:
        if n < 1:
            return 0.0
        if self.kind == "gouezel":
            try:
                return 4.0 ** (self.params["q"] + n)
            except OverflowError:
                return math.inf
        if self.kind == "constant_one":
            return 1.0
        for m, c in self.table:
            if m == n:
                return float(c)
        if self.support == "infinite":
            raise UnknownGenerator(f"no closed form for kind {self.kind}")
        return 0.0

    def log_count(self, n: int) -> float:
        """log #{R=n} (-inf at empty levels); overflow-safe for series terms."""
        return float(self.log_counts(np.array([n]))[0]) if n >= 1 else -math.inf

    def log_counts(self, n: np.ndarray) -> np.ndarray:
        """log #{R=n} at every level of the array n >= 1 (-inf at empty levels).

        Closed forms are evaluated in log space, so no level overflows.
        """
        if self.kind == "gouezel":
            return (self.params["q"] + n) * math.log(4.0)
        if self.kind == "constant_one":
            return np.zeros(len(n))
        if self.support == "infinite":
            raise UnknownGenerator(f"no closed form for kind {self.kind}")
        table = dict(self.table)
        with np.errstate(divide="ignore"):
            return np.log([table.get(int(k), 0.0) for k in n])

    @property
    def max_level(self) -> int:
        if self.support == "infinite":
            return 0
        return max((n for n, c in self.table if c > 0), default=0)

    def occupied_levels(self):
        """Sorted levels with count > 0 ('infinite' support: all n >= 1)."""
        if self.support == "infinite":
            return None
        return [n for n, c in self.table if c > 0]

    def to_json(self) -> dict:
        return {
            "kind": self.kind, "table": [list(t) for t in self.table],
            "params": self.params, "horizon": self.horizon,
            "support": self.support, "rate": self.rate,
            "prefactor": self.prefactor,
        }


def _fit_rate(table):
    rate = 0.0
    for n, c in table:
        if c > 1:
            rate = max(rate, math.log(c) / n)
    return rate


def level_counts(s: InducingScheme) -> LevelCounts:
    """Enumerated level counts of a scheme, with fitted growth certificate."""
    ctr = Counter(b.return_time for b in s.branches)
    table = tuple(sorted((n, float(c)) for n, c in ctr.items()))
    return LevelCounts(
        kind="enumerated", table=table, horizon=s.complete_up_to,
        support="finite" if s.exhausted else "truncated",
        rate=_fit_rate(table), prefactor=1.0,
    )


def analytic_counts(kind: str, **params) -> LevelCounts:
    """Closed-form level counts: constant_one, two_at_one, gouezel(q), user_table."""
    if kind == "constant_one":
        return LevelCounts(kind="constant_one", support="infinite",
                           rate=0.0, prefactor=1.0)
    if kind == "two_at_one":
        return LevelCounts(kind="two_at_one", table=((1, 2.0),), horizon=1,
                           support="finite", rate=math.log(2.0), prefactor=1.0)
    if kind == "gouezel":
        q = int(params["q"])
        if not 1 <= q <= 511:  # 4^q, the certificate's prefactor, must be a double
            raise UnknownGenerator("gouezel needs 1 <= q <= 511")
        return LevelCounts(kind="gouezel", params={"q": q}, support="infinite",
                           rate=math.log(4.0), prefactor=4.0 ** q)
    if kind == "user_table":
        tbl = sorted((int(n), float(c)) for n, c in dict(params["table"]).items())
        if not all(math.isfinite(c) and c >= 0 and c == int(c) for _, c in tbl):
            raise UnknownGenerator("user_table counts must be non-negative integers")
        complete = bool(params.get("complete", True))
        horizon = max((n for n, _ in tbl), default=0)
        return LevelCounts(kind="user_table", table=tuple(tbl), horizon=horizon,
                           support="finite" if complete else "truncated",
                           rate=_fit_rate(tbl), prefactor=1.0)
    raise UnknownGenerator(f"unknown level-count generator {kind!r}")


# ---------------------------------------------------------------------------
# cylinder refinements


@dataclass(frozen=True)
class CylinderRefinement:
    """Order-ell cylinders: `times[k]` is R_ell of the k-th word of
    `itertools.product(range(len(scheme)), repeat=order)`."""

    scheme: InducingScheme
    order: int
    times: np.ndarray

    def word_counts(self) -> Counter:
        """#{R_ell = n} over formal words."""
        n, c = np.unique(self.times, return_counts=True)
        return Counter(dict(zip(n.tolist(), c.tolist())))

    def interval(self, word) -> tuple:
        """Geometric cylinder of a word, by chained branch inverses."""
        m = self.scheme.map
        chain = tuple(c for idx in word for c in self.scheme.branches[idx].chain)
        a, b = _pull_chains(m, [chain], self.scheme.base_lo, self.scheme.base_hi)
        return float(a[0]), float(b[0])


def refine(s: InducingScheme, ell: int) -> CylinderRefinement:
    """Order-ell cylinders as formal words; R_ell is the sum of return times."""
    if ell < 1:
        raise OutOfRange("refine needs ell >= 1")
    R = s.return_times()
    times = R
    for _ in range(ell - 1):
        times = np.add.outer(times, R).ravel()
    return CylinderRefinement(scheme=s, order=ell, times=times)


# ---------------------------------------------------------------------------
# scheme cache files


def save_scheme(s: InducingScheme, path: str) -> None:
    doc = {
        "map": map_to_json(s.map),
        "base": [s.base_lo, s.base_hi],
        "tol": s.tol,
        "complete_up_to": s.complete_up_to,
        "exhausted": s.exhausted,
        "branches": [
            {"lo": b.lo, "hi": b.hi, "R": b.return_time,
             "chain": list(b.chain), "marker": b.marker}
            for b in s.branches
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_scheme(path: str) -> InducingScheme:
    """Read a scheme file.  A missing key, a value of the wrong type or a
    malformed structure raises KeyError, TypeError or ValueError here:
    a non-finite base or tol, a base outside the phase space, a chain
    symbol that names no map branch, R other than the chain length (or
    below 1), or a cylinder that is empty or lies outside the base by more
    than tol.  The certificate is not re-run: cylinder ends are not mapped
    forward."""
    with open(path) as fh:
        doc = json.load(fh)
    m = map_from_json(doc["map"])
    branches = tuple(
        SchemeBranch(index=i, lo=float(b["lo"]), hi=float(b["hi"]), return_time=int(b["R"]),
                     chain=tuple(int(c) for c in b["chain"]), marker=float(b["marker"]))
        for i, b in enumerate(doc["branches"])
    )
    base_lo, base_hi = map(float, doc["base"])
    tol = float(doc["tol"])
    sp = m.space
    if not (math.isfinite(tol) and _base_ok(sp, base_lo, base_hi)):
        raise ValueError("the base must be a nondegenerate subinterval of the phase space "
                         "and tol finite")
    for b in branches:
        if any(not 0 <= c < len(m.branches) for c in b.chain):
            raise ValueError("a chain names a branch that the map does not have")
        if not 1 <= b.return_time == len(b.chain):
            raise ValueError(f"branch {b.index} has R={b.return_time} "
                             f"but a chain of {len(b.chain)} symbols")
        if not base_lo - tol <= b.lo < b.hi <= base_hi + tol:
            raise ValueError(f"branch {b.index} has the cylinder ({b.lo!r}, {b.hi!r}), "
                             f"not an interval inside the base within tol")
    return InducingScheme(
        map=m, base_lo=base_lo, base_hi=base_hi,
        branches=branches, complete_up_to=int(doc["complete_up_to"]),
        exhausted=bool(doc["exhausted"]), tol=tol,
    )
