"""Full induced Markov maps by exact first-return combinatorics.

The construction expands forward images of the base through the branch
partition, emitting a scheme branch whenever an image covers the base
and continuing with the uncovered remainders.  This is exact (interval
endpoints only, no orbit sampling) and restricted to Markov-compatible
bases: any image that partially overlaps the base aborts the build.  On
circles an image may be a lift; it meets the base in phase-space parts
(`maps._window_parts`, split further as in `iterate`).

Each scheme walks its chains forward once, all in lock step
(`maps._walk_chains`), and keeps the walk as its `OrbitTable`: the
full-branch certificate, the contraction diameters, the first critical
hit and the points and symbols of the orbit samples that `thermo` reads
for induced potentials and sampling.  `first_return_scheme` builds the
table as its certificate; a loaded scheme builds it the first time it is
read.  At each step the walk takes the lift of a point nearest the
step's branch (`Space.lift`: on circles a value of 1.0 stays 1.0 for a
branch that ends at 1), clamps it into the branch and applies the branch
formula; the certificate rejects an end whose lift lies more than 1e-9
off its branch.

Level counts #{R=n} are the generating data for the pressure equation;
closed-form generators for the worked families are provided alongside
enumerated counts so series tails can be certified, not just truncated.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property

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
    "OrbitTable",
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


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """One forward walk of a scheme's chains: what no potential changes.

    Each branch i walks five rows: its marker, lo + eps and hi - eps (the
    sample rows i, nb + i and 2 nb + i; eps is 1e-3 of the cylinder) and
    its cylinder ends.  Sample row r holds the entries
    `starts[r]:starts[r + 1]`, one a step in walk order: the row (`rows`),
    the point clamped into the step's map branch (`points`) and that
    branch (`symbols`).  `adiam[k]` is the largest diameter of f^{n-k}(P)
    over the branches P with R = n >= k.  `critical_hit` and `off_base`
    hold the OrbitHitsCritical and ToleranceFailure messages of the walk,
    or None.
    """

    starts: np.ndarray
    rows: np.ndarray
    symbols: np.ndarray
    points: np.ndarray
    adiam: np.ndarray
    critical_hit: str
    off_base: str

    def certify(self) -> "OrbitTable":
        """The table, or ToleranceFailure if a cylinder end misses the base boundary."""
        if self.off_base is not None:
            raise ToleranceFailure(self.off_base)
        return self


@dataclass(frozen=True)
class InducingScheme:
    map: MapSpec
    base_lo: float
    base_hi: float
    branches: tuple
    complete_up_to: int
    exhausted: bool
    tol: float

    @cached_property
    def orbit_table(self) -> OrbitTable:
        """The walk of every chain, made on first use and kept (not a field)."""
        return _orbit_table(self)

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
    branches = tuple(
        SchemeBranch(index=idx, lo=float(c_lo[e]), hi=float(c_hi[e]),
                     return_time=len(chains[e]), chain=chains[e],
                     marker=0.5 * (float(c_lo[e]) + float(c_hi[e])))
        for idx, e in enumerate(order)
    )
    s = InducingScheme(
        map=m, base_lo=B_lo, base_hi=B_hi, branches=branches,
        complete_up_to=n_max, exhausted=not dropped_at_horizon,
        tol=tol,
    )
    s.orbit_table.certify()
    return s


def _orbit_table(s: InducingScheme) -> OrbitTable:
    """Walk the five rows of every branch of s (see `OrbitTable`) in one
    lock-step walk and keep the sample rows' points and symbols, the
    contraction diameters, the first critical hit of a sample and the
    full-branch certificate: both cylinder ends map onto the base boundary.
    """
    m, nb = s.map, len(s.branches)
    lo = np.array([b.lo for b in s.branches])
    hi = np.array([b.hi for b in s.branches])
    R = s.return_times()
    eps = 1e-3 * (hi - lo)
    x0 = np.concatenate([s.markers(), lo + eps, hi - eps, lo, hi])
    C = _chain_array([b.chain for b in s.branches]).astype(np.min_scalar_type(-len(m.branches)))
    # (step j, branch i) of every step of every chain, in walk order
    jj, ii = np.nonzero(C.T >= 0)
    at = np.searchsorted(jj, np.arange(C.shape[1] + 1)).tolist()
    length = np.tile(np.bincount(ii, minlength=nb), 3)
    starts = np.concatenate([[0], np.cumsum(length)])
    rows = np.repeat(np.arange(3 * nb, dtype=np.int32), length)
    symbols = np.empty(len(rows), dtype=C.dtype)
    points = np.empty(len(rows))
    sample_lift = np.empty(len(rows) if m.critical else 0)
    diam, off_lo, off_hi = np.empty(len(ii)), np.empty(len(ii)), np.empty(len(ii))
    img = np.full(2 * nb, np.nan)
    for j, e, g, lift, x, fx in _walk_chains(m, np.tile(C, (5, 1)), x0):
        a, b = at[j], at[j + 1]
        h = b - a
        k = 3 * h  # rows are ascending: the samples, then the lo ends, then the hi ends
        pos = starts[e[:k]] + j
        points[pos], symbols[pos] = x[:k], g[:k]
        if m.critical:
            sample_lift[pos] = lift[:k]
        np.subtract(lift[k + h:], lift[k:k + h], out=diam[a:b])
        np.subtract(lift[k:k + h], x[k:k + h], out=off_lo[a:b])
        np.subtract(lift[k + h:], x[k + h:], out=off_hi[a:b])
        img[e[k:] - 3 * nb] = fx[k:]
    adiam = np.zeros(int(R.max(initial=0)) + 1)
    np.maximum.at(adiam, R[ii] - jj, np.abs(diam))
    far = np.zeros(2 * nb, dtype=bool)
    far[ii[np.abs(off_lo) > 1e-9]] = True
    far[nb + ii[np.abs(off_hi) > 1e-9]] = True
    return OrbitTable(
        starts=starts, rows=rows, symbols=symbols, points=points, adiam=adiam,
        critical_hit=_critical_hit(s, rows, sample_lift),
        off_base=_off_base(s, np.concatenate([lo, hi]), img, far),
    )


def _critical_hit(s: InducingScheme, rows, lift):
    """The OrbitHitsCritical message of the first sample (in branch order,
    then marker, lo + eps, hi - eps) whose walk meets the critical set,
    given the table's rows and the lifts of its points; or None."""
    if not s.map.critical:
        return None
    at = s.map.space.wrap(lift)
    hits = np.flatnonzero(np.isin(at, np.array(s.map.critical, dtype=float)))
    if not len(hits):
        return None
    nb = len(s.branches)
    hit_rows, first = np.unique(rows[hits], return_index=True)  # each row's first hit
    p = min(range(len(hit_rows)), key=lambda p: (hit_rows[p] % nb, hit_rows[p] // nb))
    i = int(hit_rows[p]) % nb
    return (f"orbit of branch {i} (R={s.branches[i].return_time}) meets the "
            f"critical set at {float(at[hits[first[p]]])!r}")


def _off_base(s: InducingScheme, ends, img, far):
    """The ToleranceFailure message of the first cylinder end (branch
    order, then lo before hi) whose image is off the base boundary by
    more than tol, or whose walk left its branch; or None."""
    sp = s.map.space
    img = sp.wrap(img)
    img[far] = np.nan
    d = np.minimum(sp.dist(img, s.base_lo), sp.dist(img, s.base_hi))
    bad = np.flatnonzero(~(d <= s.tol))
    if not len(bad):
        return None
    k = len(s.branches)
    e = min(bad, key=lambda e: (e % k, e // k))
    return (f"endpoint {float(ends[e])!r} of branch {e % k} "
            f"(R={s.branches[e % k].return_time}) maps to "
            f"{None if np.isnan(img[e]) else float(img[e])!r}, "
            f"not onto the base boundary within {s.tol}")


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
    """Write s as JSON, one branch a line, streamed a branch at a time."""
    head = json.dumps({
        "map": map_to_json(s.map),
        "base": [s.base_lo, s.base_hi],
        "tol": s.tol,
        "complete_up_to": s.complete_up_to,
        "exhausted": s.exhausted,
        "branches": [],
    })
    encode = json.JSONEncoder().encode  # the C encoder that json.dumps uses
    with open(path, "w") as fh:
        fh.write(head[:-len("[]}")] + "[")
        for i, b in enumerate(s.branches):
            fh.write(",\n" if i else "\n")
            fh.write(encode({"lo": b.lo, "hi": b.hi, "R": b.return_time,
                             "chain": list(b.chain), "marker": b.marker}))
        fh.write("]}\n")


def load_scheme(path: str) -> InducingScheme:
    """Read a scheme file.  A missing key, a value of the wrong type or a
    malformed structure raises KeyError, TypeError or ValueError here:
    a non-finite base or tol, a base outside the phase space, a chain
    symbol, R or complete_up_to that is not a JSON integer, exhausted not
    true or false, a chain symbol that names no map branch, R other than
    the chain length (or below 1), or a cylinder that is empty or lies
    outside the base by more than tol.  These checks are structural; the
    full-branch certificate runs when the scheme's orbit table is first
    read (by `induced_potential`, `sample_original_measure` or
    `pressure_curve`), which then raise ToleranceFailure for a cylinder
    end that does not map onto the base boundary."""
    with open(path) as fh:
        doc = json.load(fh)
    m = map_from_json(doc["map"])
    base_lo, base_hi = map(float, doc["base"])
    tol = float(doc["tol"])
    if not (math.isfinite(tol) and _base_ok(m.space, base_lo, base_hi)):
        raise ValueError("the base must be a nondegenerate subinterval of the phase space "
                         "and tol finite")
    complete_up_to, exhausted = doc["complete_up_to"], doc["exhausted"]
    if type(complete_up_to) is not int:
        raise ValueError(f"complete_up_to={complete_up_to!r} is not an integer")
    if type(exhausted) is not bool:
        raise ValueError(f"exhausted={exhausted!r} is not true or false")
    branches = []
    for i, b in enumerate(doc["branches"]):
        chain, R = tuple(b["chain"]), b["R"]
        if type(R) is not int:
            raise ValueError(f"branch {i} has R={R!r}, not an integer")
        if not set(map(type, chain)) <= {int}:
            raise ValueError(f"branch {i} has a chain symbol that is not an integer")
        if chain and not 0 <= min(chain) <= max(chain) < len(m.branches):
            raise ValueError("a chain names a branch that the map does not have")
        if not 1 <= R == len(chain):
            raise ValueError(f"branch {i} has R={R} but a chain of {len(chain)} symbols")
        lo, hi = float(b["lo"]), float(b["hi"])
        if not base_lo - tol <= lo < hi <= base_hi + tol:
            raise ValueError(f"branch {i} has the cylinder ({lo!r}, {hi!r}), "
                             f"not an interval inside the base within tol")
        branches.append(SchemeBranch(index=i, lo=lo, hi=hi, return_time=R, chain=chain,
                                     marker=float(b["marker"])))
    return InducingScheme(
        map=m, base_lo=base_lo, base_hi=base_hi,
        branches=tuple(branches), complete_up_to=complete_up_to,
        exhausted=exhausted, tol=tol,
    )
