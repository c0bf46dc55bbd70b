"""Full induced Markov maps by exact first-return combinatorics.

The construction expands forward images of the base through the branch
partition, emitting a scheme branch whenever an image covers the base
and continuing with the uncovered remainders.  This is exact (interval
endpoints only, no orbit sampling) and restricted to Markov-compatible
bases: any image that partially overlaps the base aborts the build.  On
circles an image may be a lift; it meets the base in phase-space parts
(`maps._window_parts`, split further as in `iterate`).

A scheme is the suffix trie of its chains, the base pulled back once
through every distinct suffix (`maps._pull_trie`): branch i is the leaf
`trie.leaf[i]`, its chain the symbols up to the root, its return time
the leaf's depth, its cylinder the leaf's outer values.  Its orbit
samples are the nodes from the leaf to the root (no orbit is pushed
forward through an expanding map), and the certificate checks that every
node lies in its map branch's closed domain and every edge inverts its
branch to a few ulps, so a cylinder end's rounding is not amplified
along its chain (the a-posteriori check behind shadowing; Hammel, Yorke
& Grebogi, Bull. AMS 19, 1988).  A scheme file is the trie
(`save_scheme`): a load reads the table off it, with no inverse, and
certifies the stored values as a fresh pullback's.  The `SchemeBranch`
tuple is made only when `InducingScheme.branches` is first read.

Level counts #{R=n} are the generating data for the pressure equation;
closed-form generators for the worked families are provided alongside
enumerated counts so series tails can be certified, not just truncated.
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    NotMarkovCompatible,
    OutOfRange,
    ToleranceFailure,
    UnknownGenerator,
)
from .maps import (ChainTrie, MapSpec, _chain_trie, _image_pieces, _is_int, _pull_trie, _shift,
                   _window_parts)
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
# the chains' symbols a build may store: the trie's dense layout takes
# about 90 bytes a symbol, and lsv stores H^2 / 2 by horizon H (H ~ 2900);
# also the most words `refine` lists
_MAX_SYMBOLS = 1 << 22
# a trie edge may miss its parent by this many ulps of the parent and of
# the pulled-back value times |f'|, plus a composite's inner slack: the
# rounding of f and of its inverse
_EDGE_ULPS = 4


@dataclass(frozen=True)
class SchemeBranch:
    index: int
    lo: float
    hi: float
    return_time: int
    chain: tuple


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """What no potential changes, read off a scheme's trie.

    Branch i's orbit samples are the value columns 1-3 (pullbacks of
    B_lo + delta, the base midpoint, B_hi - delta) of the trie's nodes from
    its leaf (x) up to the root, each node with the map branch of its step.
    `log_df` is log|f'| at every node's samples (0 at the seeds), which
    geometric potentials read.  `weights[i]` place its mean-value point,
    where |(f^R)'| = |B|/|P|, on the samples.  `critical_hit` and
    `uncertified` hold the OrbitHitsCritical and ToleranceFailure messages,
    or None.  A node's diameter is `values[:, 4] - values[:, 0]`.
    """

    log_df: np.ndarray
    weights: np.ndarray
    critical_hit: str
    uncertified: str

    def certify(self) -> "OrbitTable":
        """The table, or ToleranceFailure if the scheme fails its certificate."""
        if self.uncertified is not None:
            raise ToleranceFailure(self.uncertified)
        return self


@dataclass(frozen=True, eq=False)
class InducingScheme:
    """Two schemes are equal when their headers (map, base, complete_up_to,
    exhausted, tol) and their tries (`at`, `parent`, `symbols`, `leaf`,
    `values`) are equal."""

    map: MapSpec
    base_lo: float
    base_hi: float
    complete_up_to: int
    exhausted: bool
    tol: float
    # the suffix trie of the chains, pulled back by the build or read from
    # a scheme file; branch i is its leaf trie.leaf[i]
    trie: ChainTrie = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, InducingScheme):
            return NotImplemented
        a, b = self.trie, other.trie
        return (all(getattr(self, k) == getattr(other, k) for k in
                    ("map", "base_lo", "base_hi", "complete_up_to", "exhausted", "tol"))
                and a.at == b.at
                and all(np.array_equal(getattr(a, k), getattr(b, k))
                        for k in ("parent", "symbols", "leaf", "values")))

    @cached_property
    def branches(self) -> tuple:
        """The `SchemeBranch` of every leaf (`_branches`), made on first read
        and kept (not a field)."""
        return _branches(self.trie)

    def chain(self, i: int) -> tuple:
        """Branch i's chain: the map branches of its leaf's path to the root.
        OutOfRange unless i is an integer in 0..len(self) - 1 (not a bool)."""
        if not (_is_int(i) and 0 <= i < len(self)):
            raise OutOfRange(f"branch index {i!r} is not an integer in 0..{len(self) - 1}")
        T, n, chain = self.trie, int(self.trie.leaf[i]), []
        while n >= T.at[1]:
            chain.append(int(T.symbols[n]))
            n = int(T.parent[n])
        return tuple(chain)

    @cached_property
    def orbit_table(self) -> OrbitTable:
        """The table of the trie, made on first use and kept (not a field).
        A stored value that is not finite, or whose image overflows, fails
        the certificate without a numpy warning."""
        with np.errstate(all="ignore"):
            return _orbit_table(self)

    @property
    def base(self):
        return (self.base_lo, self.base_hi)

    @property
    def diam_base(self) -> float:
        return self.base_hi - self.base_lo

    def return_times(self) -> np.ndarray:
        return np.searchsorted(self.trie.at, self.trie.leaf, side="right") - 1

    def __len__(self):
        return len(self.trie.leaf)


def _base_ok(sp, lo: float, hi: float) -> bool:
    """Whether (lo, hi) is a nondegenerate subinterval of the phase space."""
    return sp.lo - 1e-12 <= lo < hi <= sp.hi + 1e-12


def _check_tol(tol: float, name: str = "tol") -> None:
    """Raise OutOfRange unless the tolerance tol (called name) is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise OutOfRange(f"{name} must be finite and >= 0, got {tol!r}")


def first_return_scheme(m: MapSpec, base, n_max: int, tol: float = 1e-9) -> InducingScheme:
    """First-return full-branch scheme over a Markov-compatible base interval.

    Emits every first-return branch with R <= n_max; its cylinder is the
    base pulled back through its chain, certified edge by edge (`OrbitTable`).
    OutOfRange unless n_max is an integer >= 1, or once the chains hold
    more than _MAX_SYMBOLS symbols.
    """
    _check_tol(tol)
    if not _is_int(n_max) or n_max < 1:
        raise OutOfRange(f"n_max must be an integer >= 1, got {n_max!r}")
    B_lo, B_hi = float(base[0]), float(base[1])
    sp = m.space
    if not _base_ok(sp, B_lo, B_hi):
        raise OutOfRange("base must be a nondegenerate subinterval of the phase space")

    chains, symbols, seen = [], 0, 0
    # left: the parts of the time-n images outside the base (at n = 0 the
    # base), with their chains; level: their forward images (lifts on circles)
    left, n = [(B_lo, B_hi, ())], 0
    while left and n < n_max:
        n += 1
        level = [(f_lo, f_hi, chain + (bi,)) for lo, hi, chain in left
                 for bi, _, _, f_lo, f_hi in _image_pieces(m, lo, hi, tol)]
        left = []
        for img_lo, img_hi, chain in level:
            seen += 1
            if seen > _MAX_PIECES:
                raise NotMarkovCompatible(
                    f"piece count exceeded {_MAX_PIECES}; base is likely not Markov-compatible"
                )
            for lo, hi in _window_parts(sp, img_lo, img_hi, tol):
                if min(hi, B_hi) - max(lo, B_lo) <= tol:
                    left.append((lo, hi, chain))
                    continue
                if not (lo <= B_lo + tol and hi >= B_hi - tol):
                    raise NotMarkovCompatible(
                        f"image ({lo:.17g}, {hi:.17g}) of a time-{n} piece "
                        f"straddles the base ({B_lo:.17g}, {B_hi:.17g})"
                    )
                chains.append(chain)
                symbols += n
                if symbols > _MAX_SYMBOLS:
                    raise OutOfRange(f"horizon {n_max} is too long to build: its chains hold "
                                     f"over {_MAX_SYMBOLS} symbols by return time {n}")
                if B_lo - lo > tol:
                    left.append((lo, B_lo, chain))
                if hi - B_hi > tol:
                    left.append((B_hi, hi, chain))

    # the empty chain is the base itself: an empty scheme's trie keeps its root
    trie = _pull_trie(m, chains + [()], B_lo, B_hi)
    leaf = trie.leaf[:-1]
    R = np.searchsorted(trie.at, leaf, side="right") - 1
    trie = replace(trie, leaf=leaf[np.lexsort((trie.ends()[0][:-1], R))])
    s = InducingScheme(
        map=m, base_lo=B_lo, base_hi=B_hi, complete_up_to=n_max,
        exhausted=not left, tol=tol, trie=trie,
    )
    s.orbit_table.certify()
    return s


def _branches(T: ChainTrie) -> tuple:
    """The scheme branches of the trie's leaves, in leaf order: a chain is
    the symbols from its leaf to the root, R its length, the cylinder the
    leaf's outer values."""
    symbols, parent = T.symbols.tolist(), T.parent.tolist()
    path = [()] * len(parent)
    for n in range(T.at[1], len(parent)):  # a parent comes before its children
        path[n] = (symbols[n],) + path[parent[n]]
    lo, hi = (v.tolist() for v in T.ends())
    return tuple(SchemeBranch(index=i, lo=lo[i], hi=hi[i], return_time=len(path[n]),
                              chain=path[n])
                 for i, n in enumerate(T.leaf.tolist()))


def _mean_value_point(D, target):
    """Weights of the three samples that place the point where log|(f^R)'|
    (D, per sample, taken linear between adjacent ones) is the target: the
    crossing next to the midpoint, else the sample nearest the target (the
    midpoint first on ties)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (target - D[:, 1])[:, None] / (D[:, ::2] - D[:, 1:2])
    lam = np.where((lam >= 0) & (lam <= 1), lam, np.inf)
    rows, k = np.arange(len(D)), np.argmin(lam, axis=1)
    lam = lam[rows, k]
    near = np.argmin(np.abs(D[:, [1, 0, 2]] - target[:, None]), axis=1)
    miss = ~np.isfinite(lam)
    k, lam = np.where(miss, np.maximum(near - 1, 0), k), np.where(miss, near > 0, lam)
    w = np.zeros(D.shape)
    w[rows, 1] = 1.0 - lam
    w[rows, 2 * k] += lam
    return w


def _orbit_table(s: InducingScheme) -> OrbitTable:
    """The orbit table of s from its trie, with the first critical hit of a
    sample and the full-branch certificate: every node lies in its map
    branch's closed domain and every edge inverts its branch within
    _EDGE_ULPS of its parent's values as `maps._shift` lifts them.  The
    cylinders are the leaves', so nothing else is checked."""
    m, R, T = s.map, s.return_times(), s.trie
    x = T.values
    y = _shift(m, T, slice(None))
    fx, dfx = y.copy(), np.zeros_like(x)  # a root is its own parent: no step to check
    bound = np.spacing(np.abs(y))
    outside = np.zeros(x.shape, dtype=bool)
    for k, br in enumerate(m.branches):
        sel = T.symbols == k
        if sel.any():
            fx[sel], dfx[sel] = br.fdf(x[sel])
            bound[sel] += br.slack(x[sel])
            outside[sel] = ~((br.lo <= x[sel]) & (x[sel] <= br.hi))
    off = np.abs(fx - y)
    bound = _EDGE_ULPS * (bound + np.abs(dfx) * np.spacing(np.abs(x)))
    lo, hi = T.ends()
    with np.errstate(divide="ignore"):
        log_df = np.log(np.abs(dfx[:, 1:4]))
        target = np.log(s.diam_base / (hi - lo))
    log_df[:T.at[1]] = 0.0
    D = log_df.copy()  # summed from the root: log|(f^k)'|
    for a, b in zip(T.at[2:-1], T.at[3:]):
        D[a:b] += D[T.parent[a:b]]

    def first(flagged):
        """(i, n, j): the first branch i whose orbit has a flagged node, its
        first one n (the deepest on its path) and that node's orbit step j."""
        mark = np.where(flagged, np.arange(len(flagged)), -1)
        for a, b in zip(T.at[1:-1], T.at[2:]):
            mark[a:b] = np.where(mark[a:b] >= 0, mark[a:b], mark[T.parent[a:b]])
        i = int(np.flatnonzero(mark[T.leaf] >= 0)[0])
        n = int(mark[T.leaf[i]])
        return i, n, int(R[i]) + 1 - int(np.searchsorted(T.at, n, side="right"))

    critical_hit = uncertified = None
    at = m.space.wrap(x[:, 1:4])
    hit = np.isin(at, np.array(m.critical, dtype=float))
    hit[:T.at[1]] = False  # the base points are no orbit points
    if hit.any():
        i, n, j = first(hit.any(axis=1))
        critical_hit = (f"orbit of branch {i} (R={R[i]}) meets the critical set at "
                        f"{float(at[n][hit[n]][0])!r} (step {j})")
    bad = outside | ~(off <= bound)
    if bad.any():
        i, n, j = first(bad.any(axis=1))
        c = int(np.flatnonzero(bad[n])[0])
        br = m.branches[T.symbols[n]]
        uncertified = f"branch {i} (R={R[i]}) fails its pullback at step {j}: " + (
            f"{float(x[n, c])!r} is outside [{br.lo!r}, {br.hi!r}], the domain of map "
            f"branch {int(T.symbols[n])}" if outside[n, c] else
            f"f({float(x[n, c])!r}) is {float(off[n, c]):.3g} off {float(y[n, c])!r} "
            f"(allowed {float(bound[n, c]):.3g})")
    return OrbitTable(log_df=log_df, weights=_mean_value_point(D[T.leaf], target),
                      critical_hit=critical_hit, uncertified=uncertified)


@dataclass(frozen=True)
class LevelCounts:
    """n -> #{R=n}, enumerated or closed form, with a growth certificate.

    support: 'finite' (counts exactly zero beyond the table), 'infinite'
    (closed form valid for every n), or 'truncated' (enumerated horizon,
    unknown beyond).  The certificate is count(n) <= prefactor * e^{rate n}.
    `table` is the (n, count) pairs `scheme build` prints; reads go through `occupied`.
    """

    kind: str
    table: tuple = ()
    params: dict = field(default_factory=dict)
    support: str = "finite"
    rate: float = 0.0
    prefactor: float = 1.0

    @cached_property
    def occupied(self):
        """(n, c): a table's levels with count > 0, ascending (int64), and their
        counts (float64), made on first read and kept; None for a closed form."""
        if self.support == "infinite":
            return None
        rows = sorted((n, float(c)) for n, c in self.table if c > 0)
        return (np.array([n for n, _ in rows], dtype=np.int64),
                np.array([c for _, c in rows], dtype=float))

    def _table_counts(self, n: np.ndarray) -> np.ndarray:
        """The table's counts at the levels n (0 where a level is empty)."""
        if self.support == "infinite":
            raise UnknownGenerator(f"no closed form for kind {self.kind}")
        levels, c = self.occupied
        if not len(levels):
            return np.zeros(len(n))
        i = np.minimum(np.searchsorted(levels, n), len(levels) - 1)
        return np.where(levels[i] == n, c[i], 0.0)

    def count(self, n: int) -> float:
        """#{R=n} (0 below level 1); OutOfRange unless n is an integer (not a bool)."""
        if not _is_int(n):
            raise OutOfRange(f"a level is an integer, got {n!r}")
        if n < 1:
            return 0.0
        if self.kind == "gouezel":
            try:
                return 4.0 ** (self.params["q"] + n)
            except OverflowError:
                return math.inf
        if self.kind == "constant_one":
            return 1.0
        return float(self._table_counts(np.array([n]))[0])

    def log_count(self, n: int) -> float:
        """log #{R=n} (-inf at empty levels); overflow-safe for series terms."""
        if not _is_int(n):
            raise OutOfRange(f"a level is an integer, got {n!r}")
        return float(self.log_counts(np.array([n]))[0]) if n >= 1 else -math.inf

    def log_counts(self, n: np.ndarray) -> np.ndarray:
        """log #{R=n} at every level of the array n >= 1 (-inf at empty levels).

        Closed forms are evaluated in log space, so no level overflows.
        """
        if self.kind == "gouezel":
            return (self.params["q"] + n) * math.log(4.0)
        if self.kind == "constant_one":
            return np.zeros(len(n))
        with np.errstate(divide="ignore"):
            return np.log(self._table_counts(n))

    _levels = cached_property(lambda self: {})  # N -> levels(N)

    def levels(self, N: int):
        """(n, log #{R=n}) for n = 1..N, made once per N and kept, like `occupied`,
        and read-only as they are shared: the one maker of dense level arrays."""
        if N not in self._levels:
            n = np.arange(1, N + 1)
            logc = self.log_counts(n)
            n.flags.writeable = logc.flags.writeable = False
            self._levels[N] = (n, logc)
        return self._levels[N]

    @property
    def max_level(self) -> int:
        """The last occupied level of a table (0 for none, and for a closed form)."""
        occupied = self.occupied
        return int(occupied[0][-1]) if occupied is not None and len(occupied[0]) else 0


def _fit_rate(table):
    return max((math.log(c) / n for n, c in table if c > 1), default=0.0)


def level_counts(s: InducingScheme) -> LevelCounts:
    """Enumerated level counts of a scheme, with fitted growth certificate."""
    n, c = np.unique(s.return_times(), return_counts=True)
    table = tuple(zip(n.tolist(), map(float, c.tolist())))
    return LevelCounts(
        kind="enumerated", table=table,
        support="finite" if s.exhausted else "truncated",
        rate=_fit_rate(table), prefactor=1.0,
    )


def analytic_counts(kind: str, **params) -> LevelCounts:
    """Closed-form level counts: constant_one, two_at_one, gouezel(q), user_table."""
    if kind == "constant_one":
        return LevelCounts(kind="constant_one", support="infinite",
                           rate=0.0, prefactor=1.0)
    if kind == "two_at_one":
        return LevelCounts(kind="two_at_one", table=((1, 2.0),), support="finite",
                           rate=math.log(2.0), prefactor=1.0)
    need = {"gouezel": "q", "user_table": "table"}.get(kind)
    if need and need not in params:
        raise UnknownGenerator(f"{kind} counts need the parameter {need!r}")
    if kind == "gouezel":
        q = params["q"]
        if not (_is_int(q) and 1 <= q <= 511):  # 4^q, the prefactor, must be a double
            raise UnknownGenerator(f"gouezel needs an integer 1 <= q <= 511, got {q!r}")
        return LevelCounts(kind="gouezel", params={"q": int(q)}, support="infinite",
                           rate=math.log(4.0), prefactor=4.0 ** q)
    if kind == "user_table":
        table = dict(params["table"])
        for n in table:  # levels go through float64, exact for integers up to 2^53
            if not (_is_int(n) and 1 <= n <= 2 ** 53):
                raise UnknownGenerator(f"user_table level {n!r} is not an integer in 1..2^53")
        tbl = sorted((int(n), float(c)) for n, c in table.items())
        if not all(math.isfinite(c) and c >= 0 and c == int(c) for _, c in tbl):
            raise UnknownGenerator("user_table counts must be non-negative integers")
        complete = params.get("complete", True)
        if not isinstance(complete, bool):  # bool("false") would certify a tail never given
            raise UnknownGenerator(f"user_table complete must be true or false, got {complete!r}")
        return LevelCounts(kind="user_table", table=tuple(tbl),
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
        """Geometric cylinder of a word, by chained branch inverses;
        OutOfRange unless each letter is a branch index (`InducingScheme.chain`)."""
        m = self.scheme.map
        chain = tuple(c for idx in word for c in self.scheme.chain(idx))
        a, b = _pull_trie(m, [chain], self.scheme.base_lo, self.scheme.base_hi).ends()
        return float(a[0]), float(b[0])


def refine(s: InducingScheme, ell: int) -> CylinderRefinement:
    """Order-ell cylinders as formal words; R_ell is the sum of return times.
    OutOfRange unless ell is an integer >= 1 (not a bool), or when the
    len(s)^ell words exceed _MAX_SYMBOLS, before any is made, or when a
    one-branch scheme's R_ell = ell R exceeds int64."""
    if not _is_int(ell) or ell < 1:
        raise OutOfRange(f"refine needs an integer ell >= 1, got {ell!r}")
    # no huge power: n^23 > 2^22 = _MAX_SYMBOLS for every n >= 2
    if len(s) ** min(ell, _MAX_SYMBOLS.bit_length()) > _MAX_SYMBOLS:
        raise OutOfRange(f"refine to order {ell} of {len(s)} branches makes over "
                         f"{_MAX_SYMBOLS} words, too many to list")
    R = s.return_times()
    if len(s) <= 1:  # one word or none, whatever ell: R_ell = ell R
        if int(ell) * int(R.max(initial=0)) > np.iinfo(np.int64).max:
            raise OutOfRange(f"refine to order {ell} makes the return time "
                             f"{ell} * {int(R[0])}, beyond int64")
        return CylinderRefinement(scheme=s, order=ell, times=R * int(ell) if len(R) else R)
    times = R
    for _ in range(ell - 1):
        times = np.add.outer(times, R).ravel()
    return CylinderRefinement(scheme=s, order=ell, times=times)


# ---------------------------------------------------------------------------
# scheme cache files


def _b64(a, dtype) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode()


def save_scheme(s: InducingScheme, path: str) -> None:
    """Write s as JSON: the header (`map`, `base`, `tol`, `complete_up_to`,
    `exhausted`) and its trie in node order: `at`, the depth offsets, and
    base64 little-endian arrays, int64 `parent` and `symbols` of the nodes
    below the root and `leaf`, a node per branch in branch order, and
    float64 `values`, five per node below the root (the root's come from
    the base).  Re-saving a loaded scheme gives the same bytes."""
    T = s.trie
    doc = {
        "map": map_to_json(s.map),
        "base": [s.base_lo, s.base_hi],
        "tol": s.tol,
        "complete_up_to": s.complete_up_to,
        "exhausted": s.exhausted,
        "at": T.at,
        "parent": _b64(T.parent[1:], "<i8"),
        "symbols": _b64(T.symbols[1:], "<i8"),
        "leaf": _b64(T.leaf, "<i8"),
        "values": _b64(T.values[1:], "<f8"),
    }
    with open(path, "w") as fh:  # opened once the map is known to be writable
        fh.write(json.dumps(doc) + "\n")


def _decode(doc, key, dtype, row: int = 1) -> np.ndarray:
    """The values that doc[key] holds, flat; ValueError unless it is a
    base64 string of whole rows of `row` 8-byte values."""
    text = doc[key]
    if type(text) is not str:
        raise ValueError(f"{key} is a {type(text).__name__}, not a base64 string")
    raw = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(raw) % (8 * row):
        raise ValueError(f"{key} holds {len(raw)} bytes, not whole rows of {8 * row}")
    return np.frombuffer(raw, dtype=dtype)


def _require(ok, what: str) -> None:
    """ValueError naming the first node below the root where ok is false."""
    if not ok.all():
        raise ValueError(f"node {int(np.argmin(ok)) + 1} {what}")


def _read_trie(doc, m: MapSpec, base_lo: float, base_hi: float) -> ChainTrie:
    """The trie a scheme file holds, with its root's values from the base;
    ValueError unless it is a trie of m's branches whose every node lies
    on a leaf's path."""
    at = doc["at"]
    parent, symbols, leaf = (_decode(doc, k, "<i8") for k in ("parent", "symbols", "leaf"))
    values = _decode(doc, "values", "<f8", 5).reshape(-1, 5)
    n = len(parent) + 1
    for a in at if type(at) is list else ():
        if type(a) is not int:
            raise ValueError(f"at holds {a!r}, not an integer")
    if not (type(at) is list and at[:2] == [0, 1]
            and all(a < b for a, b in zip(at, at[1:])) and at[-1] == n == len(symbols) + 1
            == len(values) + 1):
        raise ValueError(f"at is not the strictly increasing integers [0, 1, ..., {n}]: "
                         f"parent, symbols and values hold {n - 1}, {len(symbols)} and "
                         f"{len(values)} nodes below the root")
    depth = np.repeat(np.arange(1, len(at) - 1), np.diff(at[1:]))
    offsets = np.array(at)
    _require((offsets[depth - 1] <= parent) & (parent < offsets[depth]),
             "has a parent that is not one depth above it")
    _require((0 <= symbols) & (symbols < len(m.branches)),
             "names a branch that the map does not have")
    if not ((1 <= leaf) & (leaf < n)).all() or len(np.unique(leaf)) < len(leaf):
        raise ValueError("the leaves are not distinct nodes below the root")
    on_path = np.zeros(n, dtype=bool)
    on_path[parent], on_path[leaf] = True, True
    _require(on_path[1:], "is no leaf and no parent: it lies on no branch")
    root = _chain_trie([()], base_lo, base_hi)  # the root, seeded as a build seeds it
    return ChainTrie(parent=np.concatenate((root.parent, parent)),
                     symbols=np.concatenate((root.symbols, symbols)), at=at,
                     values=np.concatenate((root.values, values)), leaf=leaf)


def _number(v, key: str) -> float:
    """v as a float; ValueError naming key unless v is a JSON number (an
    int or a float, not a bool) that a double holds."""
    if type(v) not in (int, float):
        raise ValueError(f"{key} holds {v!r}, not a number")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{key} holds an integer beyond the doubles") from None


def load_scheme(path: str) -> InducingScheme:
    """Read a scheme file (`save_scheme`): its header and its trie.

    A missing key, a value of the wrong type or a malformed structure
    raises KeyError, TypeError or ValueError here: a base that is not a
    pair of JSON numbers or a tol that is not one (true is no number), a
    non-finite base or tol, a negative tol, a base outside the phase
    space, complete_up_to not a JSON integer >= 1 or below the deepest leaf,
    exhausted not true or false, or a trie that `_read_trie` rejects (an
    older file, with a row per branch, has no `at`).  The certificate runs on the stored values
    when the orbit table is first read (by `induced_potential`,
    `sample_original_measure` or `pressure_curve`), with no inverse; those
    calls then raise ToleranceFailure for a node outside its branch's
    domain or an edge that does not invert its branch."""
    with open(path) as fh:
        doc = json.load(fh)
    m = map_from_json(doc["map"])
    base = doc["base"]
    if type(base) is not list or len(base) != 2:
        raise ValueError(f"base={base!r} is not a pair of numbers")
    base_lo, base_hi = (_number(v, "base") for v in base)
    tol = _number(doc["tol"], "tol")
    if not (math.isfinite(tol) and tol >= 0 and _base_ok(m.space, base_lo, base_hi)):
        raise ValueError("the base must be a nondegenerate subinterval of the phase space "
                         "and tol finite and >= 0")
    complete_up_to, exhausted = doc["complete_up_to"], doc["exhausted"]
    if type(complete_up_to) is not int or complete_up_to < 1:
        raise ValueError(f"complete_up_to={complete_up_to!r} is not an integer >= 1")
    if type(exhausted) is not bool:
        raise ValueError(f"exhausted={exhausted!r} is not true or false")
    T = _read_trie(doc, m, base_lo, base_hi)
    s = InducingScheme(map=m, base_lo=base_lo, base_hi=base_hi,
                       complete_up_to=complete_up_to, exhausted=exhausted, tol=tol, trie=T)
    if complete_up_to < s.return_times().max(initial=0):
        raise ValueError(f"complete_up_to={complete_up_to} is below the deepest leaf")
    return s
