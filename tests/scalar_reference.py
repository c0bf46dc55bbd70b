"""Scalar references for a scheme's pullback trie: one chain at a time.

Each chain pulls back the base points B_lo, B_lo + d, the midpoint,
B_hi - d and B_hi (d = 1e-3 diam B) a symbol at a time, last symbol
first, with no trie and no batching.  A step lifts the points by whole
periods so that their outer midpoint is nearest the midpoint of the
branch's image, then inverts each point on its own: by the branch's
closed form, or by a scalar Newton kept inside a shrinking bracket.
Birkhoff sums run forward along the points of a chain, x first.
"""

import math

import numpy as np

from eqstate.errors import OrbitHitsCritical
from eqstate.thermo import InducedPotential


def scalar_inverse(br, y):
    """The x in the closure of branch br with f(x) = y (y clipped into the image)."""
    y = min(max(y, br.img_lo), br.img_hi)
    if br.finv is not None:
        return min(max(float(br.finv(y)), br.lo), br.hi)
    lo, hi = br.lo, br.hi
    x = min(max(y, lo), hi)
    for _ in range(200):
        fx = float(br.f(x)) - y
        if fx == 0.0:
            return x
        if (fx > 0) == br.increasing:
            hi = x
        else:
            lo = x
        d = float(br.df(x))
        xn = x - fx / d if d else math.nan
        if not lo <= xn <= hi:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 2.0 * math.ulp(x):
            return xn
        x = xn
    return x


def scalar_pull(m, chain, lo, hi):
    """[(points, symbol)] along chain, x first: the five base points pulled
    back through the chain's suffix that starts at each symbol."""
    d = 1e-3 * (hi - lo)
    y = [lo, lo + d, 0.5 * (lo + hi), hi - d, hi]
    path = []
    for g in reversed(chain):
        br = m.branches[g]
        mid = 0.5 * (y[0] + y[4])
        k = mid - m.space.lift(mid, br.img_lo, br.img_hi)
        y = [scalar_inverse(br, v - k) for v in y]
        path.append((y, g))
    return path[::-1]


_PATHS = {}


def scheme_paths(s):
    """scalar_pull of every branch of s, kept per scheme."""
    if id(s) not in _PATHS:
        _PATHS[id(s)] = (s, [scalar_pull(s.map, b.chain, s.base_lo, s.base_hi)
                             for b in s.branches])
    return _PATHS[id(s)][1]


def scalar_mean_value(s, i):
    """(side, lam) of branch i: where log|(f^R)'|, summed forward along each
    sample orbit and taken linear between adjacent samples, is log(|B|/|P|),
    as the weight lam on sample side (0 or 2) next to the midpoint (1);
    the crossing with the smaller lam, else the sample nearest the target
    (the midpoint first)."""
    path = scheme_paths(s)[i]
    D = [sum(math.log(abs(float(s.map.branches[g].df(y[c])))) for y, g in path)
         for c in (1, 2, 3)]
    x = path[0][0]
    target = math.log(s.diam_base / abs(x[4] - x[0]))
    best = None
    for side in (0, 2):
        if D[side] != D[1]:
            lam = (target - D[1]) / (D[side] - D[1])
            if 0.0 <= lam <= 1.0 and (best is None or lam < best[1]):
                best = (side, lam)
    if best is None:
        k = min((1, 0, 2), key=lambda c: abs(D[c] - target))
        best = (0, 0.0) if k == 1 else (k, 1.0)
    return best


def scalar_induced(m, s, phi):
    """induced_potential from scalar pullbacks: phi summed forward along the
    three sample orbits of each branch, the value at the mean-value point
    between two of them (`scalar_mean_value`)."""
    R = s.return_times()
    sums = np.zeros((len(s.branches), 3))
    for i, path in enumerate(scheme_paths(s)):
        for j, (y, _) in enumerate(path):
            for c in range(3):
                x = m.space.wrap(y[c + 1])
                if x in m.critical:
                    raise OrbitHitsCritical(f"orbit of branch {i} (R={R[i]}) meets the "
                                            f"critical set at {x!r} (step {j})")
                sums[i, c] += phi.value(m, y[c + 1])
    values = []
    for i, v in enumerate(sums.tolist()):
        side, lam = scalar_mean_value(s, i)
        values.append(v[1] + lam * (v[side] - v[1]) if lam > 0 else v[1])
    return InducedPotential(values=np.array(values), lower=sums.min(axis=1),
                            upper=sums.max(axis=1))


def scalar_orbit(s, i, c=1):
    """The orbit x, f(x), ..., f^{R-1}(x) of branch i's sample c: the
    pullback x of B_lo + d (0), the base midpoint (1) or B_hi - d (2)."""
    return np.array([y[c + 1] for y, _ in scheme_paths(s)[i]])
