"""Scalar references: a scheme's pullback trie one chain at a time, the
verification runner's draws one documented call at a time, and the
Collet-Eckmann exponents one orbit step at a time.

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
        _PATHS[id(s)] = (s, [scalar_pull(s.map, s.chain(i), s.base_lo, s.base_hi)
                             for i in range(len(s))])
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
    sums = np.zeros((len(s), 3))
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


def documented_draws(seed, n_pairs, n_prop, n_entropy, max_len):
    """The draws of `run_verification(seed=seed, ...)` in its documented
    order, one Generator call per documented draw.

    Returns (pairs, proportional, sequences, rng): pairs[i] = (a, beta) of
    random pair i, proportional[i] = beta of proportional pair i,
    sequences[i] = (a, scale) of entropy sequence i, each as drawn, and the
    generator after the last draw.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    pairs, proportional, sequences = [], [], []
    for _ in range(n_pairs):
        k = int(rng.integers(1, 12))
        a = rng.random(k)
        pairs.append((a, rng.random(k)))
    for _ in range(n_prop):
        k = int(rng.integers(1, 12))
        proportional.append(rng.random(k))
    for _ in range(n_entropy):
        k = int(rng.integers(1, max_len + 1))
        a = rng.random(k)
        sequences.append((a, rng.random()))
    return pairs, proportional, sequences, rng


def scalar_ce(c, N):
    """The Collet-Eckmann exponents of x^2 + c one step at a time, with
    math.log in the loop, for up to N steps of the critical orbit x_0 = c.

    Returns (exponents, hit_zero, escaped): the rows (n, (1/n) sum_{k<n}
    log|2 x_k|) over the steps before the first |x_n| > 2 (or all N),
    whether some such x_k is 0 (log -inf), and that n (None if none).
    """
    c = float(c)
    logs, x, hit_zero, escaped = [], c, False, None
    for n in range(N):
        if abs(x) > 2.0:
            escaped = n
            break
        d = abs(2.0 * x)
        logs.append(-math.inf if d == 0.0 else math.log(d))
        hit_zero = hit_zero or d == 0.0
        x = x * x + c
    if not logs:
        return np.empty((0, 2)), hit_zero, escaped
    ns = np.arange(1, len(logs) + 1, dtype=float)
    return np.column_stack([ns, np.cumsum(logs) / ns]), hit_zero, escaped
