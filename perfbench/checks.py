"""Checks of the program's outputs, computed apart from the program.

Every checker returns a list of problems; an empty list means the output
passed.  None of them compares against a stored copy of earlier output:
each recomputes the answer another way (mpmath at 50 digits, a scalar
reference detector, a closed form, a convolution) or tests a property the
method must have (monotone, convex, bounded by its error bar).
"""

from __future__ import annotations

import math

import mpmath

DPS = 50  # digits of the mpmath recomputations


def close(name, got, want, tol):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{name}: got {got!r}, want {want!r} within {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# lsv_transition


def level_count_problems(counts, horizon):
    """A first-return scheme of lsv over (1/2, 1) has one branch per level."""
    want = {str(n): 1 for n in range(1, horizon + 1)}
    if counts != want:
        bad = sorted(set(counts.items()) ^ set(want.items()))[:3]
        return [f"level counts are not one branch per level 1..{horizon}: {bad}"]
    return []


@mpmath.workdps(DPS)
def mp_gibbs_root(values, return_times, p0):
    """50-digit root p of sum_i exp(values_i - p R_i) = 1, by Newton from p0."""
    v = [mpmath.mpf(float(x)) for x in values]
    R = [int(r) for r in return_times]
    p = mpmath.mpf(float(p0))
    for _ in range(60):
        terms = [mpmath.exp(a - p * r) for a, r in zip(v, R)]
        g = mpmath.fsum(terms) - 1
        dg = -mpmath.fsum(t * r for t, r in zip(terms, R))
        step = g / dg
        p -= step
        if abs(step) < mpmath.mpf(10) ** -45:
            break
    return p


def gibbs_root_problems(name, values, return_times, p, tol=1e-10):
    p_mp = mp_gibbs_root(values, return_times, p)
    return close(name, p, float(p_mp), tol)


def curve_problems(t, P, err, flags, slope_tol_band=0.05, tol=1e-9):
    """Properties of P(t phi) for phi = -log|f'| on lsv(1.5).

    The true pressure is positive for t < 1 and zero for t >= 1, convex and
    non-increasing; the computed curve must be so too, within its error bars,
    and its slope-gap scan may flag only points near t = 1.
    """
    out = []
    n = len(t)
    for i in range(n - 1):
        if P[i + 1] > P[i] + tol:
            out.append(f"curve increases at t={t[i + 1]:g}")
            break
    for i in range(1, n - 1):
        d2 = ((P[i + 1] - P[i]) / (t[i + 1] - t[i])
              - (P[i] - P[i - 1]) / (t[i] - t[i - 1]))
        if d2 < -tol / (t[i + 1] - t[i]):
            out.append(f"curve not convex at t={t[i]:g} (second difference {d2:.3g})")
            break
    for ti, pi, ei in zip(t, P, err):
        if ti >= 1.0 and not abs(pi) <= ei:
            out.append(f"|P({ti:g})| = {abs(pi):.3g} exceeds its error bar {ei:.3g}")
            break
    for ti, pi in zip(t, P):
        if ti <= 0.95 and not pi > 0:
            out.append(f"P({ti:g}) = {pi:.3g} is not positive")
            break
    if not flags:
        out.append("no kink flagged")
    for f in flags:
        if abs(f - 1.0) > slope_tol_band:
            out.append(f"kink flagged at t={f:g}, away from t=1")
    return out


def gurevich_problems(ns, values, full_root, tol=1e-10):
    """Sarig's truncated pressures are non-decreasing in n and below the root."""
    out = []
    for (n1, a), (n2, b) in zip(zip(ns, values), zip(ns[1:], values[1:])):
        if b < a - tol:
            out.append(f"truncated pressure drops from n={n1} to n={n2}")
    if values and values[-1] > full_root + tol:
        out.append(f"truncated pressure {values[-1]!r} exceeds the full root {full_root!r}")
    return out


def refine_problems(word_counts, level_table, ell):
    """#{R_ell = n} is the ell-fold convolution of the level counts."""
    conv = {0: 1}
    for _ in range(ell):
        nxt = {}
        for a, ca in conv.items():
            for n, c in level_table:
                nxt[a + n] = nxt.get(a + n, 0) + ca * int(c)
        conv = nxt
    got = {int(k): int(v) for k, v in word_counts.items()}
    return [] if got == conv else [f"order-{ell} word counts differ from the convolution"]


def sample_problems(draw_counts, weights, n_samples):
    out = []
    if int(sum(draw_counts)) != n_samples:
        out.append(f"{int(sum(draw_counts))} draws, want {n_samples}")
    out += close("sample weight total", float(sum(weights)), 1.0, 1e-9)
    return out


# ---------------------------------------------------------------------------
# zooming_orbit


def _lsv(alpha):
    A = 2.0 ** alpha

    def f(x):
        return x * (1.0 + A * x ** alpha) if x < 0.5 else 2.0 * x - 1.0

    def df(x):
        return 1.0 + (alpha + 1.0) * A * x ** alpha if x < 0.5 else 2.0

    def inv_left(y):
        lo, hi = 0.0, 0.5
        x = 0.5 * y
        for _ in range(200):
            fx = x * (1.0 + A * x ** alpha) - y
            if abs(fx) < 1e-15:
                return x
            xn = x - fx / df(x)
            if not (lo <= xn <= hi):
                if fx > 0:
                    hi = x
                else:
                    lo = x
                xn = 0.5 * (lo + hi)
            if xn == x:
                return x
            x = xn
        return x

    def local_inverse(w, Y):
        # offset of the preimage of lift value Y near w: crossing the circle
        # point 0 shifts the position by one, crossing the break 1/2 does not
        left = w < 0.5
        if 0.0 <= Y <= 1.0:
            return (inv_left(Y) if left else 0.5 * (Y + 1.0)) - w
        if Y < 0.0:
            return (0.5 * Y - w) if left else (inv_left(Y + 1.0) - w)
        return (0.5 * Y - w) if left else (inv_left(Y - 1.0) + 1.0 - w)

    return f, df, local_inverse


def lsv_orbit(alpha, x0, n):
    f, _, _ = _lsv(alpha)
    orb = [x0]
    for _ in range(n):
        orb.append(f(orb[-1]) % 1.0)
    return orb


def reference_zooming(alpha, x0, N, factor, delta, slack=1e-9):
    """Scalar ball-pullback detector for lsv(alpha), one candidate at a time.

    n is a zooming time iff the delta-ball at f^n(x0) pulls back along the
    orbit and its pullback k steps back has diameter at most
    factor(k) * 2 delta, for every k <= n.
    """
    f, _, local_inverse = _lsv(alpha)
    orb = lsv_orbit(alpha, x0, N)
    out = []
    for n in range(1, N + 1):
        rl, rh = -delta, delta
        for k in range(1, n + 1):
            w = orb[n - k]
            yc = f(w)
            rl, rh = local_inverse(w, yc + rl), local_inverse(w, yc + rh)
            if rh - rl > 2.0 * delta * factor(k) * (1.0 + slack) + 1e-15:
                break
        else:
            out.append(n)
    return out


def zooming_problems(name, times, reference, prefix):
    """Detection of n depends only on the orbit up to n: compare prefixes."""
    got = [t for t in times if t <= prefix]
    if got != reference:
        diff = sorted(set(got) ^ set(reference))[:5]
        return [f"{name}: zooming times up to {prefix} differ from the reference at {diff}"]
    return []


def reference_pliss(alpha, x0, N, lam):
    """Scalar Pliss times: T_n = sum_{i<n} log f'(x_i) - lam n >= max_{j<n} T_j."""
    _, df, _ = _lsv(alpha)
    orb = lsv_orbit(alpha, x0, N)
    out = []
    T = 0.0
    runmax = -math.inf
    total = 0.0
    for n in range(1, N + 1):
        runmax = max(runmax, T)
        d = math.log(abs(df(orb[n - 1])))
        total += d
        T += d - lam
        if T >= runmax:
            out.append(n)
    return out, total / N


# ---------------------------------------------------------------------------
# series_oracles


@mpmath.workdps(DPS)
def mp_tail_sum(kind, q, h, n):
    """sum_{k>n} k #{R=k} e^{-h k} for the closed-form counts, at 50 digits."""
    h = mpmath.mpf(h)
    if kind == "constant_one":
        term = lambda k: k * mpmath.exp(-h * k)
    elif kind == "gouezel":
        term = lambda k: k * mpmath.power(4, q + k) * mpmath.exp(-h * k)
    elif kind == "two_at_one":
        return 2 * mpmath.exp(-h) if n < 1 else mpmath.mpf(0)
    else:
        raise ValueError(kind)
    return mpmath.nsum(term, [n + 1, mpmath.inf])


def tail_problems(name, bound, kind, q, h, ns=(0, 1, 2, 5, 10, 30), rel=1e-12):
    """The certified tail bound dominates the tail sum at 50 digits.

    `rel` allows for the rounding of a bound computed in floats; a finite
    support's bound at n = 0 is the whole sum itself.
    """
    out = []
    for n in ns:
        true = mp_tail_sum(kind, q, h, n)
        if not bound(n) >= true * (1 - rel):
            out.append(f"{name}: tail bound {bound(n)!r} at n={n} is below the sum {float(true)!r}")
    return out


def gouezel_h(q):
    return math.log(4.0 * (4.0 ** q + 1.0))
