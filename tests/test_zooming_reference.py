"""Cross-check the vectorized zooming detector against a scalar reference.

The reference re-implements the ball pullback independently: scalar
loops, local inverses through the two onto-circle branches of the LSV
map with explicit lift shifts, and the same diameter schedule.  Any
divergence between the two detected sets is a bug in one of them.
"""

import math

import numpy as np
import pytest

import eqstate as eq
from eqstate import zooming
from eqstate.maps import strict_orbit


def _lsv_funcs(alpha):
    A = 2.0 ** alpha

    def f(x):
        return x * (1 + A * x ** alpha) if x < 0.5 else 2 * x - 1

    def df(x):
        return 1 + (alpha + 1) * A * x ** alpha if x < 0.5 else 2.0

    def inv_left(y):
        lo, hi = 0.0, 0.5
        x = 0.5 * y
        for _ in range(200):
            fx = x * (1 + A * x ** alpha) - y
            if abs(fx) < 1e-15:
                return x
            d = 1 + (alpha + 1) * A * x ** alpha
            xn = x - fx / d
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

    def inv_right(y):
        return 0.5 * (y + 1.0)

    return f, df, inv_left, inv_right


def _reference_zooming(alpha, x0, N, factor, delta, slack=1e-9, ell=1):
    """Scalar detector for lsv(alpha)^ell: each step of the pullback goes
    back ell steps of f, and the step k pullback must have diameter at
    most factor(k) * 2 delta."""
    f, df, inv_left, inv_right = _lsv_funcs(alpha)
    orb = [x0]
    for _ in range(ell * N):
        orb.append(f(orb[-1]) % 1.0)

    def local_inverse(w, Y):
        # preimage of lift-value Y near w: in-branch when Y lands in [0,1];
        # crossing the circle point [0] shifts the position by +-1, crossing
        # the interior break 1/2 does not
        left = w < 0.5
        if 0.0 <= Y <= 1.0:
            x = inv_left(Y) if left else inv_right(Y)
            return x - w
        if Y < 0.0:
            if left:
                return inv_right(Y + 1.0) - 1.0 - w
            return inv_left(Y + 1.0) - w
        if left:
            return inv_right(Y - 1.0) - w
        return inv_left(Y - 1.0) + 1.0 - w

    detected = []
    for n in range(1, N + 1):
        rl, rh = -delta, delta
        ok = True
        for k in range(1, n + 1):
            for j in range(ell * (n - k + 1) - 1, ell * (n - k) - 1, -1):
                w = orb[j]
                yc = w * (1 + 2.0 ** alpha * w ** alpha) if w < 0.5 else 2 * w - 1
                rl, rh = local_inverse(w, yc + rl), local_inverse(w, yc + rh)
            if rh - rl > 2 * delta * factor(k) * (1 + slack) + 1e-15:
                ok = False
                break
        if ok:
            detected.append(n)
    return detected


@pytest.mark.parametrize("alpha,delta,seed", [(0.6, 0.1, 5), (0.6, 0.3, 6), (1.2, 0.15, 7),
                                              (0.3, 0.1, 8), (1.5, 0.2, 9)])
def test_vectorized_matches_reference(alpha, delta, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x0 = float(rng.uniform(0, 1))
    N, lam = 400, 0.2
    m = eq.lsv(alpha)
    rep = eq.zooming_frequency(m, x0, N, eq.Contraction.exponential(lam), delta)
    ref = _reference_zooming(alpha, x0, N, lambda k: math.exp(-lam * k), delta)
    assert list(rep.times) == ref


@pytest.mark.parametrize("alpha,delta,seed", [(0.6, 0.1, 10), (0.3, 0.05, 11), (1.5, 0.25, 12)])
def test_vectorized_matches_reference_sqrt_exponential(alpha, delta, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x0 = float(rng.uniform(0, 1))
    N, lam = 400, 0.5
    m = eq.lsv(alpha)
    rep = eq.zooming_frequency(m, x0, N, eq.Contraction.sqrt_exponential(lam), delta)
    ref = _reference_zooming(alpha, x0, N, lambda k: math.exp(-lam * math.sqrt(k)), delta)
    assert list(rep.times) == ref


def test_iterate_matches_two_step_reference():
    # zooming for f^2 on the iterate map = pulling back two steps of f at a time
    rng = np.random.Generator(np.random.Philox(20240501))
    x0 = float(rng.uniform(0.0, 1.0))
    N, lam, delta = 100, 0.2, 0.1
    rep = eq.zooming_frequency(eq.iterate(eq.lsv(0.6), 2), x0, N,
                               eq.Contraction.exponential(lam), delta)
    ref = _reference_zooming(0.6, x0, N, lambda k: math.exp(-lam * k), delta, ell=2)
    assert list(rep.times) == ref
    assert len(ref) > N // 2


def test_pullback_interval_maps_onto_ball():
    # for a detected time, the certified pre-ball must map onto the ball:
    # push the reference pullback's endpoints forward and hit the ball edges
    alpha = 0.6
    f, _, inv_left, inv_right = _lsv_funcs(alpha)
    m = eq.lsv(alpha)
    x0 = 0.377
    N, lam, delta = 60, 0.25, 0.2
    rep = eq.zooming_frequency(m, x0, N, eq.Contraction.exponential(lam), delta)
    orb = [x0]
    for _ in range(N):
        orb.append(f(orb[-1]))

    def local_inverse(w, Y):
        left = w < 0.5
        if 0.0 <= Y <= 1.0:
            x = inv_left(Y) if left else inv_right(Y)
            return x - w
        if Y < 0.0:
            if left:
                return inv_right(Y + 1.0) - 1.0 - w
            return inv_left(Y + 1.0) - w
        if left:
            return inv_right(Y - 1.0) - w
        return inv_left(Y - 1.0) + 1.0 - w

    assert rep.times, "no zooming times detected at these parameters"
    for n in rep.times[:20]:
        rl, rh = -delta, delta
        for k in range(1, n + 1):
            w = orb[n - k]
            yc = f(w)
            rl, rh = local_inverse(w, yc + rl), local_inverse(w, yc + rh)
        for off, target in ((rl, orb[n] - delta), (rh, orb[n] + delta)):
            y = (orb[0] + off) % 1.0
            for _ in range(n):
                y = f(y) % 1.0
            assert abs((y - target + 0.5) % 1.0 - 0.5) < 1e-7


def _unabsorbed_zooming(m, x0, N, c, delta, slack=1e-9):
    """The batched detector without retiring candidates early: every
    candidate is pulled back until it fails or reaches time 0."""
    pts, bidx, _ = strict_orbit(m, x0, N)
    M = len(bidx)
    sp = m.space
    if sp.circle:
        rel_lo, rel_hi = np.full(M, -delta), np.full(M, delta)
    else:
        rel_lo = np.maximum(sp.lo - pts[1:], -delta)
        rel_hi = np.minimum(sp.hi - pts[1:], delta)
    D0 = rel_hi - rel_lo
    hops = zooming._hop_table(m)
    P = zooming._point_table(m, pts[:M], bidx)
    active = np.arange(M)
    detected = []
    for k in range(1, M + 1):
        if not len(active):
            break
        j = active + 1 - k
        rel_lo, rel_hi, fail = zooming._pullback(m, hops, P, j, rel_lo, rel_hi)
        fail |= rel_hi - rel_lo > c.factor(k) * D0[active] * (1.0 + slack) + 1e-15
        done = (j == 0) & ~fail
        detected += (active[done] + 1).tolist()
        keep = ~(fail | done)
        active, rel_lo, rel_hi = active[keep], rel_lo[keep], rel_hi[keep]
    return sorted(detected)


# `rate` is an exponential rate or a contraction.  The later cases have
# growth bounds G > 1 (|f'| < 1 along the orbit) or retire candidates
# whose offsets are small but not zero; the lsv(0.6) case at rate 0.3
# detects one time more when candidates retire at 1e-15 instead of 1e-16
@pytest.mark.parametrize("m,x0,N,rate,delta", [
    (eq.lsv(0.6), 0.377, 800, 0.2, 0.1),
    (eq.lsv(1.5), 0.61, 800, 0.1, 0.2),
    (eq.quadratic(-2.0), 0.3, 300, 0.2, 0.1),
    (eq.quadratic(-1.9), 0.3, 300, 0.1, 0.05),
    (eq.tent(1.5), 0.2718, 300, 0.05, 0.2),
    (eq.doubling(), 0.3141, 50, 0.5, 0.2),
    (eq.quadratic(-1.5437), 0.1, 300, 0.05, 0.1),
    (eq.iterate(eq.quadratic(-2.0), 2), 0.3, 150, 0.3, 0.02),
    (eq.quadratic(-1.7), 0.45, 300, eq.Contraction.sqrt_exponential(0.5), 0.1),
    (eq.lsv(0.6), 0.61, 400,
     eq.Contraction.from_table([math.exp(-0.1 * n - 0.3 * math.sqrt(n)) for n in range(1, 401)]),
     0.1),
    (eq.lsv(0.6), 0.377, 300, 0.3, 0.02),
])
def test_retiring_zero_offsets_changes_nothing(m, x0, N, rate, delta):
    c = rate if isinstance(rate, eq.Contraction) else eq.Contraction.exponential(rate)
    rep = eq.zooming_frequency(m, x0, N, c, delta)
    assert list(rep.times) == _unabsorbed_zooming(m, x0, N, c, delta)
