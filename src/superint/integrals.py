"""Conserved quantities.

Two families are universal: for any Hamiltonian of the form h(J-, J+, J3)
the window Casimirs

    C^(m)  = sum_{1 <= i < j <= m} { (q_i p_j - q_j p_i)^2
             + b_i q_j^2/q_i^2 + b_j q_i^2/q_j^2 } + sum_{i <= m} b_i
    C_(m)  = the same sum over the last m sites

Poisson-commute with it, and each family is in involution.  C^(N) and C_(N)
coincide, so there are 2N-3 distinct integrals.

The remaining ("lost") integral of the two maximally superintegrable
families does not come from this construction; the oscillator-with-barriers
system has one per axis,

    I_i = p_i^2 + 2 m w^2 q_i^2 + m bt_i / q_i^2,

and the Coulomb-with-barriers system has, for every axis with bt_i = 0, a
generalized Laplace-Runge-Lenz component

    L_i = sum_l p_l (q_l p_i - q_i p_l) + k m q_i/|q|
          - m sum_{l != i} bt_l q_i / q_l^2.

One constructor per extra integral takes the space (Euclidean, or the
Poincare or Beltrami chart of curvature kappa) and picks that space's
formula once, at construction; all quantities carry hand-derived analytic
gradients.  Each quantity checks its barrier planes with `core.guard_axes`,
on the full realization masked to the sites it divides by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AXIS_GUARD_RADIUS, ConservedQuantity, SL2Realization, barrier_squares,
                   guard_axes)
from .errors import ConfigError, DimensionMismatch, DomainError, RangeError
from .geometry import BELTRAMI, EUCLIDEAN, check_space


def _masked(b: np.ndarray, sites) -> SL2Realization:
    """The realization with b kept on `sites` (an index or mask) and zero
    elsewhere: full length, so that its axis guard names global coordinates."""
    kept = np.zeros(b.size)
    kept[sites] = b[sites]
    return SL2Realization(kept)


# ---------------------------------------------------------------------------
# Universal window Casimirs
# ---------------------------------------------------------------------------

def _window_quantity(realization: SL2Realization, lo: int, hi: int, name: str) -> ConservedQuantity:
    w = _masked(realization.b, slice(lo, hi))
    ba, active = w.b_active, w.active[lo:hi]
    bsum = float(np.sum(realization.b[lo:hi]))

    def value(q, p):
        qw, pw = q[lo:hi], p[lo:hi]
        # qw[:, None] * pw is np.outer(qw, pw), without the wrapper call
        L = qw[:, None] * pw - pw[:, None] * qw
        val = 0.5 * float((L * L).sum())
        if ba is not None:
            qa2 = barrier_squares(w, q)
            s2 = float(qw @ qw)
            val += float((ba * (s2 - qa2) / qa2).sum())
        return val + bsum

    def gradient(q, p):
        """(dC/dq, dC/dp) at a point (N,) or at every row of a stacked
        sample (M, N)."""
        qw, pw = q[..., lo:hi], p[..., lo:hi]
        L = qw[..., :, None] * pw[..., None, :] - pw[..., :, None] * qw[..., None, :]
        dqw = 2.0 * (L @ pw[..., None])[..., 0]
        dpw = -2.0 * (L @ qw[..., None])[..., 0]
        if ba is not None:
            guard_axes(w, q)
            qa = qw[..., active]
            qa2 = qa * qa
            s2 = (qw * qw).sum(axis=-1)[..., None]
            t = np.zeros_like(qw)
            t[..., active] = ba / qa2
            dqw += 2.0 * qw * (t.sum(axis=-1)[..., None] - t)
            dqw[..., active] -= 2.0 * ba * (s2 - qa2) / qa ** 3
        dq = np.zeros_like(q)
        dp = np.zeros_like(p)
        dq[..., lo:hi] = dqw
        dp[..., lo:hi] = dpw
        return dq, dp

    return ConservedQuantity(name, realization.n, value, gradient)


def left_integral(realization: SL2Realization, m: int) -> ConservedQuantity:
    """C^(m), the Casimir of the first m sites (2 <= m <= N)."""
    n = realization.n
    if not 2 <= m <= n:
        raise RangeError(f"left integral needs 2 <= m <= {n}, got {m}")
    return _window_quantity(realization, 0, m, f"C^{m}")


def right_integral(realization: SL2Realization, m: int) -> ConservedQuantity:
    """C_(m), the Casimir of the last m sites; C_(N) coincides with C^(N)."""
    n = realization.n
    if not 2 <= m <= n:
        raise RangeError(f"right integral needs 2 <= m <= {n}, got {m}")
    return _window_quantity(realization, n - m, n, f"C_{m}")


@dataclass(frozen=True)
class IntegralSet:
    """The 2N-3 distinct universal integrals of one realization.

    `left` holds C^(2)..C^(N); `right` holds C_(2)..C_(N-1) (C_(N) is the
    same function as C^(N) and is stored once, in `left`).  Every member's
    `gradient_fn` also takes a stacked sample, q and p of shape (M, N), and
    returns (M, N) gradients; certification calls it once per sample.
    """

    left: tuple[ConservedQuantity, ...]
    right: tuple[ConservedQuantity, ...]
    realization: SL2Realization

    def __post_init__(self):
        n = self.realization.n
        if len(self.left) != n - 1 or len(self.right) != max(n - 2, 0):
            raise DimensionMismatch(
                f"expected {n - 1} left and {n - 2} right integrals, "
                f"got {len(self.left)} and {len(self.right)}"
            )

    @property
    def all(self) -> tuple[ConservedQuantity, ...]:
        return self.left + self.right

    @property
    def count(self) -> int:
        return len(self.left) + len(self.right)


def universal_set(realization: SL2Realization) -> IntegralSet:
    """Both families for sites 1..N; requires N >= 2."""
    n = realization.n
    if n < 2:
        raise RangeError(f"universal integrals need N >= 2, got N = {n}")
    left = tuple(left_integral(realization, m) for m in range(2, n + 1))
    right = tuple(right_integral(realization, m) for m in range(2, n))
    return IntegralSet(left, right, realization)


# ---------------------------------------------------------------------------
# Oscillator extras (one per axis)
# ---------------------------------------------------------------------------

def _check_axis(axis: int, n: int) -> None:
    if not 0 <= axis < n:
        raise RangeError(f"axis must be in [0, {n}), got {axis}")


def _extra_name(letter: str, axis: int, space: str) -> str:
    """I_i or L_i, marked ^B or ^P on a chart."""
    name = f"{letter}_{axis + 1}"
    return name if space == EUCLIDEAN else f"{name}^{space[0].upper()}"


def sw_extra_integral(
    axis: int, *, mass: float, omega: float, b_tilde, kappa: float = 0.0,
    space: str = EUCLIDEAN,
) -> ConservedQuantity:
    """Oscillator extra integral I_i on the given space.

    Euclidean: p_i^2 + 2 m w^2 q_i^2 + m bt_i / q_i^2
    Beltrami:  (p_i + kp (q.p) q_i)^2 + 2 m w^2 q_i^2 + m bt_i / q_i^2
    Poincare:  (p_i (1 - kp q^2) + 2 kp (q.p) q_i)^2
               + 8 m w^2 q_i^2 / (1 - kp q^2)^2
               + m bt_i (1 - kp q^2)^2 / q_i^2
    """
    check_space(space, kappa)
    bt = np.asarray(b_tilde, dtype=float)
    n = bt.size
    _check_axis(axis, n)
    m, w2, bti, kp = float(mass), float(omega) ** 2, float(bt[axis]), float(kappa)
    i = axis
    own = _masked(bt, i)

    def guard(q):
        # the scalar pre-test keeps the shared guard off the monitor hot path
        if abs(q[i]) < AXIS_GUARD_RADIUS:
            guard_axes(own, q)

    if space == EUCLIDEAN:

        def value(q, p):
            guard(q)
            val = p[i] ** 2 + 2.0 * m * w2 * q[i] ** 2
            if bti != 0.0:
                val += m * bti / q[i] ** 2
            return float(val)

        def gradient(q, p):
            guard(q)
            dq = np.zeros(n)
            dp = np.zeros(n)
            dq[i] = 4.0 * m * w2 * q[i]
            if bti != 0.0:
                dq[i] -= 2.0 * m * bti / q[i] ** 3
            dp[i] = 2.0 * p[i]
            return dq, dp

    elif space == BELTRAMI:

        def value(q, p):
            guard(q)
            u = p[i] + kp * (q @ p) * q[i]
            val = u * u + 2.0 * m * w2 * q[i] ** 2
            if bti != 0.0:
                val += m * bti / q[i] ** 2
            return float(val)

        def gradient(q, p):
            guard(q)
            d = float(q @ p)
            u = p[i] + kp * d * q[i]
            dq = 2.0 * u * kp * (p * q[i])
            dq[i] += 2.0 * u * kp * d + 4.0 * m * w2 * q[i]
            if bti != 0.0:
                dq[i] -= 2.0 * m * bti / q[i] ** 3
            dp = 2.0 * u * kp * q[i] * q
            dp[i] += 2.0 * u
            return dq, dp

    else:  # poincare

        def value(q, p):
            guard(q)
            a = 1.0 - kp * float(q @ q)
            u = p[i] * a + 2.0 * kp * float(q @ p) * q[i]
            val = u * u + 8.0 * m * w2 * q[i] ** 2 / a ** 2
            if bti != 0.0:
                val += m * bti * a ** 2 / q[i] ** 2
            return float(val)

        def gradient(q, p):
            guard(q)
            d = float(q @ p)
            a = 1.0 - kp * float(q @ q)
            u = p[i] * a + 2.0 * kp * d * q[i]
            # d(u)/dq_j = -2 kp q_j p_i + 2 kp (p_j q_i + d delta_ij)
            du_dq = -2.0 * kp * q * p[i] + 2.0 * kp * p * q[i]
            dq = 2.0 * u * du_dq
            dq[i] += 2.0 * u * 2.0 * kp * d
            dq += 8.0 * m * w2 * 4.0 * kp * q[i] ** 2 * q / a ** 3
            dq[i] += 8.0 * m * w2 * 2.0 * q[i] / a ** 2
            if bti != 0.0:
                dq += -4.0 * m * bti * kp * a * q / q[i] ** 2
                dq[i] += -2.0 * m * bti * a ** 2 / q[i] ** 3
            dp = 2.0 * u * 2.0 * kp * q[i] * q
            dp[i] += 2.0 * u * a
            return dq, dp

    return ConservedQuantity(_extra_name("I", axis, space), n, value, gradient)


# ---------------------------------------------------------------------------
# Coulomb extras (Laplace-Runge-Lenz type, valid only where bt_i = 0)
# ---------------------------------------------------------------------------

def _radius(q: np.ndarray) -> float:
    r = float(np.sqrt(q @ q))
    if r < 1e-10:
        raise DomainError("phase point at the origin of the attractive center")
    return r


def _barrier_sum(bars: SL2Realization, q) -> float:
    """sum_{l != axis} bt_l / q_l^2 over the barriers bars of the other axes."""
    if bars.b_active is None:
        return 0.0
    return float((bars.b_active / barrier_squares(bars, q)).sum())


def _barrier_cube(bars: SL2Realization, q):
    """bt_l / q_l^3 for active l != axis and zero elsewhere (the scalar 0.0
    without barriers), so callers never divide by an inactive q_l.  Call
    after _barrier_sum, which runs the axis guard."""
    if bars.b_active is None:
        return 0.0
    return bars.spread(bars.b_active / bars.at_barriers(q) ** 3)


def kc_extra_integral(
    axis: int, *, mass: float, k: float, b_tilde, kappa: float = 0.0,
    space: str = EUCLIDEAN,
) -> ConservedQuantity:
    """Coulomb extra L_i on the given space; requires bt_i = 0 on the chosen axis."""
    check_space(space, kappa)
    bt = np.asarray(b_tilde, dtype=float)
    _check_axis(axis, bt.size)
    if bt[axis] != 0.0:
        raise ConfigError(
            f"L_{axis + 1} is conserved only when bt_{axis + 1} = 0, got {bt[axis]}"
        )
    return _kc_extra_unchecked(axis, mass=mass, k=k, b_tilde=bt, kappa=kappa, space=space)


def _kc_extra_unchecked(
    axis: int, *, mass: float, k: float, b_tilde, kappa: float = 0.0,
    space: str = EUCLIDEAN,
) -> ConservedQuantity:
    """L_i built from the formula regardless of bt_i (testing/mutation path)."""
    bt = np.asarray(b_tilde, dtype=float)
    n = bt.size
    _check_axis(axis, n)
    m, kc, kp = float(mass), float(k), float(kappa)
    i = axis
    bars = _masked(bt, np.arange(n) != i)

    if space == EUCLIDEAN:

        def value(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            s = float(q @ p) * p[i] - q[i] * float(p @ p)
            return float(s + kc * m * q[i] / r - m * q[i] * tsum)

        def gradient(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            cube = _barrier_cube(bars, q)
            dq = p * p[i] + kc * m * (-q[i] * q / r ** 3)
            dq[i] += -float(p @ p) + kc * m / r - m * tsum
            dq += 2.0 * m * q[i] * cube
            dp = q * p[i] - 2.0 * q[i] * p
            dp[i] += float(q @ p)
            return dq, dp

    elif space == BELTRAMI:

        def value(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            dd = float(q @ p)
            qq = float(q @ q)
            pp = float(p @ p)
            s = dd * p[i] * (1.0 + kp * qq) - q[i] * (pp + kp * dd * dd)
            return float(s + kc * m * q[i] / r - m * q[i] * tsum)

        def gradient(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            cube = _barrier_cube(bars, q)
            dd = float(q @ p)
            qq = float(q @ q)
            pp = float(p @ p)
            one = 1.0 + kp * qq
            dq = p * p[i] * one + 2.0 * kp * dd * p[i] * q - 2.0 * kp * dd * q[i] * p
            dq[i] += -(pp + kp * dd * dd)
            dq += kc * m * (-q[i] * q / r ** 3)
            dq[i] += kc * m / r - m * tsum
            dq += 2.0 * m * q[i] * cube
            dp = q * p[i] * one - q[i] * (2.0 * p + 2.0 * kp * dd * q)
            dp[i] += dd * one
            return dq, dp

    else:  # poincare

        def value(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            dd = float(q @ p)
            qq = float(q @ q)
            pp = float(p @ p)
            a = 1.0 - kp * qq
            s = a * (dd * p[i] - q[i] * pp) + 2.0 * kp * dd * (qq * p[i] - q[i] * dd)
            return float(s + 0.5 * kc * m * q[i] / r - m * q[i] * a * tsum)

        def gradient(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            cube = _barrier_cube(bars, q)
            dd = float(q @ p)
            qq = float(q @ q)
            pp = float(p @ p)
            a = 1.0 - kp * qq
            dq = (
                -2.0 * kp * q * (dd * p[i] - q[i] * pp)
                + a * p * p[i]
                + 2.0 * kp * p * (qq * p[i] - q[i] * dd)
                + 2.0 * kp * dd * (2.0 * q * p[i] - q[i] * p)
            )
            dq[i] += -a * pp - 2.0 * kp * dd * dd
            dq += 0.5 * kc * m * (-q[i] * q / r ** 3)
            dq[i] += 0.5 * kc * m / r - m * a * tsum
            dq += 2.0 * m * kp * q[i] * q * tsum + 2.0 * m * q[i] * a * cube
            dp = (
                a * (q * p[i] - 2.0 * q[i] * p)
                + 2.0 * kp * (q * (qq * p[i] - q[i] * dd) + dd * (-q[i] * q))
            )
            dp[i] += a * dd + 2.0 * kp * dd * qq
            return dq, dp

    return ConservedQuantity(_extra_name("L", axis, space), n, value, gradient)
