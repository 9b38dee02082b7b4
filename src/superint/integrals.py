"""Conserved quantities.

Two families are universal.  On the sl(2,R) generators of the first m
sites (the m-th coproduct of the Poisson coalgebra) the Casimir is, by
Lagrange's identity,

    C^(m)  = J-^(m) J+^(m) - (J3^(m))^2
           = sum_{1 <= i < j <= m} { (q_i p_j - q_j p_i)^2
             + b_i q_j^2/q_i^2 + b_j q_i^2/q_j^2 } + sum_{i <= m} b_i,
    C_(m)  = the same on the last m sites.

Both Poisson-commute with any Hamiltonian h(J-, J+, J3), and each family is
in involution.  C^(N) and C_(N) coincide, so there are 2N-3 distinct
integrals.

The remaining ("lost") integral of the two maximally superintegrable
families does not come from this construction; the oscillator-with-barriers
system has one per axis,

    I_i = p_i^2 + 2 m w^2 q_i^2 + m bt_i / q_i^2,

and the Coulomb-with-barriers system has, for every axis with bt_i = 0, a
generalized Laplace-Runge-Lenz component

    L_i = sum_l p_l (q_l p_i - q_i p_l) + k m q_i/|q|
          - m sum_{l != i} bt_l q_i / q_l^2.

One constructor per extra integral takes the space (Euclidean, or the
Poincare or Beltrami chart of curvature kappa) and picks that space's value
formula once, at construction; its gradient is `core.complex_step_gradient`
of that formula.  Each quantity checks its barrier planes with `core.guard_axes`, on the full
realization masked to the sites it divides by.  Values also take a stack
(..., N), as the monitor pass of `dynamics` gives it: dots are `core.dot`,
sums `np.add.reduce` and squares products, bitwise as per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConservedQuantity, SL2Realization, barrier_squares, complex_step_gradient,
                   dot, sl2_kernel)
from .errors import ConfigError, DimensionMismatch, DomainError, RangeError
from .geometry import EUCLIDEAN, POINCARE, check_space


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
    """C = J- J+ - J3^2 of sites lo..hi-1, at a point (N,) or a stack (M, N).

    The J's are one sl2_kernel call on q and p zeroed off the window, over
    the realization masked to it (so guards name global coordinates); the
    gradient is the chain rule dC/dq = 2 J+ q + J- dJ+/dq - 2 J3 p,
    dC/dp = 2 J- p - 2 J3 q."""
    w = _masked(realization.b, slice(lo, hi))

    def generators(q, p):
        qw, pw = np.zeros_like(q), np.zeros_like(p)
        qw[..., lo:hi], pw[..., lo:hi] = q[..., lo:hi], p[..., lo:hi]
        jm, jp, j3, _ = sl2_kernel(w, qw, pw)
        return qw, pw, jm, jp, j3

    def value(q, p):
        _, _, jm, jp, j3 = generators(q, p)
        return jm * jp - j3 * j3

    def gradient(q, p):
        qw, pw, jm, jp, j3 = generators(q, p)
        jm, jp, j3 = jm[..., None], jp[..., None], j3[..., None]
        dq = (2.0 * jp) * qw - (2.0 * j3) * pw
        dp = (2.0 * jm) * pw - (2.0 * j3) * qw
        if w.b_active is not None:
            qa = w.at_barriers(qw)
            # J- dJ+/dq_i with dJ+/dq_i = -2 b_i / q_i^3, cubed by products
            dq[..., w.sites] -= (2.0 * jm) * w.b_active / (qa * qa * qa)
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

    if space == POINCARE:

        def value(q, p):
            qi = q[..., i]
            a = 1.0 - kp * dot(q, q)
            u = p[..., i] * a + 2.0 * kp * dot(q, p) * qi
            val = u * u + 8.0 * m * w2 * (qi * qi) / (a * a)
            if bti != 0.0:
                val += m * bti * (a * a) / barrier_squares(own, q)[..., 0]
            return val

    else:  # flat space is the kp = 0 case of the Beltrami value, bit for bit

        def value(q, p):
            qi = q[..., i]
            u = p[..., i] + kp * dot(q, p) * qi
            val = u * u + 2.0 * m * w2 * (qi * qi)
            if bti != 0.0:
                val += m * bti / barrier_squares(own, q)[..., 0]
            return val

    return ConservedQuantity(_extra_name("I", axis, space), n, value,
                             complex_step_gradient(value))


# ---------------------------------------------------------------------------
# Coulomb extras (Laplace-Runge-Lenz type, valid only where bt_i = 0)
# ---------------------------------------------------------------------------

def _radius(q: np.ndarray):
    r = np.sqrt(dot(q, q))
    if np.minimum.reduce(r.real, axis=None) < 1e-10:
        raise DomainError("phase point at the origin of the attractive center")
    return r


def _barrier_sum(bars: SL2Realization, q):
    """sum_{l != axis} bt_l / q_l^2 over the barriers bars of the other axes."""
    if bars.b_active is None:
        return 0.0
    return np.add.reduce(bars.b_active / barrier_squares(bars, q), axis=-1)


def kc_extra_integral(
    axis: int, *, mass: float, k: float, b_tilde, kappa: float = 0.0,
    space: str = EUCLIDEAN,
) -> ConservedQuantity:
    """Coulomb extra L_i on the given space; requires bt_i = 0 on the chosen
    axis.  The formula reads only the other axes' barriers."""
    check_space(space, kappa)
    bt = np.asarray(b_tilde, dtype=float)
    n = bt.size
    _check_axis(axis, n)
    if bt[axis] != 0.0:
        raise ConfigError(
            f"L_{axis + 1} is conserved only when bt_{axis + 1} = 0, got {bt[axis]}"
        )
    m, kc, kp = float(mass), float(k), float(kappa)
    i = axis
    bars = _masked(bt, np.arange(n) != i)

    if space == POINCARE:

        def value(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            dd, qq, pp = dot(q, p), dot(q, q), dot(p, p)
            qi, pi = q[..., i], p[..., i]
            a = 1.0 - kp * qq
            s = a * (dd * pi - qi * pp) + 2.0 * kp * dd * (qq * pi - qi * dd)
            return s + 0.5 * kc * m * qi / r - m * qi * a * tsum

    else:  # flat space is the kp = 0 case of the Beltrami value, bit for bit

        def value(q, p):
            r = _radius(q)
            tsum = _barrier_sum(bars, q)
            dd, qq, pp, qi = dot(q, p), dot(q, q), dot(p, p), q[..., i]
            s = dd * p[..., i] * (1.0 + kp * qq) - qi * (pp + kp * dd * dd)
            return s + kc * m * qi / r - m * qi * tsum

    return ConservedQuantity(_extra_name("L", axis, space), n, value,
                             complex_step_gradient(value))
