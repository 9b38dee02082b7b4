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

The J's of C^(m) are the partial sums, after site m, of the left to right
pass that gives H's J's, so an `IntegralSet` takes all its members from one
pass of `core.column_sums`, in which each C_(m) sums its own sites.  A
member on its own runs the same generator over its one window.

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
of that formula.  Its dots, barrier squares and barrier sum come from
`core.column_sums` too, at a point, over a stack (as the monitor pass of
`dynamics` gives it) or over the complex-step probes, which checks the
barrier planes it divides by with `core.guard_axes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import ConservedQuantity, SL2Realization, column_sums, complex_step_gradient
from .errors import ConfigError, DimensionMismatch, DomainError, RangeError
from .geometry import EUCLIDEAN, POINCARE, check_space


# ---------------------------------------------------------------------------
# Universal window Casimirs
# ---------------------------------------------------------------------------

class _Windows:
    """C = J- J+ - J3^2 of the windows (lo, hi), sites lo..hi-1, of one
    realization, from one `column_sums` pass bound on the first call."""

    def __init__(self, realization: SL2Realization, windows):
        self.realization, self.windows = realization, tuple(windows)

    @cached_property
    def _kernel(self):
        """(the pass, inside[K, N], the barrier sites read, their b_i and
        inside at them)."""
        n = self.realization.n
        inside = np.array([[lo <= i < hi for i in range(n)] for lo, hi in self.windows])
        sites = [i for i in self.realization.sites if inside[:, i].any()]
        sums = column_sums(n, self.realization.barriers, self.windows, ("jm", "jp", "j3"))
        return sums, inside, sites, self.realization.b[sites], inside[:, sites]

    def value(self, q, p):
        """C of the one window, at a point (N,) or over a stack (..., N)."""
        ((jm, jp, j3),), _ = self._kernel[0](q, p)
        return jm * jp - j3 * j3

    def gradient(self, q, p):
        """(dC/dq, dC/dp) of the one window, each shaped like q."""
        dq, dp = self.gradients(q, p)
        return dq[..., 0, :], dp[..., 0, :]

    def gradients(self, q, p):
        """(dC/dq, dC/dp) of every window, each (..., K, N), by the chain
        rule dC/dq = 2 J+ q - 2 J3 p + J- dJ+/dq and dC/dp = 2 J- p - 2 J3 q
        on the window's sites, with dJ+/dq_i = -2 b_i / q_i**3 on its barrier
        sites; off the window the same products, of q = p = 0."""
        sums, inside, sites, b, barred = self._kernel
        # the windows' (J-, J+, J3) rows, (K, 3, ...), as three (..., K, 1) arrays
        jm2, jp2, j32 = 2.0 * np.moveaxis(np.array(sums(q, p)[0]), 0, -1)[..., None]
        qk, pk = q[..., None, :], p[..., None, :]
        dq = jp2 * qk - j32 * pk
        dp = jm2 * pk - j32 * qk
        if sites:
            qa = qk[..., sites]
            at = dq[..., sites]
            dq[..., sites] = np.where(barred, at - jm2 * b / (qa * qa * qa), at)
        return (np.where(inside, dq, jp2 * 0.0 - j32 * 0.0),
                np.where(inside, dp, jm2 * 0.0 - j32 * 0.0))


def left_integral(realization: SL2Realization, m: int) -> ConservedQuantity:
    """C^(m), the Casimir of the first m sites (2 <= m <= N)."""
    n = realization.n
    if not 2 <= m <= n:
        raise RangeError(f"left integral needs 2 <= m <= {n}, got {m}")
    w = _Windows(realization, [(0, m)])
    return ConservedQuantity(f"C^{m}", n, w.value, w.gradient)


def right_integral(realization: SL2Realization, m: int) -> ConservedQuantity:
    """C_(m), the Casimir of the last m sites; C_(N) coincides with C^(N)."""
    n = realization.n
    if not 2 <= m <= n:
        raise RangeError(f"right integral needs 2 <= m <= {n}, got {m}")
    w = _Windows(realization, [(n - m, n)])
    return ConservedQuantity(f"C_{m}", n, w.value, w.gradient)


def _is_window(f: ConservedQuantity, realization: SL2Realization, window) -> bool:
    """Whether f's gradient is the window's own, as `left_integral` or
    `right_integral` made it."""
    kernel = getattr(f.gradient_fn, "__self__", None)
    return (isinstance(kernel, _Windows) and kernel.realization is realization
            and kernel.windows == (window,))


@dataclass(frozen=True)
class IntegralSet:
    """The 2N-3 distinct universal integrals of one realization.

    `left` holds C^(2)..C^(N); `right` holds C_(2)..C_(N-1) (C_(N) is the
    same function as C^(N) and is stored once, in `left`).  `gradients`
    gives every member's gradient over a stacked sample in one call: one
    column pass when every member is this realization's own window, as
    `universal_set` makes them, and each member's gradient_fn when one is
    not (a window of another realization, or a wrapped or altered function).
    """

    left: tuple[ConservedQuantity, ...]
    right: tuple[ConservedQuantity, ...]
    realization: SL2Realization
    _pass: Optional[_Windows] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.realization.n
        if len(self.left) != n - 1 or len(self.right) != max(n - 2, 0):
            raise DimensionMismatch(
                f"expected {n - 1} left and {n - 2} right integrals, "
                f"got {len(self.left)} and {len(self.right)}"
            )
        windows = [(0, m) for m in range(2, n + 1)] + [(n - m, n) for m in range(2, n)]
        own = all(_is_window(f, self.realization, w) for f, w in zip(self.all, windows))
        object.__setattr__(self, "_pass", _Windows(self.realization, windows) if own else None)

    @property
    def all(self) -> tuple[ConservedQuantity, ...]:
        return self.left + self.right

    @property
    def count(self) -> int:
        return len(self.left) + len(self.right)

    def gradients(self, q, p):
        """(dC/dq, dC/dp) of every member of `all`, each (..., K, N), for q
        and p of shape (..., N)."""
        if self._pass is not None:
            return self._pass.gradients(q, p)
        rows = [f.gradient_fn(q, p) for f in self.all]
        return (np.stack([dq for dq, _ in rows], axis=-2),
                np.stack([dp for _, dp in rows], axis=-2))


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
    # q.p (and q.q on the Poincare chart) and, with a barrier, q_i * q_i
    sums = column_sums(n, [(i, bti)] if bti != 0.0 else [], [(0, n)],
                       ("jm", "j3") if space == POINCARE else ("j3",))

    if space == POINCARE:

        def value(q, p):
            ((qq, dd),), squares = sums(q, p)
            qi = q[..., i]
            a = 1.0 - kp * qq
            u = p[..., i] * a + 2.0 * kp * dd * qi
            val = u * u + 8.0 * m * w2 * (qi * qi) / (a * a)
            if squares:
                val += m * bti * (a * a) / squares[0]
            return val

    else:  # flat space is the kp = 0 case of the Beltrami value, bit for bit

        def value(q, p):
            ((dd,),), squares = sums(q, p)
            qi = q[..., i]
            u = p[..., i] + kp * dd * qi
            val = u * u + 2.0 * m * w2 * (qi * qi)
            if squares:
                val += m * bti / squares[0]
            return val

    return ConservedQuantity(_extra_name("I", axis, space), n, value,
                             complex_step_gradient(value))


# ---------------------------------------------------------------------------
# Coulomb extras (Laplace-Runge-Lenz type, valid only where bt_i = 0)
# ---------------------------------------------------------------------------

def _radius(qq):
    """|q| from q.q, away from the attractive center."""
    r = np.sqrt(qq)
    if np.minimum.reduce(r.real, axis=None) < 1e-10:
        raise DomainError("phase point at the origin of the attractive center")
    return r


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
    # q.q, q.p, p.p and sum_{l != i} bt_l / q_l^2, each left to right
    sums = column_sums(n, [(l, b) for l, b in enumerate(bt.tolist()) if b != 0.0], [(0, n)],
                       ("jm", "j3", "pp", "bs"))

    if space == POINCARE:

        def value(q, p):
            ((qq, dd, pp, tsum),), _ = sums(q, p)
            r = _radius(qq)
            qi, pi = q[..., i], p[..., i]
            a = 1.0 - kp * qq
            s = a * (dd * pi - qi * pp) + 2.0 * kp * dd * (qq * pi - qi * dd)
            return s + 0.5 * kc * m * qi / r - m * qi * a * tsum

    else:  # flat space is the kp = 0 case of the Beltrami value, bit for bit

        def value(q, p):
            ((qq, dd, pp, tsum),), _ = sums(q, p)
            r, qi = _radius(qq), q[..., i]
            s = dd * p[..., i] * (1.0 + kp * qq) - qi * (pp + kp * dd * dd)
            return s + kc * m * qi / r - m * qi * tsum

    return ConservedQuantity(_extra_name("L", axis, space), n, value,
                             complex_step_gradient(value))
