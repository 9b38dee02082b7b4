"""Phase-space primitives.

The whole library is built on three phase-space functions of N canonical
pairs (q, p),

    J- = sum_i q_i**2
    J+ = sum_i (p_i**2 + b_i / q_i**2)
    J3 = sum_i q_i * p_i,

which close the Poisson brackets {J3, J+} = 2 J+, {J3, J-} = -2 J-,
{J-, J+} = 4 J3.  A Hamiltonian is any smooth function H(J-, J+, J3); its
phase-space gradient is assembled exactly by the chain rule from the three
partials of H and the analytic gradients of the J's.

`sl2_kernel` evaluates the three generators and dJ+/dq, the only gradient
that is not q or p times a constant, in one pass over raw arrays; the
barrier mask it needs is computed once per `SL2Realization`.
`HamiltonianSpec.gradient_qp` folds the chain rule into two vector
expressions, without building the gradient vectors of the J's.

The centrifugal terms b_i / q_i**2 make every plane q_i = 0 with b_i != 0
singular, for H and for every integral built on the same realization.
`guard_axes` is the one check of that domain condition, and
`SL2Realization.clearance` is the distance to it that dynamics watches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, DomainError

# Below this |q_i| (with b_i != 0) the centrifugal term is treated as singular.
AXIS_GUARD_RADIUS = 1e-10


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d real vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PhasePoint:
    """Canonical state (q, p) with q.len == p.len == N."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "p", _as_vector(self.p, "p"))
        if self.q.shape != self.p.shape:
            raise DimensionMismatch(
                f"q and p must have equal length, got {self.q.size} and {self.p.size}"
            )
        if self.q.size < 1:
            raise DimensionMismatch("phase point needs at least one canonical pair")

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class SL2Realization:
    """Centrifugal coefficients b = (b_1 ... b_N) of the realization.

    The barrier sites are found once here: `active` masks the sites with
    b_i != 0 and `b_active` holds their coefficients (None when there is no
    barrier).  The sl(2) kernel and every axis guard read these instead of
    rebuilding the mask; `b` is stored as a read-only copy so they cannot
    go stale.
    """

    b: np.ndarray
    active: np.ndarray = field(init=False, repr=False, compare=False)
    b_active: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = _as_vector(self.b, "b").copy()
        b.flags.writeable = False
        active = b != 0.0
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "b_active", b[active] if active.any() else None)

    @property
    def n(self) -> int:
        return self.b.size

    def at_barriers(self, q: np.ndarray) -> np.ndarray:
        """The entries of q on the barrier sites."""
        return q[self.active]

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Inverse of at_barriers: a length-N vector, zero off the barriers."""
        full = np.zeros(self.n)
        full[self.active] = values
        return full

    def clearance(self, q: np.ndarray) -> float:
        """min |q_i| over the barrier sites: the distance to the nearest
        barrier plane (inf when there is no barrier)."""
        if self.b_active is None:
            return np.inf
        return float(np.abs(self.at_barriers(q)).min())

    def check_point(self, x: PhasePoint) -> None:
        if x.n != self.n:
            raise DimensionMismatch(
                f"realization has {self.n} sites but phase point has {x.n}"
            )
        guard_axes(self, x.q)


def guard_axes(realization: SL2Realization, q: np.ndarray) -> None:
    """Raise DomainError if a q_i with b_i != 0 is within AXIS_GUARD_RADIUS
    of its coordinate plane.  q is one point (N,) or a stacked sample
    (M, N); the message names q_i by its index in the realization (and the
    point of a stacked sample), so windows and one-axis integrals pass the
    full realization masked to their sites."""
    bad = realization.active & (np.abs(q) < AXIS_GUARD_RADIUS)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        i = int(idx[-1])
        where = f"point {idx[0]}: " if q.ndim > 1 else ""
        raise DomainError(
            f"{where}q_{i + 1} = {float(q[idx])!r} lies on a coordinate plane "
            f"with b_{i + 1} != 0"
        )


# A barrier coordinate with q_i**2 below this may be within the guard
# radius; only then is the exact (and slower) guard_axes test run.
_NEAR_AXIS_SQ = (2.0 * AXIS_GUARD_RADIUS) ** 2


def barrier_squares(realization: SL2Realization, q: np.ndarray) -> np.ndarray:
    """q_i**2 on the barrier sites, after the axis guard has passed.

    Callers divide by these, so a point on a guarded coordinate plane
    raises DomainError before any division happens.
    """
    qa2 = realization.at_barriers(q) ** 2
    if qa2.min() < _NEAR_AXIS_SQ:
        guard_axes(realization, q)
    return qa2


def sl2_kernel(realization: SL2Realization, q: np.ndarray, p: np.ndarray,
               gradient: bool = False):
    """J-, J+, J3 at (q, p) and dJ+/dq, on raw arrays.

    Returns (J-, J+, J3, dJ+/dq).  dJ+/dq_i = -2 b_i / q_i**3 is computed
    only when `gradient` is set; it is the scalar 0.0 when there is no
    barrier (or no gradient was asked for), which broadcasts to the same
    numbers as a zero vector.  The other gradients are plain: dJ-/dq = 2q,
    dJ+/dp = 2p, dJ3/dq = p, dJ3/dp = q, dJ-/dp = 0.  Raises DomainError
    on a guarded coordinate plane; nothing else is validated.
    """
    j_minus = float(q @ q)
    j3 = float(q @ p)
    j_plus = float(p @ p)
    djp_dq = 0.0
    ba = realization.b_active
    if ba is not None:
        qa2 = barrier_squares(realization, q)
        j_plus += float((ba / qa2).sum())
        if gradient:
            djp_dq = realization.spread(-2.0 * ba / realization.at_barriers(q) ** 3)
    return j_minus, j_plus, j3, djp_dq


@dataclass(frozen=True)
class Guard:
    """Named clearance function q -> float; dynamics halts when it dips
    below the guard radius."""

    label: str
    clearance: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian H = h(J-, J+, J3) over a fixed realization.

    `h` maps the three generator values to the energy; `h_partials` returns
    (dh/dxi-, dh/dxi+, dh/dxi3) at the same arguments.  Phase-space gradients
    are assembled by the chain rule, so they are exact whenever the partials
    are.
    """

    name: str
    realization: SL2Realization
    h: Callable[[float, float, float], float]
    h_partials: Callable[[float, float, float], tuple[float, float, float]]
    descriptor: Optional[object] = None
    guards: tuple[Guard, ...] = ()

    @property
    def n(self) -> int:
        return self.realization.n

    def value_qp(self, q: np.ndarray, p: np.ndarray) -> float:
        jm, jp, j3, _ = sl2_kernel(self.realization, q, p)
        return float(self.h(jm, jp, j3))

    def gradient_qp(self, q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dq, dH/dp) by the chain rule through the sl(2) kernel.

        dH/dq = h- * 2q + h+ * dJ+/dq + h3 * p and
        dH/dp = (h- * 0 + h+ * 2p) + h3 * q, summed left to right.  The
        h- * 0 term keeps the signed zeros (and NaNs) that a zero dJ-/dp
        vector would give.
        """
        jm, jp, j3, djp_dq = sl2_kernel(self.realization, q, p, gradient=True)
        hm, hp, h3 = self.h_partials(jm, jp, j3)
        dq = hm * (2.0 * q) + hp * djp_dq + h3 * p
        dp = (hm * 0.0 + hp * (2.0 * p)) + h3 * q
        return dq, dp

    def value(self, x: PhasePoint) -> float:
        self.realization.check_point(x)
        return self.value_qp(x.q, x.p)

    def gradient(self, x: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
        self.realization.check_point(x)
        return self.gradient_qp(x.q, x.p)


@dataclass(frozen=True)
class ConservedQuantity:
    """An observable F(q, p) with its analytic gradient.

    `value_fn(q, p) -> float` and `gradient_fn(q, p) -> (dF/dq, dF/dp)`
    operate on raw arrays; the `value`/`gradient` methods take a PhasePoint.
    """

    name: str
    ndim: int
    value_fn: Callable[[np.ndarray, np.ndarray], float]
    gradient_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    def value(self, x: PhasePoint) -> float:
        self._check(x)
        return float(self.value_fn(x.q, x.p))

    def gradient(self, x: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
        self._check(x)
        return self.gradient_fn(x.q, x.p)

    def _check(self, x: PhasePoint) -> None:
        if x.n != self.ndim:
            raise DimensionMismatch(
                f"{self.name} is defined on {self.ndim} sites, phase point has {x.n}"
            )


def energy_quantity(spec: HamiltonianSpec, name: str = "H") -> ConservedQuantity:
    """Wrap a Hamiltonian as a ConservedQuantity (it conserves itself)."""
    return ConservedQuantity(name, spec.n, spec.value_qp, spec.gradient_qp)
