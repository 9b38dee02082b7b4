"""Phase-space primitives.

The whole library is built on three phase-space functions of N canonical
pairs (q, p),

    J- = sum_i q_i**2
    J+ = sum_i (p_i**2 + b_i / q_i**2)
    J3 = sum_i q_i * p_i,

which close the Poisson brackets {J3, J+} = 2 J+, {J3, J-} = -2 J-,
{J-, J+} = 4 J3.  A Hamiltonian is any smooth function H(J-, J+, J3); its
phase-space gradient is assembled exactly by the chain rule from the three
partials of H and the analytic gradients of the J's.  The partials are not
written by hand: they are derived from h itself, which `tape.derive` runs
once on a recording forward-mode dual, on a spec's first gradient call.

`sl2_kernel` evaluates the three generators and dJ+/dq, the only gradient
that is not q or p times a constant, in one pass over raw arrays; the
barrier sites it needs are found once per `SL2Realization`.
`HamiltonianSpec.gradient_qp` folds the chain rule into two vector
expressions, without building the gradient vectors of the J's.  Values and
the H gradient take one point (N,) or a stack (..., N), bitwise as one call
per point.  Dynamics evaluates each monitor over a whole trajectory in one
call, and a certificate takes H's gradient rows over its whole sample in
one call.

Every sl(2) sum (J-, J3, p.p and the barrier sum) is defined as a left to
right sum over the sites, t_0 + t_1 + ..., and every cube as q * q * q.
Over a stack the kernel runs once, its sums are sequential loops
(`np.add.accumulate`, or the columns added one at a time on tall, narrow
stacks), and only the scalar partials of h run once per point.  At one
point, a GL2 or RK4 stage given as Python lists, numpy dispatch would cost
more than the arithmetic, and so would a Python loop over the sites:
`gradient_qp` runs the same sums, h's taped partials and the chain rule as
straight-line code on Python floats, returns lists, and gets the stacked
call's bits; an (N,) array takes the same path and gets arrays back.  That
kernel's source is generated and compiled once per shape and partials' text,
keyed by N, the barrier sites and the taped lines (`_one_point_gradient`);
the stacked path runs the same lines compiled on their own
(`_partials_function`).  Both hold only names and site indices, and each
spec binds its own b_i, -2 b_i and h's constants to them by name on its
first gradient call, so two specs of one family, space and shape share their
code, and building a spec tapes and compiles nothing.  BLAS dots and
`np.add.reduce` (pairwise from eight terms) are not left to right, and
`x ** 3` rounds differently in numpy and in Python (as does a Python
`x ** 2`; numpy's is x * x), so neither appears on these paths.  Dot
products are `dot`, which unlike `np.vecdot` is analytic in complex points.

The centrifugal terms b_i / q_i**2 make every plane q_i = 0 with b_i != 0
singular, for H and for every integral built on the same realization.
`guard_axes` is the one check of that domain condition, and
`SL2Realization.clearance` is the distance to it that dynamics watches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainError
from .tape import Derivative, derive, overflowed

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

    The barrier sites are found once here: `sites` indexes the sites with
    b_i != 0, `b_active` holds their coefficients (None when there is no
    barrier), and `barriers` holds the same as Python (i, b_i, -2 b_i)
    triples for the one-point kernel of `HamiltonianSpec.gradient_qp` and
    for `clearance`.  The sl(2) kernel and every axis guard read these; `b`
    is stored as a
    read-only copy so they cannot go stale.
    """

    b: np.ndarray
    sites: np.ndarray = field(init=False, repr=False, compare=False)
    b_active: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    barriers: tuple[tuple[int, float, float], ...] = field(init=False, repr=False,
                                                           compare=False)

    def __post_init__(self):
        b = _as_vector(self.b, "b").copy()
        b.flags.writeable = False
        sites = np.flatnonzero(b)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "b_active", b[sites] if sites.size else None)
        object.__setattr__(self, "barriers", tuple(
            (int(i), float(b[i]), -2.0 * float(b[i])) for i in sites))

    @property
    def n(self) -> int:
        return self.b.size

    def at_barriers(self, q: np.ndarray) -> np.ndarray:
        """q[..., sites], by a take: a mask is slower on the gradient path."""
        return q.take(self.sites, axis=-1)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Inverse of at_barriers: (..., N), zero off the barriers."""
        full = np.zeros(values.shape[:-1] + (self.n,))
        full[..., self.sites] = values
        return full

    def clearance(self, q) -> float:
        """min |q_i| over the barrier sites: the distance to the nearest
        barrier plane (inf when there is no barrier).  q is one finite
        point, an (N,) array or a list whose first N entries are q (a
        state [q, p]); the minimum is exact either way."""
        if not self.barriers:
            return np.inf
        return float(min([abs(q[i]) for i, _, _ in self.barriers]))

    def check_point(self, x: PhasePoint) -> None:
        if x.n != self.n:
            raise DimensionMismatch(
                f"realization has {self.n} sites but phase point has {x.n}"
            )
        guard_axes(self, x.q)


# From this many stack rows per site on, adding the columns one at a time
# (one ufunc call per site) beats np.add.accumulate (one inner loop per row).
# On float and complex stacks of 2 to 50 sites the crossover lies at 4 to 32
# rows per site; 16 costs the least over that range.
_COLUMN_SUM_ROWS_PER_SITE = 16


def _left_sum(terms: np.ndarray):
    """terms_0 + terms_1 + ... over the last axis, added left to right from
    the first term (a one-term -0.0 sum stays -0.0), at one point or over a
    stack: np.add.accumulate is a sequential loop, and so is adding the
    columns, which tall, narrow stacks (a trajectory's states) take.  A
    one-term column sum is a view of terms."""
    sites = terms.shape[-1]
    if terms.size < _COLUMN_SUM_ROWS_PER_SITE * sites * sites:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    total = terms[..., 0]
    for j in range(1, sites):
        total = total + terms[..., j]
    return total


def dot(x: np.ndarray, y: np.ndarray):
    """sum_i x_i * y_i over the last axis, by `_left_sum`, so that a stack,
    one point and a Python loop over the sites give the same bits.  x is not
    conjugated, so the dot is analytic in complex points."""
    return _left_sum(x * y)


def guard_axes(realization: SL2Realization, q: np.ndarray) -> None:
    """Raise DomainError if a q_i with b_i != 0 is within AXIS_GUARD_RADIUS
    of its coordinate plane.  q is one point (N,) or a stack (..., N); the
    message names q_i by its index in the realization (and the point's
    index in a stack), so windows and one-axis integrals pass the full
    realization masked to their sites."""
    qa = realization.at_barriers(q)
    bad = np.abs(qa) < AXIS_GUARD_RADIUS
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        i = int(realization.sites[idx[-1]])
        where = f"point {', '.join(map(str, idx[:-1]))}: " if q.ndim > 1 else ""
        raise DomainError(
            f"{where}q_{i + 1} = {float(qa[idx].real)!r} lies on a coordinate plane "
            f"with b_{i + 1} != 0"
        )


# A barrier coordinate with q_i**2 below this may be within the guard
# radius; only then is the exact (and slower) guard_axes test run.
_NEAR_AXIS_SQ = (2.0 * AXIS_GUARD_RADIUS) ** 2


def barrier_squares(realization: SL2Realization, q: np.ndarray,
                    qa: Optional[np.ndarray] = None) -> np.ndarray:
    """q_i**2 on the barrier sites, after the axis guard has passed.

    Callers divide by these, so a point (or any point of a stack) on a
    guarded coordinate plane raises DomainError before any division happens.
    A caller that has already taken qa = realization.at_barriers(q) passes it.
    """
    qa2 = (realization.at_barriers(q) if qa is None else qa) ** 2  # x * x, not pow
    if not np.minimum.reduce(qa2, axis=None).real >= _NEAR_AXIS_SQ:  # or NaN
        guard_axes(realization, q)
    return qa2


def sl2_kernel(realization: SL2Realization, q: np.ndarray, p: np.ndarray,
               gradient: bool = False):
    """J-, J+, J3 at (q, p) and dJ+/dq, on raw arrays.

    Returns (J-, J+, J3, dJ+/dq), the J's of shape (...) for q, p (..., N),
    real or complex.  H is h(J-, J+, J3) and a window Casimir J- J+ - J3^2
    of these.  dJ+/dq_i = -2 b_i / q_i**3 is computed, at real points,
    only when `gradient` is set; it is the scalar 0.0 when there is no
    barrier (or no gradient was asked for), which broadcasts to the same
    numbers as a zero vector.  The other gradients are plain: dJ-/dq = 2q,
    dJ+/dp = 2p, dJ3/dq = p, dJ3/dp = q, dJ-/dp = 0.  J+ is p.p plus the
    barrier sum, both `_left_sum`s, and q_i**3 is (q_i * q_i) * q_i.  The
    value, the axis guard and dJ+/dq share one take of the barrier
    coordinates.  Raises DomainError on a guarded coordinate plane; nothing
    else is validated.
    """
    j_minus = dot(q, q)
    j3 = dot(q, p)
    j_plus = dot(p, p)
    djp_dq = 0.0
    ba = realization.b_active
    if ba is not None:
        qa = realization.at_barriers(q)
        qa2 = barrier_squares(realization, q, qa)
        j_plus += _left_sum(ba / qa2)
        if gradient:
            djp_dq = realization.spread(-2.0 * ba / (qa2 * qa))
    return j_minus, j_plus, j3, djp_dq


@dataclass(frozen=True)
class Guard:
    """Named clearance as a function of J- (a float); dynamics halts when
    it dips below the guard radius."""

    label: str
    clearance: Callable[[float], float]


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian H = h(J-, J+, J3) over a fixed realization.

    `h` maps the three generator values, scalars or equal-shape arrays, to
    the energy, with pure arithmetic (+ - * / and ** by a constant) and its
    domain conditions passed through `tape.Domain`.  Its partials
    (dh/dxi-, dh/dxi+, dh/dxi3) are derived from it, taped on the first
    gradient call (`h_partials`), so phase-space gradients are exact to
    rounding by the chain rule.  An h that cannot be taped is a ConfigError
    at that call.
    """

    name: str
    realization: SL2Realization
    h: Callable[..., float]
    descriptor: Optional[object] = None
    guards: tuple[Guard, ...] = ()

    @property
    def n(self) -> int:
        return self.realization.n

    def value_qp(self, q: np.ndarray, p: np.ndarray):
        jm, jp, j3, _ = sl2_kernel(self.realization, q, p)
        return self.h(jm, jp, j3)

    def gradient_qp(self, q, p):
        """(dH/dq, dH/dp) by the chain rule through the sl(2) kernel.

        dH/dq = (2 h-) * q + h+ * dJ+/dq + h3 * p and
        dH/dp = (h- * 0 + (2 h+) * p) + h3 * q, summed left to right; (2 h) * q
        rounds the same exact product as h * (2 q) unless 2 h overflows.  The
        h- * 0 term keeps the signed zeros (and NaNs) that a zero dJ-/dp
        vector would give.  One point comes as Python lists (a GL2 or RK4
        stage) or as (N,) arrays and goes back the same way; over a stack
        (..., N) the kernel runs once, `h_partials` once per point, and the
        chain rule takes them as (..., 1) columns.  One point runs the same
        sums, the same partials' lines and the same products in Python floats
        (`_gradient_at`): straight-line code compiled once per (N, barrier
        sites, partials' text) and bound to this spec's b_i, -2 b_i and
        constants, so every point's rows are bitwise its own call whichever
        way it comes.
        """
        if isinstance(q, list):
            return self._gradient_at(q, p)
        if q.ndim == 1:
            dq, dp = self._gradient_at(q.tolist(), p.tolist())
            return np.array(dq), np.array(dp)
        jm, jp, j3, djp_dq = sl2_kernel(self.realization, q, p, gradient=True)
        rows = zip(jm.ravel().tolist(), jp.ravel().tolist(), j3.ravel().tolist())
        parts = np.array([self.h_partials(*row) for row in rows])
        hm, hp, h3 = parts.T.reshape(3, *jm.shape, 1)
        dq = (2.0 * hm) * q + hp * djp_dq + h3 * p
        dp = (hm * 0.0 + (2.0 * hp) * p) + h3 * q
        return dq, dp

    @cached_property
    def _derivative(self) -> Derivative:
        try:
            return derive(self.h)
        except TypeError as exc:
            raise ConfigError(f"{self.name}: the partials of h cannot be derived: {exc}") \
                from exc

    @cached_property
    def h_partials(self) -> Callable[[float, float, float], tuple[float, float, float]]:
        """(dh/dxi-, dh/dxi+, dh/dxi3) at one point of Python floats: the
        taped lines, compiled once per text and bound to this spec's
        constants."""
        d = self._derivative
        return _partials_function(d.lines, d.names)(d.values)

    @cached_property
    def _gradient_at(self) -> Callable[[list, list], tuple[list, list]]:
        """gradient_qp at one real point given as lists of N floats, returned
        as lists: the kernel of the realization's shape and h's partials'
        text, bound on the first one-point call to this spec's barrier
        coefficients and constants."""
        barriers, d = self.realization.barriers, self._derivative
        make = _one_point_gradient(self.n, tuple(i for i, _, _ in barriers), d.lines, d.names)
        return make(self.realization, d.values,
                    *(x for _, b, minus_2b in barriers for x in (b, minus_2b)))


def _bind(constants: tuple[str, ...]) -> list[str]:
    """The factory line that unpacks the bound constants, if there are any."""
    return [f"    {''.join(f'{c}, ' for c in constants)}= consts"] if constants else []


@cache
def _partials_function(lines: tuple[str, ...], constants: tuple[str, ...]) -> Callable:
    """Compile, once per text, the factory of `HamiltonianSpec.h_partials`:
    the taped lines as a function of (jm, jp, j3) returning (hm, hp, h3),
    its constants bound by the factory."""
    return compile_kernel(
        ["def make(consts):", *_bind(constants), "    def partials(jm, jp, j3):",
         *(f"        {line}" for line in lines), "        return hm, hp, h3",
         "    return partials"],
        "make", "h_partials", overflowed=overflowed)


@cache
def _one_point_gradient(n: int, sites: tuple[int, ...], lines: tuple[str, ...],
                        constants: tuple[str, ...]) -> Callable:
    """Compile, once per shape (N and the barrier sites) and partials' text,
    the factory of `HamiltonianSpec._gradient_at`.  Its source holds only
    names and site indices: the factory binds the realization (for the
    exact guard), h's constants and each barrier's b_i and -2 b_i as
    arguments.

    The kernel is `sl2_kernel`, h's taped partials and the chain rule of
    `gradient_qp` on Python floats, unrolled over the sites in the same
    order: J-, J3 and p.p are t_0 + t_1 + ... (the stacked sums start from
    the first term, as a sum from -0.0 would), the barrier sum is added to
    p.p as one term, and dJ+/dq_i is -2 b_i / (q_i**2 * q_i) on a barrier
    site, 0.0 (as h+ * 0.0) elsewhere.  A barrier square below _NEAR_AXIS_SQ
    (or NaN) runs the exact guard before any division.  The partials' lines
    are `h_partials`' own, so a stacked row is bitwise its one-point call.
    """
    idx = range(n)

    def left_sum(terms):
        return " + ".join(terms)

    dq = [f"hm2 * q{i} + hp * (m{i} / (s{i} * q{i})) + h3 * p{i}" if i in sites
          else f"hm2 * q{i} + hp0 + h3 * p{i}" for i in idx]
    source = [
        f"def make(realization, consts{''.join(f', b{i}, m{i}' for i in sites)}):",
        *_bind(constants),
        "    def gradient_at(qs, ps):",
        f"        {names('q', idx)}= qs",
        f"        {names('p', idx)}= ps",
        f"        jm = {left_sum(f'q{i} * q{i}' for i in idx)}",
        f"        j3 = {left_sum(f'q{i} * p{i}' for i in idx)}",
        f"        jp = {left_sum(f'p{i} * p{i}' for i in idx)}",
    ]
    if sites:
        source += [f"        s{i} = q{i} * q{i}" for i in sites]
        source += [
            f"        if not ({' and '.join(f's{i} >= NEAR' for i in sites)}):",
            "            guard_axes(realization, np.array(qs))",
            f"        jp += {left_sum(f'b{i} / s{i}' for i in sites)}",
        ]
    source += [
        *(f"        {line}" for line in lines),
        "        hm2, hp2, hm0, hp0 = 2.0 * hm, 2.0 * hp, hm * 0.0, hp * 0.0",
        f"        return [{', '.join(dq)}], "
        f"[{', '.join(f'hm0 + hp2 * p{i} + h3 * q{i}' for i in idx)}]",
        "    return gradient_at",
    ]
    return compile_kernel(source, "make", f"gradient_at N={n} sites={sites}",
                          NEAR=_NEAR_AXIS_SQ, guard_axes=guard_axes, np=np,
                          overflowed=overflowed)


def names(prefix: str, indices) -> str:
    """'x0, x1, ..., ' over the indices: an unpacking target or list items
    in generated source."""
    return "".join(f"{prefix}{i}, " for i in indices)


def compile_kernel(lines: list[str], name: str, label: str, **bound) -> Callable:
    """Run the generated source `lines` with `bound` as its globals and
    return the function it defines as `name`; `label` names the source in
    tracebacks and profiles."""
    exec(compile("\n".join(lines), f"<{label}>", "exec"), bound)
    return bound[name]


@dataclass(frozen=True)
class ConservedQuantity:
    """An observable F(q, p) with its gradient.

    `value_fn(q, p)` maps raw arrays (..., N) to F (...), bitwise as one
    call per point; `gradient_fn(q, p) -> (dF/dq, dF/dp)` is derived from
    the same formula (by the chain rule or `complex_step_gradient`) and takes
    one point or a stack the same way; `value`/`gradient` take a PhasePoint.
    """

    name: str
    ndim: int
    value_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
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


# Im F(x + i h e_j) / h is dF/dx_j to rounding, with no cancellation, for
# analytic F and any h this small (Squire & Trapp, SIAM Review 40, 1998).
COMPLEX_STEP = 1e-100


def complex_step_gradient(value_fn: Callable) -> Callable:
    """The gradient_fn of an analytic value_fn, at a point (N,) or a stack
    (..., N): one value_fn call on the probes q + i h e_j and p + i h e_j,
    stacked as (..., 2N, N).  A domain error is raised again from the real
    input, so that it names the input's point, not a probe's."""

    def gradient(q, p):
        n = q.shape[-1]
        step = np.eye(2 * n) * (1j * COMPLEX_STEP)
        try:
            f = value_fn(q[..., None, :] + step[:, :n], p[..., None, :] + step[:, n:])
        except DomainError:
            value_fn(q, p)
            raise
        g = f.imag / COMPLEX_STEP
        return g[..., :n], g[..., n:]

    return gradient


def energy_quantity(spec: HamiltonianSpec, name: str = "H") -> ConservedQuantity:
    """Wrap a Hamiltonian as a ConservedQuantity (it conserves itself)."""
    return ConservedQuantity(name, spec.n, spec.value_qp, spec.gradient_qp)
