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

Every sl(2) sum (J-, J3, p.p and the barrier sum of the b_i / q_i**2) is a
left to right sum over the sites, t_0 + t_1 + ..., and every cube is
q * q * q.  One generator writes these sums (`_sl2_lines`): straight-line
code unrolled over the sites, run either on Python floats or on numpy
columns q[..., i], real or complex, with the same lines in both modes but
the near-axis guard test.  Each elementwise numpy add, multiply and divide
of real numbers rounds as the Python float operation does, so a stacked row
is bitwise its one-point evaluation.  A pass may stop at any site and keep its partial
sums there, as the window Casimirs of `integrals` take them.

On Python floats the lines open `HamiltonianSpec._gradient_at`, which goes
on with h's taped partials and the chain rule: at one point, a GL2 or RK4
stage given as lists, numpy dispatch would cost more than the arithmetic,
and a stack of points runs the same kernel row by row.  On columns they
make `column_sums`, which gives H's value, the window Casimirs and the
extra integrals' dots and barrier squares at a point, over a stack or over
the complex-step probes of `complex_step_gradient`.  Each kernel is compiled
once per shape (N, the barrier sites, the windows and the sums asked for,
and for H's gradient the text of h's partials).  Its source holds only
names and site indices; each caller binds its own b_i, -2 b_i and h's
constants by name, so specs and window sets of one shape share their code,
and building a spec compiles nothing.  BLAS dots, `np.add.reduce` (pairwise
from eight terms) and the builtin `sum` (compensated from Python 3.12) do
not add left to right, and `x ** 3` rounds differently in numpy and in
Python (as does a Python `x ** 2`; numpy's is x * x), so none of them
appears on these paths.

The centrifugal terms b_i / q_i**2 make every plane q_i = 0 with b_i != 0
singular, for H and for every integral built on the same realization.
`guard_axes` is the one check of that domain condition, which every kernel
runs before it divides, and `SL2Realization.clearance` is the distance to
it that dynamics watches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainError
from .records import Record, setfield
from .tape import derive, overflowed

# Below this |q_i| (with b_i != 0) the centrifugal term is treated as singular.
AXIS_GUARD_RADIUS = 1e-10


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d real vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


class PhasePoint(Record):
    """Canonical state (q, p) with q.len == p.len == N."""

    __slots__ = ("q", "p")

    def __init__(self, q: np.ndarray, p: np.ndarray):
        q, p = _as_vector(q, "q"), _as_vector(p, "p")
        if q.shape != p.shape:
            raise DimensionMismatch(
                f"q and p must have equal length, got {q.size} and {p.size}"
            )
        if q.size < 1:
            raise DimensionMismatch("phase point needs at least one canonical pair")
        setfield(self, "q", q)
        setfield(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size


class SL2Realization(Record):
    """Centrifugal coefficients b = (b_1 ... b_N) of the realization.

    `b` is stored as a read-only copy, and its barrier sites are found once:
    `sites` holds the indices i with b_i != 0, and `barriers` the same as
    (i, b_i, -2 b_i) triples of Python floats, which the kernels bind by
    name.  Every axis guard and `clearance` read these, so they cannot go
    stale.
    """

    __slots__ = ("b", "sites", "barriers")
    hidden = ("sites", "barriers")

    def __init__(self, b: np.ndarray):
        b = _as_vector(b, "b").copy()
        b.flags.writeable = False
        barriers = tuple((int(i), float(b[i]), -2.0 * float(b[i])) for i in np.flatnonzero(b))
        setfield(self, "b", b)
        setfield(self, "barriers", barriers)
        setfield(self, "sites", tuple(i for i, _, _ in barriers))

    @property
    def n(self) -> int:
        return self.b.size

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
        guard_axes(self.sites, x.q)


def guard_axes(sites: tuple[int, ...], q) -> None:
    """Raise DomainError if a q_i on one of the barrier `sites` (b_i != 0)
    is within AXIS_GUARD_RADIUS of its coordinate plane.  q is one point
    (an (N,) array or a list) or a stack (..., N); the message names q_i by
    its index among all N sites (and the point's index in a stack)."""
    q = np.asarray(q)
    qa = q.take(sites, axis=-1)
    bad = np.abs(qa) < AXIS_GUARD_RADIUS
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        i = sites[idx[-1]]
        where = f"point {', '.join(map(str, idx[:-1]))}: " if q.ndim > 1 else ""
        raise DomainError(
            f"{where}q_{i + 1} = {float(qa[idx].real)!r} lies on a coordinate plane "
            f"with b_{i + 1} != 0"
        )


# A barrier coordinate with q_i**2 below this may be within the guard
# radius; only then is the exact (and slower) guard_axes test run.
_NEAR_AXIS_SQ = (2.0 * AXIS_GUARD_RADIUS) ** 2
# The term of each sl(2) sum at site i: J-, J3, p.p and the barrier sum.
_TERMS = {"jm": "q{i} * q{i}", "j3": "q{i} * p{i}", "pp": "p{i} * p{i}", "bs": "b{i} / s{i}"}


def _sl2_lines(column: bool, n: int, sites: tuple[int, ...], windows: tuple,
               sums: tuple[str, ...]) -> tuple[list[str], dict]:
    """The one text of the sl(2) sums: lines of a function of (qs, ps),
    lists of N floats or arrays (..., N) as `column` says, that leave each
    of `sums` (jm, j3, pp, the barrier sum bs, jp = pp + bs) of each window
    (lo, hi), sites lo..hi-1, in a local; returns the lines and
    name[window, sum] ("0.0" for a barrier sum without terms).

    The squares s_i = q_i * q_i of the barrier `sites` (b_i bound as b<i>)
    come first; if one is below _NEAR_AXIS_SQ or NaN, guard_axes runs
    before any division.  That test, of each float or of the columns' least
    real part, is the one line that differs by mode.  Each sum is then
    t_lo + t_lo+1 + ...; windows with one first site share a pass and take
    its partial sums, and a term several windows read is computed once.
    """
    used = sorted({i for lo, hi in windows for i in range(lo, hi)})
    if column:
        lines = [f"{names(x, used)}= {', '.join(f'{x}s[..., {i}]' for i in used)}," for x in "qp"]
    else:
        lines = [f"{names(x, range(n))}= {x}s" for x in "qp"]
    lines += [f"s{i} = q{i} * q{i}" for i in sites]
    if sites:
        test = (f"MIN(({names('s', sites)}), axis=None).real >= NEAR" if column
                else " and ".join(f"s{i} >= NEAR" for i in sites))
        lines += [f"if not ({test}):", f"    guard_axes({sites}, qs)"]
    kinds = [s for s in _TERMS if s in sums or "jp" in sums and s in ("pp", "bs")]
    shared = len(windows) > 1
    term = {(s, i): f"s{i}" if s == "jm" and i in sites else _TERMS[s].format(i=i)
            for s in kinds for i in used if s != "bs" or i in sites}
    if shared:
        lines += [f"{s}_{i} = {text}" for (s, i), text in term.items()]
        term = {(s, i): f"{s}_{i}" for s, i in term}
    name = {}
    for first in sorted({lo for lo, _ in windows}):
        partial, start = {}, first
        for hi in sorted(hi for lo, hi in windows if lo == first):
            suffix = f"_{first}_{hi}" if shared else ""
            for s in kinds:
                new = [term[s, i] for i in range(start, hi) if (s, i) in term]
                if new:
                    new = [partial[s], *new] if s in partial else new
                    lines.append(f"{s}{suffix} = {' + '.join(new)}")
                    partial[s] = s + suffix
                name[(first, hi), s] = partial.get(s, "0.0")
            if "jp" in sums:
                bs = f" + {partial['bs']}" if "bs" in partial else ""
                lines.append(f"jp{suffix} = {partial['pp']}{bs}")
                name[(first, hi), "jp"] = "jp" + suffix
            start = hi
    return lines, name


@cache
def _sums_kernel(column: bool, n: int, sites: tuple[int, ...], windows: tuple,
                 sums: tuple[str, ...]) -> Callable:
    """Compile, once per mode and shape, the factory of a `column_sums`
    kernel: make(b<i>, ...) -> sums(qs, ps), which returns the list of
    each window's `sums` and the tuple of the barrier squares."""
    lines, name = _sl2_lines(column, n, sites, windows, sums)
    rows = ", ".join(f"({''.join(f'{name[w, s]}, ' for s in sums)})" for w in windows)
    source = [f"def make({names('b', sites)}):", "    def sums(qs, ps):",
              *(f"        {line}" for line in lines),
              f"        return [{rows}], ({names('s', sites)})",
              "    return sums"]
    return compile_kernel(source, "make", f"sl2_sums N={n} sites={sites} windows={windows}",
                          NEAR=_NEAR_AXIS_SQ, MIN=np.minimum.reduce, guard_axes=guard_axes)


def column_sums(n: int, barriers, windows, sums) -> Callable:
    """sums(q, p) -> ([each window's `sums`], barrier squares) on the numpy
    columns of q, p (N,) or (..., N), real or complex: `_sl2_lines` compiled
    once per shape and bound to `barriers`, (i, b_i, ...) tuples, less those
    no window reads.  The squares are in site order; a guarded coordinate
    plane of those sites raises DomainError."""
    windows = tuple(windows)
    kept = [(i, b) for i, b, *_ in barriers if any(lo <= i < hi for lo, hi in windows)]
    make = _sums_kernel(True, n, tuple(i for i, _ in kept), windows, tuple(sums))
    return make(*(b for _, b in kept))


class Guard(Record):
    """Named clearance as a function of J- (a float); dynamics halts when
    it dips below the guard radius."""

    __slots__ = ("label", "clearance")

    def __init__(self, label: str, clearance: Callable[[float], float]):
        setfield(self, "label", label)
        setfield(self, "clearance", clearance)


class HamiltonianSpec(Record):
    """A Hamiltonian H = h(J-, J+, J3) over a fixed realization.

    `h` maps the three generator values, scalars or equal-shape arrays, to
    the energy, with pure arithmetic (+ - * / and ** by a constant) and its
    domain conditions passed through `tape.Domain`.  Its partials
    (dh/dxi-, dh/dxi+, dh/dxi3) are derived from it, taped on the first
    gradient call, so phase-space gradients are exact to rounding by the
    chain rule.  An h that cannot be taped is a ConfigError at that call.
    The kernel bound to them is the cached `_gradient_at`, which the
    instance `__dict__` holds.
    """

    __slots__ = ("name", "realization", "h", "descriptor", "guards", "__dict__")

    def __init__(self, name: str, realization: SL2Realization, h: Callable[..., float],
                 descriptor: Optional[object] = None, guards: tuple[Guard, ...] = ()):
        setfield(self, "name", name)
        setfield(self, "realization", realization)
        setfield(self, "h", h)
        setfield(self, "descriptor", descriptor)
        setfield(self, "guards", guards)

    @property
    def n(self) -> int:
        return self.realization.n

    def value_qp(self, q: np.ndarray, p: np.ndarray):
        """H at a point (N,) or over a stack (..., N): h of the J columns as
        arrays, 0-d at a point, whose ** rounds as a stack's (a numpy
        scalar's rounds as libm's pow)."""
        sums = column_sums(self.n, self.realization.barriers, [(0, self.n)], ("jm", "jp", "j3"))
        ((jm, jp, j3),), _ = sums(q, p)
        return self.h(np.asarray(jm), np.asarray(jp), np.asarray(j3))

    def gradient_qp(self, q, p):
        """(dH/dq, dH/dp) by the chain rule through the sl(2) sums.

        dH/dq = (2 h-) * q + h+ * dJ+/dq + h3 * p and
        dH/dp = (h- * 0 + (2 h+) * p) + h3 * q, summed left to right; (2 h) * q
        rounds the same exact product as h * (2 q) unless 2 h overflows.  The
        h- * 0 term keeps the signed zeros (and NaNs) that a zero dJ-/dp
        vector would give.  One point comes as Python lists (a GL2 or RK4
        stage) and goes back the same way.  An array, one point (N,) or a
        stack (..., N), runs `_gradient_at` on each point, so a stacked row
        is its own call bit for bit; a stacked point on a barrier plane, or
        one where h's partials overflow, is named in the DomainError.
        """
        if isinstance(q, list):
            return self._gradient_at(q, p)
        at, n, rows = self._gradient_at, self.n, []
        try:
            for row in zip(q.reshape(-1, n).tolist(), p.reshape(-1, n).tolist()):
                rows.append(at(*row))
        except DomainError:
            guard_axes(self.realization.sites, q)  # names the first stacked point on a plane
            raise
        except OverflowError as exc:  # h's partials at the point after the rows done
            where = ", ".join(map(str, np.unravel_index(len(rows), q.shape[:-1])))
            raise DomainError(f"point {where}: {exc}" if where else str(exc)) from None
        rows = np.array(rows).reshape(-1, 2, n)
        return rows[:, 0].reshape(q.shape), rows[:, 1].reshape(p.shape)

    @cached_property
    def _gradient_at(self) -> Callable[[list, list], tuple[list, list]]:
        """gradient_qp at one real point given as lists of N floats, returned
        as lists: the kernel of the realization's shape and h's partials'
        text, bound to this spec's b_i, -2 b_i and constants."""
        try:
            d = derive(self.h)
        except TypeError as exc:
            raise ConfigError(f"{self.name}: the partials of h cannot be derived: {exc}") \
                from exc
        barriers = self.realization.barriers
        make = _one_point_gradient(self.n, self.realization.sites, d.lines, d.names)
        return make(d.values, *(x for _, b, minus_2b in barriers for x in (b, minus_2b)))


@cache
def _one_point_gradient(n: int, sites: tuple[int, ...], lines: tuple[str, ...],
                        constants: tuple[str, ...]) -> Callable:
    """Compile, once per shape (N and the barrier sites) and partials' text,
    the factory of `HamiltonianSpec._gradient_at`.  Its source holds only
    names and site indices: the factory binds h's constants and each
    barrier's b_i and -2 b_i as arguments.

    The kernel is `_sl2_lines` on Python floats for J-, J3 and J+ over all
    sites, h's taped partials, and the chain rule of `gradient_qp`, unrolled
    over the sites: dJ+/dq_i is -2 b_i / (q_i**2 * q_i) on a barrier site,
    0.0 (as h+ * 0.0) elsewhere.
    """
    idx = range(n)
    sums, _ = _sl2_lines(False, n, sites, ((0, n),), ("jm", "j3", "jp"))
    dq = [f"hm2 * q{i} + hp * (m{i} / (s{i} * q{i})) + h3 * p{i}" if i in sites
          else f"hm2 * q{i} + hp0 + h3 * p{i}" for i in idx]
    source = [
        f"def make(consts{''.join(f', b{i}, m{i}' for i in sites)}):",
        *([f"    {names('', constants)}= consts"] if constants else []),
        "    def gradient_at(qs, ps):",
        *(f"        {line}" for line in (*sums, *lines)),
        "        hm2, hp2, hm0, hp0 = 2.0 * hm, 2.0 * hp, hm * 0.0, hp * 0.0",
        f"        return [{', '.join(dq)}], "
        f"[{', '.join(f'hm0 + hp2 * p{i} + h3 * q{i}' for i in idx)}]",
        "    return gradient_at",
    ]
    return compile_kernel(source, "make", f"gradient_at N={n} sites={sites}",
                          NEAR=_NEAR_AXIS_SQ, guard_axes=guard_axes, overflowed=overflowed)


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
