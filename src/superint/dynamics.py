"""Time integration of Hamilton's equations and orbit-closure detection.

The default method is the 2-stage Gauss-Legendre implicit Runge-Kutta
scheme (order 4).  It is symplectic for arbitrary smooth Hamiltonians,
which matters here because the curved kinetic terms couple q and p, so no
explicit splitting applies.  Stages are solved by fixed-point iteration,
from f(z0) on the first step and later from each stage's own polynomial in
the step index through its converged values at the last SEED_DEGREE + 1
steps (fewer at the start), one step on: a weighted sum of those stages,
newest first.  The stage error is smooth in t, so it cancels: the seed
error is O(h^6), not the stage order O(h^3) of collocation seeds (Hairer,
Lubich & Wanner, GNI, VIII.6.1).  The sweeps run in Gauss-Seidel order:
stage 2's input z + h (a_21 k_1 + a_22 k_2) takes the k_1 just computed in
the same sweep.  On the benchmark's sw and garnier orbits that takes 2.1 to
2.8 sweeps per step where Jacobi order took 2.1 to 3.3 (Kepler-Coulomb: 2.0
either way).  A step stops when the largest stage change d_k is at most
`fixed_point_tol` (1e-13 by default), or from the second sweep on when
theta = d_k / d_{k-1} < 1 and the estimated remaining error
theta / (1 - theta) * d_k is at most `fixed_point_tol` (Hairer & Wanner,
Solving ODEs II, IV.8).  A classical RK4 is provided as a
non-symplectic reference.

A whole run is one generated function per method (`_run_kernel`), compiled
once per N and barrier sites, that takes every step in one frame: at the
small N of an orbit, numpy dispatch would cost more than the arithmetic,
and so would a Python loop over the entries or a call per step.  The state
z = [q, p] is 2N local floats, and each stage is one `spec.gradient_qp` call
on lists, k = [dH/dp, -dH/dq].  GL2 keeps the converged stages of its last
SEED_DEGREE + 1 steps as locals too.  The arithmetic is entry by entry, in
the order of the array expressions z + h (a_i1 k_1 + a_i2 k_2) and
z + (h / 2) (k_1 + k_2) (RK4: z + (h / 6) (((k_1 + 2 k_2) + 2 k_3) + k_4)),
so every number is the same as with separate q and p arrays.  The source
holds only names and entry indices; the Butcher and seed weights are bound
by name.  Only the accepted state is written into the trajectory's array.

Every accepted state is checked in the kernel, on its Python floats: it must
be finite, then stay out of the guard radius of the coordinate-plane
barriers (-R <= q_i <= R on the barrier sites is a halt) and of the spec's
own `Guard`s (origin, chart boundary), functions of the state's J-, summed
left to right as everywhere in the library.  The kernel returns the steps it
took and why it stopped; `integrate` turns a stop into the one exception it
raises.  A stage evaluation off h's domain, or one that divides by zero in
h's partials, is a singular approach; the same guards decide whether a
stage-iteration failure, or a stage evaluation that overflows, counts as
one.  Every stage
evaluation, GL2's first seed f(z0) included, is counted, and the count and
GL2's most sweeps in a step go on the trajectory.

Monitors are evaluated after the run, one `value_fn` call per monitor on
all the states at once; each series is keyed by the monitor's name.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .core import ConservedQuantity, HamiltonianSpec, PhasePoint, compile_kernel, names
from .errors import (DomainError, InsufficientData, NonConvergence, RangeError,
                     SingularApproach)
from .records import Record, setfield

_SQRT3 = math.sqrt(3.0)
# the GL2 Butcher matrix, applied entry by entry as a(i, 1) k1 + a(i, 2) k2
_A11, _A12 = 0.25, 0.25 - _SQRT3 / 6.0
_A21, _A22 = 0.25 + _SQRT3 / 6.0, 0.25
SEED_DEGREE = 5  # its weights sum in |.| to 2^6 - 1 = 63, the round-off gain
# _SEED_WEIGHTS[m - 1] holds the weights (-1)^j C(m, j + 1) on the stages j
# steps back that extrapolate m past steps one step on, padded to
# SEED_DEGREE + 1 with -0.0: x + (-0.0) * 0.0 is x for every x, signed zeros
# and NaNs included, so a padded sum is bitwise the m-term sum.
_SEED_WEIGHTS = tuple(
    tuple(float((-1) ** j * math.comb(m, j + 1)) if j < m else -0.0
          for j in range(SEED_DEGREE + 1))
    for m in range(1, SEED_DEGREE + 2)
)
MAX_FIXED_POINT_ITERS = 100
GUARD_RADIUS = 1e-6
# A stage-iteration failure this close to a guarded set is reported as a
# singular approach (the stiffness is the singularity), not NonConvergence.
APPROACH_HORIZON = 0.1

METHODS = ("gl2", "rk4")


class IntegratorConfig(Record):
    __slots__ = ("method", "step", "fixed_point_tol")

    def __init__(self, method: str = "gl2", step: float = 1e-3, fixed_point_tol: float = 1e-13):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        if not all(0.0 < v < math.inf for v in (step, fixed_point_tol)):
            raise ValueError("step and fixed_point_tol must be finite and positive")
        setfield(self, "method", method)
        setfield(self, "step", step)
        setfield(self, "fixed_point_tol", fixed_point_tol)


class Trajectory(Record):
    """Discrete trajectory with monitor time series and normalized drifts.

    drift[name] = max_t |F(t) - F(0)| / (1 + |F(0)|).  stage_evaluations
    counts the run's evaluations of H's gradient, each at one state (GL2's
    first seed f(z0), and those of a step that halted, included), and
    max_sweeps is the most fixed-point sweeps a GL2 step took (0 for RK4).
    With no `monitors` or `drift` given, each trajectory gets its own empty
    dict.
    """

    __slots__ = ("times", "q", "p", "monitors", "drift", "stage_evaluations", "max_sweeps")

    def __init__(self, times: np.ndarray, q: np.ndarray, p: np.ndarray,
                 monitors: Optional[dict[str, np.ndarray]] = None,
                 drift: Optional[dict[str, float]] = None, stage_evaluations: int = 0,
                 max_sweeps: int = 0):
        setfield(self, "times", times)
        setfield(self, "q", q)
        setfield(self, "p", p)
        setfield(self, "monitors", {} if monitors is None else monitors)
        setfield(self, "drift", {} if drift is None else drift)
        setfield(self, "stage_evaluations", stage_evaluations)
        setfield(self, "max_sweeps", max_sweeps)

    @property
    def n_states(self) -> int:
        return self.times.size


def _stage_call(indent, n, entry, stage):
    """One counted stage evaluation: spec.gradient_qp on the q and p halves
    of the stage input entry(i), unpacked into the stage vector stage0 ...
    stage2N-1 = [dH/dp, -dH/dq]."""
    return [f"{indent}evals += 1",
            f"{indent}dq, dp = grad([{', '.join(map(entry, range(n)))}], "
            f"[{', '.join(map(entry, range(n, 2 * n)))}])",
            f"{indent}{names(stage, range(n))}= dp",
            f"{indent}{names(stage, range(n, 2 * n))}= dq",
            *(f"{indent}{stage}{i} = -{stage}{i}" for i in range(n, 2 * n))]


def _gl2_lines(n, body):
    """GL2's part of the run kernel: (set-up, step, history update) lines,
    the last two at the loop body's indent `body`.

    The step seeds its stages a, b from the history (f(z0) on the first
    step), then sweeps: stage 1 c from a and b, stage 2 e from c and b
    (Gauss-Seidel order).  A sweep's largest stage change d is taken entry
    by entry, stage 1 then stage 2, and a NaN change ends it as NaN
    (Python's max() would keep a NaN only in first place); a NaN d stops
    the sweeps at once, and the step's state is then non-finite.  The
    history holds the converged stages of the last SEED_DEGREE + 1 steps as
    locals u<j>_<i> (stage 1) and v<j>_<i> (stage 2), j steps back, zeros
    at first; the seed weights w0 ... are those of the number of steps in
    it, -0.0 past it."""
    m, rows, inner = range(2 * n), range(SEED_DEGREE + 1), body + "    "
    setup = [
        "    A11, A12, A21, A22 = BUTCHER",
        "    half = 0.5 * h",
        f"    {' = '.join(f'{s}{j}_{i}' for s in 'uv' for j in rows for i in m)} = 0.0",
        "    past = 0  # steps in the history",
    ]
    step = [
        f"{body}if past:",
        *(f"{inner}{a}{i} = {' + '.join(f'w{j} * {s}{j}_{i}' for j in rows)}"
          for a, s in (("a", "u"), ("b", "v")) for i in m),
        f"{body}else:  # the first step seeds both stages with f(z0)",
        *_stage_call(inner, n, lambda i: f"z{i}", "a"),
        *(f"{inner}b{i} = a{i}" for i in m),
        f"{body}d_prev = 0.0  # the contraction test needs two sweeps",
        f"{body}for sweep in SWEEPS:",
        *_stage_call(inner, n, lambda i: f"z{i} + h * (A11 * a{i} + A12 * b{i})", "c"),
        *_stage_call(inner, n, lambda i: f"z{i} + h * (A21 * c{i} + A22 * b{i})", "e"),
        f"{inner}d = nd = 0.0  # the largest change so far, and its negative",
        f"{inner}while True:  # one pass; a NaN change breaks out as d",
    ]
    for new, old in (("c", "a"), ("e", "b")):
        for i in m:
            step += [f"{inner}    x = {new}{i} - {old}{i}",
                     f"{inner}    if not nd <= x <= d:",
                     f"{inner}        if x < 0.0:",
                     f"{inner}            x = -x",
                     f"{inner}        d, nd = x, -x",
                     f"{inner}        if x != x:",
                     f"{inner}            break"]
    step += [
        f"{inner}    break",
        f"{inner}if d <= tol or d != d or (d < d_prev and d * d <= tol * (d_prev - d)):",
        f"{inner}    break",
        f"{inner}d_prev = d",
        *(f"{inner}a{i}, b{i} = c{i}, e{i}" for i in m),
        f"{body}else:",
        f"{inner}return step, NonConvergence(",
        f'{inner}    f"stage fixed point did not reach {{tol:g}} in {{MAX_ITERS}} iterations"',
        f"{inner}), evals, most, jm",
        f"{body}if sweep > most:",
        f"{inner}most = sweep",
        *(f"{body}z{i} = z{i} + half * (c{i} + e{i})" for i in m),
    ]
    tail = [f"{body}{s}{j}_{i} = {s}{j - 1}_{i}" if j else f"{body}{s}0_{i} = {new}{i}"
            for s, new in (("u", "c"), ("v", "e")) for i in m for j in reversed(rows)]
    tail += [f"{body}if past < ROWS:",
             f"{inner}past += 1",
             f"{inner}{names('w', rows)}= WEIGHTS[past - 1]"]
    return setup, step, tail


def _rk4_lines(n, body):
    """RK4's part of the run kernel: z + (h / 6) (((k1 + 2 k2) + 2 k3) + k4)
    entry by entry, from the stages a, b, c, d."""
    m = range(2 * n)
    step = _stage_call(body, n, lambda i: f"z{i}", "a")
    for stage, prev, size in (("b", "a", "half"), ("c", "b", "half"), ("d", "c", "h")):
        step += _stage_call(body, n, lambda i: f"z{i} + {size} * {prev}{i}", stage)
    step += [f"{body}z{i} = z{i} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})"
             for i in m]
    return ["    half, sixth = 0.5 * h, h / 6.0"], step, []


@cache
def _run_kernel(method, n, sites):
    """The whole run of `method` on N sites with barriers at `sites`:
    run(grad, zs, h, tol, guards) -> (steps, halt, evaluations, sweeps, jm).

    zs is the trajectory's array, zs[0] the initial state; grad is
    spec.gradient_qp, one call per stage evaluation on Python lists.  Each
    pass of the loop checks the accepted state z: the barrier clearance as
    -R <= z_i <= R on the barrier sites, then each guard's clearance of J-
    (summed left to right), R the guard radius; then it takes a step, tests
    that the new state is finite and writes it into zs.  `steps` is the
    number of steps done: all of them (halt None), or the one that halted,
    with the reason: the label of what the state at it reached, or the
    exception that ended it (a DomainError, OverflowError or
    ZeroDivisionError of a stage evaluation, or NonConvergence).
    `evaluations` counts the stage evaluations, GL2's first seed and a
    failed one included, `sweeps` is the most sweeps a GL2 step took (0 for
    RK4), and jm is the J- of the last state checked against the guards
    (0.0 without guards), for the approach test of a halt.  Compiled once per
    method, N and barrier sites, unrolled over the entries; the source holds
    only names and entry indices, and the weights are bound by name.
    """
    m, body = range(2 * n), " " * 12
    setup, step, tail = (_gl2_lines if method == "gl2" else _rk4_lines)(n, body)
    lines = [
        "def run(grad, zs, h, tol, guards):",
        f"    {names('z', m)}= zs[0].tolist()",
        "    last, R, NR = len(zs) - 1, RADIUS, -RADIUS",
        "    out, at = memoryview(zs).cast('B').cast('d'), 0  # zs flat, and the state's offset",
        *setup,
        "    step = evals = most = 0",
        "    jm = 0.0",
        "    try:",
        "        while True:",
    ]
    if sites:
        lines += [f"{body}if {' or '.join(f'NR <= z{i} <= R' for i in sites)}:",
                  f"{body}    return step, 'coordinate-plane barrier reached', evals, most, jm"]
    lines += [
        f"{body}if guards:",
        f"{body}    jm = {' + '.join(f'z{i} * z{i}' for i in range(n))}",
        f"{body}    for guard in guards:",
        f"{body}        if guard.clearance(jm) <= R:",
        f"{body}            return step, guard.label + ' reached', evals, most, jm",
        f"{body}if step == last:",
        f"{body}    return step, None, evals, most, jm",
        f"{body}step += 1",
        *step,
        f"{body}if not ({' and '.join(f'-INF < z{i} < INF' for i in m)}):",
        f"{body}    return step, 'state became non-finite', evals, most, jm",
        f"{body}at += {2 * n}",
        *(f"{body}out[at{f' + {i}' if i else ''}] = z{i}" for i in m),
        *tail,
        "    except (DomainError, OverflowError, ZeroDivisionError) as exc:",
        "        return step, exc, evals, most, jm",
    ]
    return compile_kernel(
        lines, "run", f"{method}_run N={n} sites={sites}", RADIUS=GUARD_RADIUS, INF=math.inf,
        BUTCHER=(_A11, _A12, _A21, _A22), WEIGHTS=_SEED_WEIGHTS, ROWS=SEED_DEGREE + 1,
        SWEEPS=range(1, MAX_FIXED_POINT_ITERS + 1), MAX_ITERS=MAX_FIXED_POINT_ITERS,
        NonConvergence=NonConvergence, DomainError=DomainError)


def whole_steps(t_final: float, step: float) -> Optional[int]:
    """t_final / step as a whole number of steps, or None if it is not one.

    A finite ratio within 1e-9 (relative) of an integer counts as that
    integer, so rounding in the division (32.2 / 0.001 =
    32200.000000000004) adds no step past t_final.
    """
    ratio = t_final / step
    if not math.isfinite(ratio):
        return None
    whole = round(ratio)
    return whole if abs(ratio - whole) <= 1e-9 * ratio else None


def integrate(
    spec: HamiltonianSpec,
    x0: PhasePoint,
    t_final: float,
    cfg: IntegratorConfig,
    monitors: Sequence[ConservedQuantity] = (),
) -> Trajectory:
    """Integrate Hamilton's equations qdot = dH/dp, pdot = -dH/dq.

    Runs whole_steps(t_final, step) fixed-size steps (none for t_final = 0)
    and records every accepted state; a t_final that is not a whole number
    of steps is a ValueError, and more steps than the trajectory's array can
    hold a RangeError.  Halts with SingularApproach if a
    guarded singularity comes within the guard radius.  Every halt
    (SingularApproach or NonConvergence) carries the last accepted state as
    `err.state` and the trajectory up to it as `err.trajectory`.
    """
    if not 0.0 <= t_final < math.inf:
        raise ValueError("t_final must be finite and nonnegative")
    n_steps = whole_steps(t_final, cfg.step)
    if n_steps is None:
        raise ValueError(
            f"t_final = {t_final} is not a whole number of steps of {cfg.step}"
        )
    if len({mon.name for mon in monitors}) != len(monitors):
        raise ValueError(f"monitor names must be distinct, got {[m.name for m in monitors]}")
    spec.realization.check_point(x0)
    n, h = x0.n, cfg.step
    try:
        zs = np.empty((n_steps + 1, 2 * n))
    except (MemoryError, ValueError) as exc:
        raise RangeError(f"{n_steps} steps of {cfg.step} are more than can be stored: "
                         f"{exc}") from None
    zs[0, :n], zs[0, n:] = x0.q, x0.p
    realization, guards = spec.realization, spec.guards
    run = _run_kernel(cfg.method, n, realization.sites)
    steps, halt, evaluations, sweeps, jm = run(spec.gradient_qp, zs, h, cfg.fixed_point_tol,
                                               guards)
    if halt is None:
        return _finish(zs, n, h, monitors, evaluations, sweeps)
    t = steps * h
    if isinstance(halt, str):  # the state at t reached a guarded set, or is not finite
        err = SingularApproach(f"{halt} at t = {t:.6g}", time=t)
    elif isinstance(halt, (DomainError, ZeroDivisionError)):  # off h's domain, or 1 / 0 in it
        err = SingularApproach(f"singular evaluation during step to t = {t:.6g}: {halt}",
                               time=(steps - 1) * h)
    else:
        if isinstance(halt, OverflowError):  # h's partials, or a Python ** in them
            halt = NonConvergence(f"stage evaluation overflowed: {halt}")
        # within APPROACH_HORIZON of a guarded set, the stiffness is the singularity
        err = halt
        if min([realization.clearance(zs[steps - 1, :n]), *(g.clearance(jm) for g in guards)]) \
                < APPROACH_HORIZON:
            err = SingularApproach(f"stage iteration broke down near a guarded singularity "
                                   f"at t = {t:.6g}: {halt}", time=(steps - 1) * h)
    if steps:
        err.state = PhasePoint(zs[steps - 1, :n].copy(), zs[steps - 1, n:].copy())
    else:
        err.state = x0
    err.trajectory = _finish(zs[:max(steps, 1)], n, h, monitors, evaluations, sweeps)
    raise err


def _finish(zs, n, h, monitors, evaluations, sweeps) -> Trajectory:
    """Split the stacked states, evaluate each monitor over them in one
    call, and reduce each series to its normalized drift (NaN, with no
    numpy warning, where a monitor overflows on the run's states)."""
    qs = zs[:, :n].copy()
    ps = zs[:, n:].copy()
    times = h * np.arange(qs.shape[0])
    series: dict[str, np.ndarray] = {}
    drift: dict[str, float] = {}
    with np.errstate(all="ignore"):
        for mon in monitors:
            series[mon.name] = vals = mon.value_fn(qs, ps)
            f0 = vals[0]
            drift[mon.name] = float(np.max(np.abs(vals - f0)) / (1.0 + abs(f0)))
    return Trajectory(times, qs, ps, series, drift, evaluations, sweeps)


class ClosureReport(Record):
    """First-return analysis of a trajectory against its initial state."""

    __slots__ = ("period_estimate", "closure_distance", "is_closed")

    def __init__(self, period_estimate: Optional[float], closure_distance: float,
                 is_closed: bool):
        setfield(self, "period_estimate", period_estimate)
        setfield(self, "closure_distance", closure_distance)
        setfield(self, "is_closed", is_closed)


def detect_closure(traj: Trajectory, tol: float) -> ClosureReport:
    """Locate returns to the initial state after an excursion.

    Squared phase distances to the initial state are refined around each
    discrete local minimum by parabolic interpolation, so the reported
    closure distance is not limited by the sampling stride.  The period
    estimate is the time of the first return whose distance is comparable
    to the best one (None when the orbit does not close at `tol`).
    """
    if traj.n_states < 5:
        raise InsufficientData("trajectory too short for closure analysis")
    dq = traj.q - traj.q[0]
    dp = traj.p - traj.p[0]
    d2 = np.einsum("ij,ij->i", dq, dq) + np.einsum("ij,ij->i", dp, dp)
    if not np.isfinite(d2).all():
        raise InsufficientData("trajectory has non-finite states")
    d2max = float(np.max(d2))
    if d2max <= 0.0:
        raise InsufficientData("orbit never leaves the initial state")
    beyond = np.flatnonzero(d2 >= 0.25 * d2max)
    start = int(beyond[0])
    if start >= traj.n_states - 2:
        raise InsufficientData("no samples after the excursion")

    lows = np.flatnonzero((d2[1:-1] <= d2[:-2]) & (d2[1:-1] <= d2[2:])) + 1
    candidates = lows[lows >= max(start, 1)].tolist()
    if d2[-1] < 0.25 * d2max:
        candidates.append(traj.n_states - 1)
    if not candidates:
        raise InsufficientData("no candidate return after the excursion")

    refined = []
    for i in candidates:
        if 0 < i < traj.n_states - 1:
            denom = d2[i + 1] - 2.0 * d2[i] + d2[i - 1]
            if denom > 0.0:
                off = 0.5 * (d2[i - 1] - d2[i + 1]) / denom
                off = float(np.clip(off, -1.0, 1.0))
                t_star = traj.times[i] + off * (traj.times[1] - traj.times[0])
                d2_star = d2[i] - 0.125 * (d2[i + 1] - d2[i - 1]) ** 2 / denom
                refined.append((t_star, max(float(d2_star), 0.0)))
                continue
        refined.append((float(traj.times[i]), float(d2[i])))

    best = min(r[1] for r in refined)
    best_dist = math.sqrt(best)
    is_closed = best_dist <= tol
    period = None
    if is_closed:
        for t_star, d2_star in refined:
            if math.sqrt(d2_star) <= max(2.0 * best_dist, tol):
                period = t_star
                break
    return ClosureReport(period, best_dist, is_closed)
