"""Time integration of Hamilton's equations and orbit-closure detection.

The default method is the 2-stage Gauss-Legendre implicit Runge-Kutta
scheme (order 4).  It is symplectic for arbitrary smooth Hamiltonians,
which matters here because the curved kinetic terms couple q and p, so no
explicit splitting applies.  Stages are solved by fixed-point iteration,
from f(z0) on the first step and later from each stage's own polynomial in
the step index through its converged values at the last SEED_DEGREE + 1
steps (fewer at the start), one step on: a weighted sum, newest first,
over the list of those stages.  The stage error is smooth in t, so it
cancels: the seed error is O(h^6), not the stage order O(h^3) of
collocation seeds (Hairer, Lubich & Wanner, GNI, VIII.6.1).
A step stops when the largest stage change d_k is at most
`fixed_point_tol` (1e-13 by default), or from the second sweep on when
theta = d_k / d_{k-1} < 1 and the estimated remaining error
theta / (1 - theta) * d_k is at most `fixed_point_tol` (Hairer & Wanner,
Solving ODEs II, IV.8).  A classical RK4 is provided as a
non-symplectic reference.

Both steppers work on one state z = [q, p], a Python list of 2N floats,
with stage vectors k = [dH/dp, -dH/dq] from one `spec.gradient_qp` call
each on lists.  At the small N of an orbit, numpy dispatch would cost more
than the arithmetic, so only the accepted state is written into the
trajectory's array.  The arithmetic is entry by entry, in the order of the
array expressions z + h (a_i1 k_1 + a_i2 k_2) and z + (h / 2) (k_1 + k_2)
(RK4: z + (h / 6) (((k_1 + 2 k_2) + 2 k_3) + k_4)), so every number is the
same as with separate q and p arrays.  A Python loop over the entries would
cost more than the arithmetic too: the GL2 step, the stage seeds and the
RK4 step are straight-line code, generated and compiled once per N
(`_gl2_kernel`, `_seeds_kernel`, `_rk4_kernel`).  Their source holds only
names and entry indices; the Butcher and seed weights are bound by name.

Every accepted state is checked on its Python floats: the coordinate-plane
barrier (`SL2Realization.clearance`) first, then the spec's own `Guard`s
(origin, chart boundary), functions of the state's J-, summed left to right
as everywhere in the library (`_jm_kernel`, compiled once per N).  The same
guards decide whether a stage-iteration failure, or a stage evaluation that
overflows, counts as a singular approach.  Every stage evaluation, GL2's
first seed f(z0) included, runs inside its step's halt handling.

Monitors are evaluated after the run, one `value_fn` call per monitor on
all the states at once; each series is keyed by the monitor's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .core import ConservedQuantity, HamiltonianSpec, PhasePoint, compile_kernel, names
from .errors import (DomainError, InsufficientData, NonConvergence, RangeError,
                     SingularApproach)

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


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "gl2"
    step: float = 1e-3
    fixed_point_tol: float = 1e-13

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not all(0.0 < v < math.inf for v in (self.step, self.fixed_point_tol)):
            raise ValueError("step and fixed_point_tol must be finite and positive")


@dataclass(frozen=True)
class Trajectory:
    """Discrete trajectory with monitor time series and normalized drifts.

    drift[name] = max_t |F(t) - F(0)| / (1 + |F(0)|).
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    monitors: dict[str, np.ndarray] = field(default_factory=dict)
    drift: dict[str, float] = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return self.times.size


def _stage_lines(indent, name, n):
    """Unpack one gradient_qp result (dq, dp) into the stage vector
    name_0 ... name_2N-1 = [dH/dp, -dH/dq]."""
    return [f"{indent}{names(name, range(n))}= dp",
            f"{indent}{names(name, range(n, 2 * n))}= dq",
            *(f"{indent}{name}{i} = -{name}{i}" for i in range(n, 2 * n))]


def _stage_call(indent, n, entry):
    """gradient_qp on the q and p halves of the stage input entry(i)."""
    return (f"{indent}dq, dp = grad([{', '.join(map(entry, range(n)))}], "
            f"[{', '.join(map(entry, range(n, 2 * n)))}])")


@cache
def _gl2_kernel(n):
    """One GL2 step of the state z = [q, p], a list of 2N floats, from the
    stage seeds k1, k2 (lists of 2N floats): gl2_step(grad, z, h, k1, k2,
    tol) with grad = spec.gradient_qp, one call per stage.

    Returns the new state and the converged stages.  Each sweep evaluates
    both stages from the previous sweep's values.  Its largest stage change
    d is taken entry by entry, stage 1 then stage 2, and a NaN change ends
    it as NaN (Python's max() would keep a NaN only in first place); a NaN d
    ends the iteration at once: the step is then non-finite and integrate
    halts on it, as it does for RK4.  Compiled once per N, unrolled over the
    entries; the Butcher weights are bound by name.
    """
    m = range(2 * n)
    lines = [
        "def gl2_step(grad, z, h, k1, k2, tol):",
        f"    {names('z', m)}= z",
        f"    {names('a', m)}= k1",
        f"    {names('b', m)}= k2",
        "    d_prev = 0.0  # the contraction test needs two sweeps",
        "    for _ in range(MAX_ITERS):",
        _stage_call("        ", n, lambda i: f"z{i} + h * (A11 * a{i} + A12 * b{i})"),
        *_stage_lines("        ", "c", n),
        _stage_call("        ", n, lambda i: f"z{i} + h * (A21 * a{i} + A22 * b{i})"),
        *_stage_lines("        ", "e", n),
        "        d = 0.0",
        "        while True:  # one pass; a NaN change breaks out as d",
    ]
    for new, old in (("c", "a"), ("e", "b")):
        for i in m:
            lines += [f"            x = abs({new}{i} - {old}{i})",
                      "            if not x <= d:",
                      "                d = x",
                      "                if x != x:",
                      "                    break"]
    lines += [
        "            break",
        "        if d <= tol or d != d or (d < d_prev and d * d <= tol * (d_prev - d)):",
        "            half = 0.5 * h",
        f"            return ([{', '.join(f'z{i} + half * (c{i} + e{i})' for i in m)}], "
        f"([{names('c', m)}], [{names('e', m)}]))",
        "        d_prev = d",
        *(f"        a{i}, b{i} = c{i}, e{i}" for i in m),
        "    raise NonConvergence(",
        '        f"stage fixed point did not reach {tol:g} in {MAX_ITERS} iterations"',
        "    )",
    ]
    return compile_kernel(lines, "gl2_step", f"gl2_step N={n}",
                          A11=_A11, A12=_A12, A21=_A21, A22=_A22,
                          MAX_ITERS=MAX_FIXED_POINT_ITERS, NonConvergence=NonConvergence)


@cache
def _seeds_kernel(n):
    """stage_seeds(past): each stage's polynomial in the step index through
    its values at the newest m = min(len(past), SEED_DEGREE + 1) steps, one
    step on.  past holds the (k1, k2) stage pairs of the past steps, newest
    first; the seed is w_0 s_0 + w_1 s_1 + ..., summed left to right, with
    weight (-1)^j C(m, j + 1) on the stage s_j of j steps back.  With
    m <= SEED_DEGREE the sum runs on over zero stages at the padding weight
    -0.0.  Compiled once per N, unrolled over the entries; the weights are
    bound by name."""
    rows = range(SEED_DEGREE + 1)

    def seed(stage, i):
        return " + ".join(f"w{j} * {stage}{j}[{i}]" for j in rows)

    lines = [
        "def stage_seeds(past):",
        f"    {names('w', rows)}= WEIGHTS[min(len(past), ROWS) - 1]",
        "    rows = past[:ROWS]",
        "    if len(rows) < ROWS:",
        "        rows = [*rows, *[(ZERO, ZERO)] * (ROWS - len(rows))]",
        f"    {''.join(f'(r{j}, s{j}), ' for j in rows)}= rows",
        f"    return ([{', '.join(seed('r', i) for i in range(2 * n))}], "
        f"[{', '.join(seed('s', i) for i in range(2 * n))}])",
    ]
    return compile_kernel(lines, "stage_seeds", f"stage_seeds N={n}", WEIGHTS=_SEED_WEIGHTS,
                          ROWS=SEED_DEGREE + 1, ZERO=(0.0,) * (2 * n))


@cache
def _jm_kernel(n):
    """J- of the state z = [q, p], a list of 2N floats: z0 * z0 + z1 * z1
    + ..., left to right over its first N entries, as every J- of the
    library is summed.  Compiled once per N."""
    return compile_kernel(
        ["def square_sum(z):",
         f"    return {' + '.join(f'z[{i}] * z[{i}]' for i in range(n))}"],
        "square_sum", f"square_sum N={n}")


@cache
def _rk4_kernel(n):
    """One classical RK4 step of the state z = [q, p], a list of 2N floats:
    rk4_step(grad, z, h) with grad = spec.gradient_qp, one call per stage,
    z + (h / 6) (((k_1 + 2 k_2) + 2 k_3) + k_4) entry by entry.  Compiled
    once per N, unrolled over the entries."""
    m = range(2 * n)
    lines = [
        "def rk4_step(grad, z, h):",
        f"    {names('z', m)}= z",
        "    half = 0.5 * h",
        _stage_call("    ", n, lambda i: f"z{i}"),
        *_stage_lines("    ", "a", n),
    ]
    for stage, prev, step in (("b", "a", "half"), ("c", "b", "half"), ("d", "c", "h")):
        lines += [_stage_call("    ", n, lambda i: f"z{i} + {step} * {prev}{i}"),
                  *_stage_lines("    ", stage, n)]
    lines += [
        "    sixth = h / 6.0",
        f"    return [{', '.join(f'z{i} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})' for i in m)}]",
    ]
    return compile_kernel(lines, "rk4_step", f"rk4_step N={n}")


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
    z = zs[0].tolist()
    barrier, guards, square_sum = spec.realization.clearance, spec.guards, _jm_kernel(n)

    def check_guards(z, t, last=None):
        """Halt if the state z (a list) is within the guard radius of a
        guarded set: the barrier clearance, exact on z's Python floats, then
        the spec's guards on its J-."""
        if barrier(z) <= GUARD_RADIUS:
            raise SingularApproach(f"coordinate-plane barrier reached at t = {t:.6g}",
                                   time=t, state=last)
        if guards:
            jm = square_sum(z)
            for guard in guards:
                if guard.clearance(jm) <= GUARD_RADIUS:
                    raise SingularApproach(f"{guard.label} reached at t = {t:.6g}",
                                           time=t, state=last)

    def stalled(exc, step_idx):
        """exc, or a SingularApproach if the last accepted state z is within
        APPROACH_HORIZON of a guarded set: the stiffness is the singularity."""
        jm = square_sum(z)
        if min([barrier(z), *(g.clearance(jm) for g in guards)]) >= APPROACH_HORIZON:
            return exc
        return SingularApproach(
            f"stage iteration broke down near a guarded singularity "
            f"at t = {step_idx * h:.6g}: {exc}",
            time=(step_idx - 1) * h,
        )

    try:
        check_guards(z, 0.0, x0)
    except SingularApproach as err:
        err.trajectory = _finish(zs[:1], n, h, monitors)
        raise
    gradient_qp = spec.gradient_qp
    gl2 = cfg.method == "gl2"
    if gl2:
        gl2_step, stage_seeds, tol = _gl2_kernel(n), _seeds_kernel(n), cfg.fixed_point_tol
    else:
        rk4_step = _rk4_kernel(n)
    history = []  # GL2's converged stages of the last SEED_DEGREE + 1 steps, newest first

    for step_idx in range(1, n_steps + 1):
        t = step_idx * h
        try:
            try:
                if not gl2:
                    z = rk4_step(gradient_qp, z, h)
                else:
                    if history:
                        k1, k2 = stage_seeds(history)
                    else:  # the first step seeds both stages with f(z0)
                        dq, dp = gradient_qp(z[:n], z[n:])
                        k1 = k2 = dp + [-x for x in dq]
                    z, stages = gl2_step(gradient_qp, z, h, k1, k2, tol)
                    history = [stages, *history[:SEED_DEGREE]]
            except DomainError as exc:
                raise SingularApproach(
                    f"singular evaluation during step to t = {t:.6g}: {exc}",
                    time=(step_idx - 1) * h,
                )
            except OverflowError as exc:  # h's partials, or a Python ** in them
                raise stalled(NonConvergence(f"stage evaluation overflowed: {exc}"),
                              step_idx) from exc
            except NonConvergence as exc:
                raise stalled(exc, step_idx)
            if not all(map(math.isfinite, z)):
                raise SingularApproach(f"state became non-finite at t = {t:.6g}", time=t)
            zs[step_idx] = z
            check_guards(z, t)
        except (SingularApproach, NonConvergence) as err:
            err.state = PhasePoint(zs[step_idx - 1, :n].copy(), zs[step_idx - 1, n:].copy())
            err.trajectory = _finish(zs[:step_idx], n, h, monitors)
            raise
    return _finish(zs, n, h, monitors)


def _finish(zs, n, h, monitors) -> Trajectory:
    """Split the stacked states, evaluate each monitor over them in one
    call, and reduce each series to its normalized drift."""
    qs = zs[:, :n].copy()
    ps = zs[:, n:].copy()
    times = h * np.arange(qs.shape[0])
    series: dict[str, np.ndarray] = {}
    drift: dict[str, float] = {}
    for mon in monitors:
        series[mon.name] = vals = mon.value_fn(qs, ps)
        f0 = vals[0]
        drift[mon.name] = float(np.max(np.abs(vals - f0)) / (1.0 + abs(f0)))
    return Trajectory(times, qs, ps, series, drift)


@dataclass(frozen=True)
class ClosureReport:
    """First-return analysis of a trajectory against its initial state."""

    period_estimate: Optional[float]
    closure_distance: float
    is_closed: bool


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
