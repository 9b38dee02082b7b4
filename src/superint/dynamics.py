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
same as with separate q and p arrays.

Every accepted state is checked against one tuple of `Guard`s: the
coordinate-plane barrier (`SL2Realization.clearance`) first, then the
spec's own guards (origin, chart boundary).  The same tuple decides whether
a stage-iteration failure counts as a singular approach.

Monitors are evaluated after the run, one `value_fn` call per monitor on
all the states at once; each series is keyed by the monitor's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import sub
from typing import Optional, Sequence

import numpy as np

from .core import ConservedQuantity, Guard, HamiltonianSpec, PhasePoint
from .errors import DomainError, InsufficientData, NonConvergence, SingularApproach

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


def _gl2_step(f, z, h, k1, k2, tol):
    """One GL2 step of the state z = [q, p], a list of 2N floats, from the
    stage seeds k1, k2 (lists of 2N floats).

    Returns the new state and the converged stages.  A NaN in either stage
    ends the iteration at once: the step is then non-finite and integrate
    halts on it, as it does for RK4.
    """
    d_prev = 0.0  # the contraction test needs two sweeps
    for _ in range(MAX_FIXED_POINT_ITERS):
        new1 = f([zi + h * (_A11 * a + _A12 * b) for zi, a, b in zip(z, k1, k2)])
        new2 = f([zi + h * (_A21 * a + _A22 * b) for zi, a, b in zip(z, k1, k2)])
        # the largest stage change; a NaN from any site ends it as NaN
        # (Python's max() would keep a NaN only in first place)
        d = 0.0
        for x in map(abs, map(sub, new1 + new2, k1 + k2)):
            if not x <= d:
                d = x
                if x != x:
                    break
        k1, k2 = new1, new2
        if d <= tol or d != d or (d < d_prev and d * d <= tol * (d_prev - d)):
            half = 0.5 * h
            return [zi + half * (a + b) for zi, a, b in zip(z, k1, k2)], (k1, k2)
        d_prev = d
    raise NonConvergence(
        f"stage fixed point did not reach {tol:g} in {MAX_FIXED_POINT_ITERS} iterations"
    )


def _stage_seeds(past):
    """Each stage's polynomial in the step index through its values at the
    newest m = min(len(past), SEED_DEGREE + 1) steps, one step on.  past
    holds the (k1, k2) stage pairs of the past steps, newest first; the seed
    is w_0 s_0 + w_1 s_1 + ..., summed left to right, with weight
    (-1)^j C(m, j + 1) on the stage s_j of j steps back.  With m <= SEED_DEGREE
    the sum runs on over zero stages at the padding weight -0.0."""
    w0, w1, w2, w3, w4, w5 = _SEED_WEIGHTS[min(len(past), SEED_DEGREE + 1) - 1]
    rows = past[:SEED_DEGREE + 1]
    if len(rows) <= SEED_DEGREE:
        zero = [0.0] * len(rows[0][0])
        rows = [*rows, *[(zero, zero)] * (SEED_DEGREE + 1 - len(rows))]
    return tuple(
        [w0 * a + w1 * b + w2 * c + w3 * d + w4 * e + w5 * g
         for a, b, c, d, e, g in zip(*stage)]
        for stage in zip(*rows)
    )


def _rk4_step(f, z, h):
    half = 0.5 * h
    k1 = f(z)
    k2 = f([zi + half * a for zi, a in zip(z, k1)])
    k3 = f([zi + half * a for zi, a in zip(z, k2)])
    k4 = f([zi + h * a for zi, a in zip(z, k3)])
    sixth = h / 6.0
    return [zi + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
            for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]


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
    of steps is a ValueError.  Halts with SingularApproach if a
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
    guards = (Guard("coordinate-plane barrier", spec.realization.clearance), *spec.guards)

    def check_guards(q, t, last=None):
        for guard in guards:
            if guard.clearance(q) <= GUARD_RADIUS:
                raise SingularApproach(
                    f"{guard.label} reached at t = {t:.6g}", time=t, state=last
                )

    n = x0.n
    try:
        check_guards(x0.q, 0.0, x0)
    except SingularApproach as err:
        err.trajectory = _finish(np.concatenate((x0.q, x0.p))[None], n, cfg.step, monitors)
        raise
    gradient_qp = spec.gradient_qp

    def f(z):
        try:
            dq, dp = gradient_qp(z[:n], z[n:])
        except OverflowError as exc:  # a family's Python-float partials
            raise NonConvergence(f"stage evaluation overflowed: {exc}") from exc
        return dp + [-x for x in dq]

    h = cfg.step
    zs = np.empty((n_steps + 1, 2 * n))
    zs[0, :n], zs[0, n:] = x0.q, x0.p
    z = zs[0].tolist()
    gl2 = cfg.method == "gl2"
    if gl2 and n_steps > 0:
        k = f(z)
        # history: the converged stages of the last SEED_DEGREE + 1 steps,
        # newest first
        seeds, history = (k, k), []

    for step_idx in range(1, n_steps + 1):
        t = step_idx * h
        try:
            try:
                if gl2:
                    z, stages = _gl2_step(f, z, h, *seeds, cfg.fixed_point_tol)
                    history = [stages, *history[:SEED_DEGREE]]
                    seeds = _stage_seeds(history)
                else:
                    z = _rk4_step(f, z, h)
            except DomainError as exc:
                raise SingularApproach(
                    f"singular evaluation during step to t = {t:.6g}: {exc}",
                    time=(step_idx - 1) * h,
                )
            except NonConvergence as exc:
                last_q = zs[step_idx - 1, :n]
                if min(g.clearance(last_q) for g in guards) >= APPROACH_HORIZON:
                    raise
                raise SingularApproach(
                    f"stage iteration broke down near a guarded singularity "
                    f"at t = {t:.6g}: {exc}",
                    time=(step_idx - 1) * h,
                )
            if not all(map(math.isfinite, z)):
                raise SingularApproach(f"state became non-finite at t = {t:.6g}", time=t)
            zs[step_idx] = z
            check_guards(zs[step_idx, :n], t)
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
