"""Time integration of Hamilton's equations and orbit-closure detection.

The default method is the 2-stage Gauss-Legendre implicit Runge-Kutta
scheme (order 4).  It is symplectic for arbitrary smooth Hamiltonians,
which matters here because the curved kinetic terms couple q and p, so no
explicit splitting applies.  Stages are solved by fixed-point iteration
seeded with the previous step's stage values, until the largest stage
change is at most `fixed_point_tol` (1e-13 by default).  A classical RK4 is
provided as a non-symplectic reference.

Both steppers work on one stacked state z = [q, p] of length 2N, with
stage vectors k = [dH/dp, -dH/dq] from one `spec.gradient_qp` call each.
Stacking halves the numpy calls per stage; the arithmetic is elementwise,
so every number is the same as with separate q and p arrays.

Every accepted state is checked against one tuple of `Guard`s: the
coordinate-plane barrier (`SL2Realization.clearance`) first, then the
spec's own guards (origin, chart boundary).  The same tuple decides whether
a stage-iteration failure counts as a singular approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import ConservedQuantity, Guard, HamiltonianSpec, PhasePoint
from .errors import DomainError, InsufficientData, NonConvergence, SingularApproach

_SQRT3 = math.sqrt(3.0)
_A11, _A12 = 0.25, 0.25 - _SQRT3 / 6.0
_A21, _A22 = 0.25 + _SQRT3 / 6.0, 0.25

METHODS = ("gl2", "rk4")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "gl2"
    step: float = 1e-3
    fixed_point_tol: float = 1e-13
    max_fixed_point_iters: int = 100
    guard_radius: float = 1e-6
    # A stage-iteration failure this close to a guarded set is reported as a
    # singular approach (the stiffness is the singularity), not NonConvergence.
    approach_horizon: float = 0.1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not all(0.0 < v < math.inf
                   for v in (self.step, self.fixed_point_tol, self.guard_radius)):
            raise ValueError(
                "step, fixed_point_tol and guard_radius must be finite and positive"
            )


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

    def state(self, i: int) -> PhasePoint:
        return PhasePoint(self.q[i], self.p[i])


def _gl2_step(f, z, h, k1, k2, tol, max_iters):
    """One GL2 step of the stacked state z = [q, p] from stage seeds k1, k2.

    Returns the new state and the converged stages (the next step's seeds).
    A NaN in either stage ends the iteration at once: the step is then
    non-finite and integrate halts on it, as it does for RK4.
    """
    for _ in range(max_iters):
        n1 = f(z + h * (_A11 * k1 + _A12 * k2))
        n2 = f(z + h * (_A21 * k1 + _A22 * k2))
        d1 = float(np.abs(n1 - k1).max())
        d2 = float(np.abs(n2 - k2).max())
        k1, k2 = n1, n2
        if max(d1, d2) <= tol or math.isnan(d1 + d2):
            return z + 0.5 * h * (k1 + k2), k1, k2
    raise NonConvergence(
        f"stage fixed point did not reach {tol:g} in {max_iters} iterations"
    )


def _rk4_step(f, z, h):
    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def step_count(t_final: float, step: float) -> int:
    """Number of fixed steps that integrate takes to reach t_final:
    whole_steps(t_final, step) when that is defined, else ceil."""
    whole = whole_steps(t_final, step)
    if whole is not None:
        return whole
    return int(math.ceil(t_final / step - 1e-12))


def integrate(
    spec: HamiltonianSpec,
    x0: PhasePoint,
    t_final: float,
    cfg: IntegratorConfig,
    monitors: Sequence[ConservedQuantity] = (),
) -> Trajectory:
    """Integrate Hamilton's equations qdot = dH/dp, pdot = -dH/dq.

    Runs step_count(t_final, step) fixed-size steps (none for t_final = 0)
    and records every accepted state.  Halts with SingularApproach if a
    guarded singularity comes within the guard radius.  Every halt
    (SingularApproach or NonConvergence) carries the last accepted state as
    `err.state` and the trajectory up to it as `err.trajectory`.
    """
    if not 0.0 <= t_final < math.inf:
        raise ValueError("t_final must be finite and nonnegative")
    spec.realization.check_point(x0)
    guards = (Guard("coordinate-plane barrier", spec.realization.clearance), *spec.guards)

    def check_guards(q, t, last=None):
        for guard in guards:
            if guard.clearance(q) <= cfg.guard_radius:
                raise SingularApproach(
                    f"{guard.label} reached at t = {t:.6g}", time=t, state=last
                )

    check_guards(x0.q, 0.0, x0)
    n = x0.n
    gradient_qp = spec.gradient_qp

    def f(z):
        dq, dp = gradient_qp(z[:n], z[n:])
        return np.concatenate((dp, -dq))

    n_steps = step_count(t_final, cfg.step)
    h = cfg.step
    zs = np.empty((n_steps + 1, 2 * n))
    zs[0, :n], zs[0, n:] = x0.q, x0.p
    z = zs[0].copy()
    gl2 = cfg.method == "gl2"
    if gl2 and n_steps > 0:
        k1 = k2 = f(z)

    for step_idx in range(1, n_steps + 1):
        t = step_idx * h
        try:
            try:
                if gl2:
                    z, k1, k2 = _gl2_step(
                        f, z, h, k1, k2, cfg.fixed_point_tol, cfg.max_fixed_point_iters
                    )
                else:
                    z = _rk4_step(f, z, h)
            except DomainError as exc:
                raise SingularApproach(
                    f"singular evaluation during step to t = {t:.6g}: {exc}",
                    time=(step_idx - 1) * h,
                )
            except NonConvergence as exc:
                last_q = zs[step_idx - 1, :n]
                if min(g.clearance(last_q) for g in guards) >= cfg.approach_horizon:
                    raise
                raise SingularApproach(
                    f"stage iteration broke down near a guarded singularity "
                    f"at t = {t:.6g}: {exc}",
                    time=(step_idx - 1) * h,
                )
            if not np.isfinite(z).all():
                raise SingularApproach(f"state became non-finite at t = {t:.6g}", time=t)
            check_guards(z[:n], t)
        except (SingularApproach, NonConvergence) as err:
            err.state = PhasePoint(zs[step_idx - 1, :n].copy(), zs[step_idx - 1, n:].copy())
            err.trajectory = _finish(zs[:step_idx], n, h, monitors)
            raise
        zs[step_idx] = z
    return _finish(zs, n, h, monitors)


def _finish(zs, n, h, monitors) -> Trajectory:
    """Split the stacked states, evaluate the monitors at every state and
    reduce each series to its normalized drift."""
    qs = zs[:, :n].copy()
    ps = zs[:, n:].copy()
    n_states = qs.shape[0]
    times = h * np.arange(n_states)
    series: dict[str, np.ndarray] = {}
    drift: dict[str, float] = {}
    for mon in monitors:
        vals = np.fromiter(map(mon.value_fn, qs, ps), float, n_states)
        series[mon.name] = vals
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
    d2max = float(np.max(d2))
    if d2max <= 0.0:
        raise InsufficientData("orbit never leaves the initial state")
    beyond = np.flatnonzero(d2 >= 0.25 * d2max)
    start = int(beyond[0])
    if start >= traj.n_states - 2:
        raise InsufficientData("no samples after the excursion")

    candidates = []
    for i in range(max(start, 1), traj.n_states - 1):
        if d2[i] <= d2[i - 1] and d2[i] <= d2[i + 1]:
            candidates.append(i)
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
