import math

import numpy as np
import pytest

from superint import (
    ClosureReport,
    DomainError,
    InsufficientData,
    IntegratorConfig,
    NonConvergence,
    PhasePoint,
    RangeError,
    SingularApproach,
    SystemDescriptor,
    Trajectory,
    build,
    detect_closure,
    energy_quantity,
    extra_integral,
    integrate,
    kc_extra_integral,
    make_evans,
    make_garnier,
    make_kepler_coulomb,
    make_sw,
    make_variable_mass,
    universal_set,
)
from superint.dynamics import MAX_FIXED_POINT_ITERS
from conftest import left_to_right


def test_free_particle_is_exact():
    spec = make_evans("euclidean", lambda s: 0.0,
                      mass=2.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([0.5, -0.3], [1.0, 0.8])
    traj = integrate(spec, x0, 1.0, IntegratorConfig(step=0.01))
    expected = x0.q + traj.times[-1] * x0.p / 2.0
    assert np.max(np.abs(traj.q[-1] - expected)) < 1e-12
    assert np.max(np.abs(traj.p[-1] - x0.p)) < 1e-14


def test_oscillator_closure_and_period():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.2], [0.1, -0.4])
    traj = integrate(spec, x0, 6.0, IntegratorConfig(step=1e-3),
                     monitors=[energy_quantity(spec)])
    report = detect_closure(traj, 1e-6)
    assert report.is_closed
    assert report.closure_distance < 1e-8
    assert report.period_estimate == pytest.approx(2.0 * math.pi / math.sqrt(2.0),
                                                   rel=1e-6)
    assert traj.drift["H"] < 1e-12


def test_barrier_oscillator_is_isochronous():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.5, 0.3, 0.0])
    x0 = PhasePoint([0.8, 0.7, 0.6], [0.2, -0.3, 0.4])
    traj = integrate(spec, x0, 10.0, IntegratorConfig(step=1e-3))
    report = detect_closure(traj, 1e-6)
    assert report.is_closed
    assert report.period_estimate == pytest.approx(2.0 * math.pi / math.sqrt(2.0),
                                                   rel=1e-6)


def test_energy_drift_stays_small():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.5, 0.3])
    x0 = PhasePoint([0.8, 0.7], [0.2, -0.3])
    traj = integrate(spec, x0, 20.0, IntegratorConfig(step=1e-3),
                     monitors=[energy_quantity(spec)])
    assert traj.drift["H"] < 1e-10


def test_universal_drift_on_curved_oscillator():
    spec = make_sw("beltrami", mass=1.0, omega=1.0, b_tilde=[0.4, 0.0, 0.3],
                   kappa=0.5)
    uni = universal_set(spec.realization)
    x0 = PhasePoint([0.6, 0.5, 0.4], [0.2, -0.4, 0.3])
    traj = integrate(spec, x0, 5.0, IntegratorConfig(step=1e-3),
                     monitors=[energy_quantity(spec), *uni.all])
    assert max(traj.drift.values()) < 1e-10


def test_time_reversal_symmetry():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.2], [0.1, -0.4])
    cfg = IntegratorConfig(step=1e-3)
    forward = integrate(spec, x0, 2.0, cfg)
    flipped = PhasePoint(forward.q[-1], -forward.p[-1])
    backward = integrate(spec, flipped, 2.0, cfg)
    assert np.max(np.abs(backward.q[-1] - x0.q)) < 1e-9
    assert np.max(np.abs(backward.p[-1] + x0.p)) < 1e-9


def test_symplectic_method_beats_reference_over_long_runs():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.4, 0.3])
    x0 = PhasePoint([1.0, 0.7], [0.3, -0.5])
    h = energy_quantity(spec)
    gl2 = integrate(spec, x0, 1000.0, IntegratorConfig(method="gl2", step=0.05),
                    monitors=[h])
    rk4 = integrate(spec, x0, 1000.0, IntegratorConfig(method="rk4", step=0.05),
                    monitors=[h])
    rk4_early = integrate(spec, x0, 250.0, IntegratorConfig(method="rk4", step=0.05),
                          monitors=[h])
    assert gl2.drift["H"] < rk4.drift["H"]
    # the reference method drifts secularly; the symplectic one does not
    assert rk4.drift["H"] > 3.0 * rk4_early.drift["H"]
    assert gl2.drift["H"] < 1e-5


def test_singular_approach_on_radial_infall():
    spec = make_kepler_coulomb("euclidean", mass=1.0, k=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.0], [-2.0, 0.0])
    with pytest.raises(SingularApproach) as info:
        integrate(spec, x0, 3.0, IntegratorConfig(step=1e-4))
    err = info.value
    assert err.state is not None
    assert float(np.sqrt(err.state.q @ err.state.q)) < 0.1
    assert isinstance(err.trajectory, Trajectory)
    assert err.trajectory.n_states >= 1


def test_start_inside_the_barrier_guard_radius_halts_at_t0():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.4, 0.0])
    x0 = PhasePoint([5e-7, 0.8], [0.3, -0.2])
    with pytest.raises(SingularApproach,
                       match="^coordinate-plane barrier reached at t = 0$") as info:
        integrate(spec, x0, 1.0, IntegratorConfig(step=1e-3),
                  monitors=[energy_quantity(spec)])
    assert info.value.time == 0.0
    assert info.value.state is x0
    # the halt carries the one-state run, like any later halt
    traj = info.value.trajectory
    assert traj.n_states == 1
    assert np.array_equal(traj.q[0], x0.q) and np.array_equal(traj.p[0], x0.p)
    assert traj.monitors["H"][0] == energy_quantity(spec).value(x0) and traj.drift["H"] == 0.0


def test_nonconvergence_for_oversized_step():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.2], [0.1, -0.4])
    with pytest.raises(NonConvergence) as info:
        integrate(spec, x0, 100.0, IntegratorConfig(step=10.0),
                  monitors=[energy_quantity(spec)])
    # the run up to the last accepted state is kept
    traj = info.value.trajectory
    assert traj.n_states == 1
    assert np.array_equal(traj.q[0], x0.q)
    assert traj.drift["H"] == 0.0
    assert np.array_equal(info.value.state.p, x0.p)


def test_overflowing_stage_evaluation_halts_with_the_partial_run():
    # the stage iteration diverges near the chart boundary until the
    # Python-float partials of the kinetic term overflow
    spec = build(SystemDescriptor("evans", "poincare", {"mass": 1.1, "kappa": 0.5},
                                  [0.4, 0.0, 0.3], profiles={"potential": (0.0, 0.3, -0.05)}))
    x0 = PhasePoint([-0.40236939, 0.45487338, -0.71516123],
                    [2.17675398, -1.3716822, -1.51551398])
    cfg = IntegratorConfig(step=2e-3)
    with np.errstate(all="ignore"), pytest.raises(NonConvergence,
                                                  match="^stage evaluation overflowed") as info:
        integrate(spec, x0, 0.2, cfg, monitors=[energy_quantity(spec)])
    traj = info.value.trajectory
    assert 1 < traj.n_states < 101
    assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()
    assert np.array_equal(info.value.state.q, traj.q[-1])
    assert np.array_equal(info.value.state.p, traj.p[-1])


@pytest.mark.parametrize("method", ["gl2", "rk4"])
def test_first_stage_failure_halts_with_the_one_state_run(method):
    # GL2's first stage seed f(z0) is evaluated inside the first step's
    # halt handling, as RK4's first stage is: a mass profile that is
    # negative at x0 halts as a singular approach, partials that overflow at
    # x0 as a non-convergence, and both carry x0 and the one-state run
    negative_mass = make_variable_mass(
        mass_profile=lambda s: 1.0 - s, potential=lambda s: 0.0, b=[0.0, 0.0])
    overflowing = make_evans("euclidean", lambda s: 1e200 * s * (1e200 * s),
                             mass=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.5], [0.1, 0.2])
    for spec, error, message in (
        (negative_mass, SingularApproach, r"^singular evaluation during step to t = 0\.001: "
                                          r"mass profile must stay positive, got -0\.25$"),
        (overflowing, NonConvergence,
         "^stage evaluation overflowed: the partials of h overflowed$"),
    ):
        with pytest.raises(error, match=message) as info:
            integrate(spec, x0, 0.01, IntegratorConfig(method=method))
        traj, state = info.value.trajectory, info.value.state
        assert traj.n_states == 1
        for got in (traj.q[0], state.q):
            assert np.array_equal(got, x0.q)
        for got in (traj.p[0], state.p):
            assert np.array_equal(got, x0.p)


def test_fractional_power_of_a_negative_base_halts_as_a_singular_approach():
    # Python's ** takes a negative base to a non-integer power as a complex
    # number; the taped partials test the base first, one point and stacked,
    # so the run halts at its first stage evaluation with the one-state run
    spec = make_evans("euclidean", lambda s: (s - 2.0) ** 0.5, mass=1.0, b_tilde=[0.0, 0.0])
    message = r"the base of \*\* 0\.5 must be positive, got -0\.75$"
    for q, p in (([1.0, 0.5], [0.1, 0.2]), (np.array([[1.0, 0.5]]), np.array([[0.1, 0.2]]))):
        with pytest.raises(DomainError, match="^" + message):
            spec.gradient_qp(q, p)
    for method in ("gl2", "rk4"):
        with pytest.raises(SingularApproach, match=r"^singular evaluation during step to "
                                                   r"t = 0\.001: " + message) as info:
            integrate(spec, PhasePoint([1.0, 0.5], [0.1, 0.2]), 0.01,
                      IntegratorConfig(method=method))
        assert info.value.trajectory.n_states == 1
        assert info.value.trajectory.stage_evaluations == 1


@pytest.mark.parametrize("method", ["gl2", "rk4"])
def test_stage_evaluations_are_the_gradient_qp_calls(monkeypatch, method):
    # the benchmark counts stage evaluations by wrapping
    # HamiltonianSpec.gradient_qp on the class, so every evaluation a run
    # reports, in a whole run or one that halts, is one call of it (RK4: 4
    # per step)
    from superint.core import HamiltonianSpec

    calls, public = [0], HamiltonianSpec.gradient_qp

    def gradient_qp(self, q, p):
        calls[0] += 1
        return public(self, q, p)

    monkeypatch.setattr(HamiltonianSpec, "gradient_qp", gradient_qp)
    cfg = IntegratorConfig(method=method, step=2e-3)
    spec = make_sw("poincare", mass=1.0, omega=1.1, b_tilde=[0.3, 0.0, 0.2], kappa=0.4)
    traj = integrate(spec, PhasePoint([0.5, 0.4, 0.3], [0.2, -0.3, 0.25]), 60 * cfg.step, cfg)
    assert traj.stage_evaluations == calls[0]
    if method == "rk4":
        assert (calls[0], traj.max_sweeps) == (4 * 60, 0)
    else:
        assert calls[0] % 2 == 1 and calls[0] >= 1 + 2 * 60
        assert 2 <= traj.max_sweeps < MAX_FIXED_POINT_ITERS
    # a stage iteration that fails, a state that overflows, a first stage
    # out of its domain
    halts = [
        (make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0]), [1.0, 0.2, 0.1, -0.4],
         IntegratorConfig(method=method, step=10.0), 100.0),
        (make_evans("euclidean", lambda s: -0.5 * s, mass=1.0, b_tilde=[0.0, 0.0]),
         [1e307, 0.0, 1e307, 0.5], IntegratorConfig(method=method, step=1e-2), 3.0),
        (make_variable_mass(mass_profile=lambda s: 1.0 - s, potential=lambda s: 0.0,
                            b=[0.0, 0.0]), [1.0, 0.5, 0.1, 0.2], cfg, 0.01),
    ]
    for spec, z0, run_cfg, t_final in halts:
        calls[0] = 0
        try:
            integrate(spec, PhasePoint(z0[:2], z0[2:]), t_final, run_cfg)
        except (SingularApproach, NonConvergence) as err:
            assert err.trajectory.stage_evaluations == calls[0] > 0
        else:
            assert method == "rk4" and spec.name.startswith("sw")  # RK4 does not sweep


def test_step_count_beyond_storage_is_a_range_error():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.5], [0.1, 0.2])
    with pytest.raises(RangeError, match=r"^1000000000000000000000 steps of 0\.001 are more "):
        integrate(spec, x0, 1e18, IntegratorConfig(step=1e-3))


def test_step_count_does_not_overrun_t_final():
    from superint.dynamics import whole_steps

    assert 32.2 / 1e-3 > 32200.0  # rounding puts the ratio above the integer
    assert whole_steps(32.2, 1e-3) == 32200
    assert whole_steps(1.0, 0.3) is None
    assert whole_steps(1.0, 1e-320) is None  # the ratio overflows
    assert whole_steps(0.0, 1e-3) == 0
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.2], [0.1, -0.4])
    with pytest.raises(ValueError, match=r"^t_final = 1\.0 is not a whole number of steps of 0\.3$"):
        integrate(spec, x0, 1.0, IntegratorConfig(method="rk4", step=0.3))
    traj = integrate(spec, x0, 32.2, IntegratorConfig(method="rk4", step=1e-3))
    assert traj.n_states == 32201
    assert traj.times[-1] == pytest.approx(32.2, rel=1e-12)


@pytest.mark.parametrize("method", ["gl2", "rk4"])
@pytest.mark.parametrize("t_final, step", [(1.0, 0.3), (0.25, 0.1), (1.0, 1e-320)])
def test_integrate_takes_whole_steps_only(method, t_final, step):
    # a t_final short of a whole step is an error, never a run past it
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    with pytest.raises(ValueError, match=f"^t_final = {t_final} is not a whole number "
                                         f"of steps of {step}$"):
        integrate(spec, PhasePoint([1.0, 0.2], [0.1, -0.4]), t_final,
                  IntegratorConfig(method=method, step=step))


def _as_gradient(stage_fn, n):
    """A gradient_qp stand-in whose stage vector [dH/dp, -dH/dq] at z = [q, p]
    is stage_fn(z), as the steppers' kernels call it."""

    def grad(q, p):
        k = stage_fn(q + p)
        return [-x for x in k[n:]], k[:n]

    return grad


def _run(method, n, grad, z0, n_steps, h, tol=1e-13, sites=(), guards=()):
    """The run kernel of `method` on N = n sites with barriers at `sites`,
    from the state z0 (a list) for n_steps steps: its result (steps, halt,
    evaluations, sweeps) and the trajectory array it wrote."""
    from superint.dynamics import _run_kernel

    zs = np.zeros((n_steps + 1, 2 * n))
    zs[0] = z0
    return _run_kernel(method, n, sites)(grad, zs, h, tol, guards), zs


@pytest.mark.parametrize("site", [0, 1, 2, 3])
@pytest.mark.parametrize("stage", [1, 2])
def test_gl2_step_stops_on_a_nan_stage(stage, site):
    # a NaN in either stage of the first sweep, in the q or the p half, ends
    # the step at once, and so does one at the last site of the second
    # stage: the sweep's largest change is taken so that a NaN from any site
    # is kept (Python's max() keeps one only in first place).  Every other
    # change is far above the tolerance, so a stop rule that lost the NaN
    # would sweep again.  The step's state is then non-finite: the run halts.
    calls = []

    def f(z):
        calls.append(z)
        k = [1.0 + x for x in z]
        if len(calls) == 1 + stage:  # the first call is the seed f(z0)
            k[site] = math.nan
        return k

    result, _ = _run("gl2", 2, _as_gradient(f, 2), [1.0, 0.5, -0.2, 0.3], 3, 0.1)
    assert result == (1, "state became non-finite", 3, 1)
    assert len(calls) == 3


def test_nan_gradient_halts_as_non_finite():
    # an inverted oscillator carries the state past the largest float at
    # t = ln(1.8e308 / 1e307), near 2.9; its stages turn inf, then NaN
    spec = make_evans("euclidean", lambda s: -0.5 * s, mass=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1e307, 0.0], [1e307, 0.5])
    for method in ("gl2", "rk4"):
        with pytest.raises(SingularApproach, match="state became non-finite") as info:
            integrate(spec, x0, 3.0, IntegratorConfig(method=method, step=1e-2))
        traj = info.value.trajectory
        assert 1 < traj.n_states < 301
        assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()


_BAD_CONFIG = [(value, field) for field in ("step", "fixed_point_tol")
               for value in (0.0, -1e-3, math.inf, math.nan)]


@pytest.mark.parametrize("value, field", _BAD_CONFIG)
def test_integrator_config_rejects_bad_numbers(value, field):
    # the message names the field
    with pytest.raises(ValueError, match=f"{field}.* must be"):
        IntegratorConfig(**{field: value})


def test_chart_boundary_halts_runaway_sphere_orbit():
    # an unbound Beltrami orbit on the sphere runs off toward the equator
    spec = make_kepler_coulomb("beltrami", mass=1.0, k=0.2,
                               b_tilde=[0.0, 0.0], kappa=1.0)
    x0 = PhasePoint([0.5, 0.0], [2.5, 0.5])
    with pytest.raises(SingularApproach):
        integrate(spec, x0, 20.0, IntegratorConfig(step=1e-3))


def test_zero_length_integration():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.2], [0.1, -0.4])
    traj = integrate(spec, x0, 0.0, IntegratorConfig(step=1e-3),
                     monitors=[energy_quantity(spec)])
    assert traj.n_states == 1
    assert traj.drift["H"] == 0.0


def test_curved_kepler_orbit_closes():
    spec = make_kepler_coulomb("beltrami", mass=1.0, k=1.0,
                               b_tilde=[0.0, 0.0], kappa=-0.5)
    x0 = PhasePoint([0.5, 0.0], [0.0, 0.8])
    traj = integrate(spec, x0, 20.0, IntegratorConfig(step=2e-3))
    report = detect_closure(traj, 1e-5)
    assert report.is_closed
    assert report.period_estimate == pytest.approx(1.105, rel=1e-2)


def test_quartic_orbit_does_not_close():
    spec = make_garnier("euclidean", mass=1.0, omega=1.0, delta=0.25,
                        b_tilde=[0.3, 0.2])
    x0 = PhasePoint([0.9, 0.4], [0.2, -0.6])
    traj = integrate(spec, x0, 60.0, IntegratorConfig(step=5e-3))
    report = detect_closure(traj, 1e-5)
    assert not report.is_closed
    assert report.closure_distance > 1e-3
    assert report.period_estimate is None


def test_closure_needs_enough_data():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.2], [0.1, -0.4])
    tiny = integrate(spec, x0, 3e-3, IntegratorConfig(step=1e-3))
    with pytest.raises(InsufficientData):
        detect_closure(tiny, 1e-6)


def test_closure_rejects_non_finite_states():
    t = np.linspace(0.0, 2.0 * np.pi, 50)
    q, p = np.cos(t)[:, None], np.sin(t)[:, None]
    q[20, 0] = np.nan
    with pytest.raises(InsufficientData, match="non-finite"):
        detect_closure(Trajectory(t, q, p), 1e-6)


def test_extra_integrals_conserved_along_sphere_orbit():
    bt = [0.0, 0.0, 0.1]
    spec = make_kepler_coulomb("poincare", mass=1.0, k=2.0, b_tilde=bt, kappa=1.0)
    monitors = [
        energy_quantity(spec),
        kc_extra_integral(0, mass=1.0, k=2.0, b_tilde=bt, kappa=1.0,
                          space="poincare"),
        kc_extra_integral(1, mass=1.0, k=2.0, b_tilde=bt, kappa=1.0,
                          space="poincare"),
    ]
    x0 = PhasePoint([0.3, 0.25, 0.3], [0.2, -0.3, 0.15])
    traj = integrate(spec, x0, 10.0, IntegratorConfig(step=5e-4), monitors=monitors)
    assert max(traj.drift.values()) < 1e-8


def test_monitor_series_recorded():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.2, 0.1])
    uni = universal_set(spec.realization)
    x0 = PhasePoint([0.9, 0.8], [0.1, -0.2])
    traj = integrate(spec, x0, 0.5, IntegratorConfig(step=1e-2),
                     monitors=[energy_quantity(spec), *uni.all])
    assert set(traj.monitors) == {"H", "C^2"}
    assert traj.monitors["H"].size == traj.n_states
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0.0)


def test_monitor_names_must_be_distinct():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.2, 0.1])
    h = energy_quantity(spec)
    with pytest.raises(ValueError, match="distinct"):
        integrate(spec, PhasePoint([0.9, 0.8], [0.1, -0.2]), 0.1,
                  IntegratorConfig(step=1e-2), monitors=[h, h])


def test_monitor_pass_over_several_blocks_is_the_per_state_series():
    n = 14
    bt = np.linspace(0.1, 0.4, n)
    bt[3] = 0.0
    spec = make_sw("beltrami", mass=1.0, omega=0.9, b_tilde=bt, kappa=0.3)
    monitors = [energy_quantity(spec), *universal_set(spec.realization).all,
                *(extra_integral(spec.descriptor, a) for a in range(n))]
    cfg = IntegratorConfig(method="rk4", step=1e-3)
    n_steps = 1054  # more states than the 1024 of the former per-block monitor pass
    x0 = PhasePoint(np.linspace(0.3, 0.5, n), np.linspace(-0.2, 0.2, n))
    traj = integrate(spec, x0, n_steps * cfg.step, cfg, monitors)
    assert traj.n_states == n_steps + 1
    for mon in monitors:
        per_state = np.array([mon.value_fn(q, p) for q, p in zip(traj.q, traj.p)])
        assert np.array_equal(traj.monitors[mon.name], per_state), mon.name


# ---------------------------------------------------------------------------
# Bit-exactness of the stacked steppers against separate q and p arrays
# ---------------------------------------------------------------------------

_SQRT3 = math.sqrt(3.0)
_A11, _A12 = 0.25, 0.25 - _SQRT3 / 6.0
_A21, _A22 = 0.25 + _SQRT3 / 6.0, 0.25


def _reference_gl2_step(f, q, p, h, k_seed, tol, max_iters, legacy=False):
    """GL2 step on four stage arrays (q and p parts of two stages), one f
    call per stage.

    Returns the converged stages (k1q, k1p, k2q, k2p).  `legacy` drops the
    contraction-rate stop and stops only at delta <= tol.
    """
    k1q, k1p, k2q, k2p = k_seed
    delta_prev = 0.0
    for _ in range(max_iters):
        y1q = q + h * (_A11 * k1q + _A12 * k2q)
        y1p = p + h * (_A11 * k1p + _A12 * k2p)
        n1q, n1p = f(y1q, y1p)
        y2q = q + h * (_A21 * n1q + _A22 * k2q)
        y2p = p + h * (_A21 * n1p + _A22 * k2p)
        n2q, n2p = f(y2q, y2p)
        delta = max(
            float(np.max(np.abs(n1q - k1q))),
            float(np.max(np.abs(n1p - k1p))),
            float(np.max(np.abs(n2q - k2q))),
            float(np.max(np.abs(n2p - k2p))),
        )
        k1q, k1p, k2q, k2p = n1q, n1p, n2q, n2p
        contracted = delta < delta_prev and delta * delta <= tol * (delta_prev - delta)
        if delta <= tol or (contracted and not legacy):
            qn = q + 0.5 * h * (k1q + k2q)
            pn = p + 0.5 * h * (k1p + k2p)
            return qn, pn, (k1q, k1p, k2q, k2p)
        delta_prev = delta
    raise AssertionError("reference stage iteration did not converge")


def _reference_seeds(past):
    """(k1q, k1p, k2q, k2p) seeds from the stages of past steps, newest
    first: weight (-1)^j C(m, j + 1) on the stages j steps back, m the number
    of steps in past, summed left to right."""
    weights = [float((-1) ** j * math.comb(len(past), j + 1)) for j in range(len(past))]
    seeds = []
    for part in range(4):
        total = weights[0] * past[0][part]
        for w, stages in zip(weights[1:], past[1:]):
            total = total + w * stages[part]
        seeds.append(total)
    return tuple(seeds)


_KERNEL_SIZES = [1, 2, 3, 4, 6, 14, 50]


def _clock_stages(h, stages, log):
    """A stage function f(z) = [dH/dp, -dH/dq] for the run kernels whose
    value is stages[s][k] at every stage s + 1 evaluation of the step from
    the clock k h: entry 0 of every stage is 1.0, so the state's entry 0 is
    that clock (exact for h a power of two), and a stage input sits at
    (k + 0.21) h for stage 1, (k + 0.79) h for stage 2 and at 0 for the
    first seed f(z0).  Logs every input."""

    def f(z):
        log.append(list(z))
        k, frac = divmod(z[0] / h, 1.0)
        return stages[int(frac > 0.5)][int(k)].tolist()

    return f


def test_stage_seeds_extrapolate_their_polynomials_exactly():
    # the seeds of the step from clock k are, through the converged stages
    # of the min(k, 6) steps before it (older ones are ignored), the value
    # at k of every vector polynomial in the step index of degree below
    # min(k, 6): such a step meets the tolerance 1e-12 at its first sweep,
    # in two stage evaluations, and one whose stages fit no such polynomial
    # takes two sweeps, four evaluations
    from superint.dynamics import SEED_DEGREE

    assert SEED_DEGREE == 5
    rng = np.random.default_rng(3)
    h, n_steps = 2.0 ** -6, 12
    clocks = np.arange(n_steps)[:, None, None]
    for n in _KERNEL_SIZES:
        for degree in range(SEED_DEGREE + 1):
            for noise in (0, 3):  # steps whose stages fit no polynomial
                coeffs = rng.uniform(-1.0, 1.0, (degree + 1, 2, 2 * n))
                stages = sum(c * (clocks / 6.0) ** i for i, c in enumerate(coeffs))
                stages[:noise] = rng.uniform(-1e3, 1e3, (noise, 2, 2 * n))
                stages[..., 0] = 1.0
                log = []
                f = _clock_stages(h, stages.transpose(1, 0, 2), log)
                result, _ = _run("gl2", n, _as_gradient(f, n), [0.0] * (2 * n), n_steps, h,
                                 tol=1e-12)
                assert result[:2] == (n_steps, None)
                calls = np.bincount([int(z[0] / h) for z in log], minlength=n_steps)
                for k in range(1, n_steps):
                    m = min(k, SEED_DEGREE + 1)
                    exact = k - m >= noise and m > degree
                    assert calls[k] == (2 if exact else 4), (n, degree, noise, k)


def _loop_seeds(past):
    """Each stage's seed from the stages of past steps, newest first: weight
    (-1)^j C(m, j + 1) on the stage j steps back, m = len(past), added one
    at a time from the newest, entry by entry as Python floats."""
    weights = [float((-1) ** j * math.comb(len(past), j + 1)) for j in range(len(past))]
    return tuple([left_to_right([w * stages[s][i] for w, stages in zip(weights, past)])
                  for i in range(len(past[0][s]))] for s in (0, 1))


def test_stage_seeds_are_the_ordered_sum_bitwise():
    # the seeds equal weight-by-weight addition newest first, signed zeros
    # included, as Python floats: every stage input of the run kernel's first
    # steps, which hold the seeds, is the loop's.  The last entry stays -0.0
    # in the state and the stages, so a one-step seed there shows its sign
    # (a sum that starts from +0.0 would turn it into +0.0).
    rng = np.random.default_rng(5)
    h, n_steps = 2.0 ** -6, 9
    for n in _KERNEL_SIZES:
        for _ in range(6):
            shape = (2, n_steps, 2 * n)
            stages = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
            zeros = rng.random(shape)
            stages[zeros < 0.3] = -0.0
            stages[zeros > 0.8] = 0.0
            stages[..., 0], stages[..., -1] = 1.0, -0.0
            z0 = rng.standard_normal(2 * n).tolist()
            z0[0], z0[-1] = 0.0, -0.0
            logs = ([], [])
            f = _clock_stages(h, stages, logs[0])
            result, zs = _run("gl2", n, _as_gradient(f, n), z0, n_steps, h)
            states, halt, sweeps = _loop_run(_clock_stages(h, stages, logs[1]), z0, h, 1e-13,
                                             n_steps)
            assert result == (n_steps, None, len(logs[1]), sweeps)
            assert_same_bits(logs[0], logs[1])
            assert_same_bits(zs, states)


def _loop_gl2_step(f, z, h, k1, k2, tol):
    """The GL2 step as a loop over the entries of Python lists, from the
    stage function f(z) = [dH/dp, -dH/dq]: the oracle of the unrolled
    kernel, NaN rule included.  Returns the state, the stages and the number
    of sweeps."""
    d_prev = 0.0
    for sweep in range(1, MAX_FIXED_POINT_ITERS + 1):
        new1 = f([zi + h * (_A11 * a + _A12 * b) for zi, a, b in zip(z, k1, k2)])
        new2 = f([zi + h * (_A21 * a + _A22 * b) for zi, a, b in zip(z, new1, k2)])
        d = 0.0
        for x in (abs(a - b) for a, b in zip(new1 + new2, k1 + k2)):
            if not x <= d:
                d = x
                if x != x:
                    break
        k1, k2 = new1, new2
        if d <= tol or d != d or (d < d_prev and d * d <= tol * (d_prev - d)):
            half = 0.5 * h
            return [zi + half * (a + b) for zi, a, b in zip(z, k1, k2)], (k1, k2), sweep
        d_prev = d
    raise NonConvergence("no fixed point")


def _loop_rk4_step(f, z, h):
    """The RK4 step as a loop over the entries of Python lists."""
    half = 0.5 * h
    k1 = f(z)
    k2 = f([zi + half * a for zi, a in zip(z, k1)])
    k3 = f([zi + half * a for zi, a in zip(z, k2)])
    k4 = f([zi + h * a for zi, a in zip(z, k3)])
    sixth = h / 6.0
    return [zi + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
            for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]


def _loop_run(f, z, h, tol, n_steps, method="gl2"):
    """A run with no guards as a loop over the steps, from the stage
    function f: the oracle of the run kernels.  GL2 seeds its first step
    with f(z0) and the later ones from the stages of the last six steps.
    Returns the accepted states, the halt (None, or a non-finite state) and
    the most sweeps a GL2 step took."""
    states, past, most = [z], [], 0
    for _ in range(n_steps):
        if method == "rk4":
            z = _loop_rk4_step(f, z, h)
        else:
            k1, k2 = _loop_seeds(past) if past else (f(z),) * 2
            z, stages, sweeps = _loop_gl2_step(f, z, h, k1, k2, tol)
            past, most = [stages, *past[:5]], max(most, sweeps)
        if not all(map(math.isfinite, z)):
            return states, "state became non-finite", most
        states.append(z)
    return states, None, most


def _stage_fn(grad, n):
    """f(z) = [dH/dp, -dH/dq] from a gradient_qp on the halves of z."""

    def f(z):
        dq, dp = grad(z[:n], z[n:])
        return dp + [-x for x in dq]

    return f


def assert_same_bits(got, want):
    """Equal values (NaNs in the same places) and sign bits."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _kernel_specs(n):
    """A spec per barrier pattern (no, some, all sites) at N = n, on a
    curved chart so the kinetic term couples q and p."""
    coeffs = [0.1 + 0.3 * ((3 * i) % 7) / 7.0 for i in range(n)]
    patterns = {"no": [0.0] * n, "some": [c if i % 2 == 0 else 0.0 for i, c in enumerate(coeffs)],
                "all": coeffs}
    for name, bt in patterns.items():
        yield name, make_kepler_coulomb("poincare", mass=1.0, k=0.9, b_tilde=bt, kappa=-0.4)
        yield name, make_garnier("beltrami", mass=1.0, omega=1.0, delta=0.2, b_tilde=bt,
                                 kappa=0.4)


def _kernel_state(rng, n):
    """A state [q, p] with 0.1 <= |q_i| <= 0.2 and signed zeros in p."""
    q = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 0.2, n)
    p = rng.uniform(-0.5, 0.5, n)
    p[rng.random(n) < 0.3] = -0.0
    p[rng.random(n) < 0.2] = 0.0
    return q, p


@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_step_kernels_are_the_split_form_and_the_loops_bitwise(n):
    # each run kernel, unrolled for 2N entries, against the numpy split form
    # and the list loop, over no, some and all barriers and signed zeros:
    # the states of its first steps (GL2 from the first seed, then from the
    # seeds of one to four steps) equal in value and sign bit, with one
    # gradient_qp call per counted stage evaluation
    rng = np.random.default_rng(n)
    h, tol, n_steps = 2e-3, 1e-13, 5
    for barriers, spec in _kernel_specs(n):
        sites = tuple(i for i, _, _ in spec.realization.barriers)
        calls = []

        def grad(q, p):
            calls.append(1)
            return spec.gradient_qp(q, p)

        q, p = _kernel_state(rng, n)
        for method in ("gl2", "rk4"):
            calls.clear()
            (steps, halt, evals, sweeps), zs = _run(method, n, grad, q.tolist() + p.tolist(),
                                                    n_steps, h, tol, sites, spec.guards)
            assert (steps, halt, evals) == (n_steps, None, len(calls)), barriers
            states, _, most = _loop_run(_stage_fn(spec.gradient_qp, n), zs[0].tolist(), h, tol,
                                        n_steps, method)
            assert sweeps == most
            assert_same_bits(zs, states)
            qs, ps = _reference_states(spec, PhasePoint(q, p), n_steps,
                                       IntegratorConfig(method=method, step=h,
                                                        fixed_point_tol=tol))
            assert_same_bits(zs, np.concatenate((qs, ps), axis=1))


@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_step_kernels_on_nan_and_overflowing_stages_are_the_loops(n):
    # a NaN at the first or last entry of either half of the stages, from
    # GL2's first seed, its first sweep or a later one on, halts the run at
    # the step where the loop halts it, after the same stage inputs; stages
    # that overflow to inf (inf - inf is a NaN change) do the same, and RK4
    # carries NaNs and infs to the same halt as the loop
    z0 = [0.3 + 0.01 * i for i in range(2 * n)]
    cases = [(call, site, math.nan) for call in (1, 2, 3, 6)
             for site in sorted({0, n - 1, n, 2 * n - 1})]
    cases += [(call, site, 1e308) for call in (1, 4) for site in (0, 2 * n - 1)]
    for method in ("gl2", "rk4"):
        for call, site, value in cases:
            logs = ([], [])

            def make_f(log):
                def f(z):
                    log.append(list(z))
                    # a contraction towards 1 + z, pulled off at one entry
                    k = [1.0 + 0.5 * x for x in z]
                    if len(log) >= call:
                        k[site] = value * (1.0 + abs(z[site]))
                    return k
                return f

            (steps, halt, evals, sweeps), zs = _run(method, n, _as_gradient(make_f(logs[0]), n),
                                                    z0, 3, 0.1)
            states, want, most = _loop_run(make_f(logs[1]), z0, 0.1, 1e-13, 3, method)
            assert halt == want == "state became non-finite", (method, call, site)
            assert (steps, evals, sweeps) == (len(states), len(logs[1]), most)
            assert_same_bits(zs[:steps], states)
            assert_same_bits(logs[0], logs[1])  # the same stage inputs, as many


def _reference_rk4_step(f, q, p, h):
    k1q, k1p = f(q, p)
    k2q, k2p = f(q + 0.5 * h * k1q, p + 0.5 * h * k1p)
    k3q, k3p = f(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
    k4q, k4p = f(q + h * k3q, p + h * k3p)
    qn = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    pn = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return qn, pn


def _reference_window_value(b, q, p, lo, hi):
    """Window Casimir J- J+ - J3^2 from _reference_sl2 on b, q and p zeroed
    off the window."""
    window = np.zeros_like(b, dtype=bool)
    window[lo:hi] = True
    jm, jp, j3 = _reference_sl2(np.where(window, b, 0.0), np.where(window, q, 0.0),
                                np.where(window, p, 0.0))
    return jm * jp - j3 * j3


def _reference_sl2(b, q, p):
    """(J-, J+, J3), each sum left to right over the sites."""
    active = b != 0.0
    jp = float(left_to_right(p * p))
    if np.any(active):
        jp += float(left_to_right(b[active] / q[active] ** 2))
    return float(left_to_right(q * q)), jp, float(left_to_right(q * p))


def _reference_states(spec, x0, n_steps, cfg, legacy=False):
    """States of a GL2 or RK4 run on separate q and p arrays.  With
    `legacy`, each GL2 step is seeded with the last step's stages and stops
    only at delta <= tol."""
    def f(q, p):
        dq, dp = spec.gradient_qp(q, p)
        return dp, -dq

    q, p = x0.q.copy(), x0.p.copy()
    qs, ps = [q], [p]
    if cfg.method == "gl2":
        dq0, dp0 = f(q, p)
        k_seed, past = (dq0.copy(), dp0.copy(), dq0.copy(), dp0.copy()), []
    for _ in range(n_steps):
        if cfg.method == "gl2":
            q, p, stages = _reference_gl2_step(
                f, q, p, cfg.step, k_seed, cfg.fixed_point_tol, MAX_FIXED_POINT_ITERS,
                legacy,
            )
            past = [stages, *past[:5]]
            k_seed = stages if legacy else _reference_seeds(past)
        else:
            q, p = _reference_rk4_step(f, q, p, cfg.step)
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


def _reference_run(spec, x0, n_steps, cfg):
    qs, ps = _reference_states(spec, x0, n_steps, cfg)
    b, n = spec.realization.b, spec.n
    windows = {f"C^{m}": (0, m) for m in range(2, n + 1)}
    windows.update({f"C_{m}": (n - m, n) for m in range(2, n)})
    series = {"H": np.array([spec.h(*_reference_sl2(b, qi, pi)) for qi, pi in zip(qs, ps)])}
    for name, (lo, hi) in windows.items():
        series[name] = np.array([_reference_window_value(b, qi, pi, lo, hi)
                                 for qi, pi in zip(qs, ps)])
    return qs, ps, series


def _bit_systems():
    bt = [0.3, 0.0, 0.2]
    for space, kappa in (("euclidean", 0.0), ("beltrami", 0.4), ("beltrami", -0.4),
                         ("poincare", 0.4), ("poincare", -0.4)):
        yield make_sw(space, mass=1.0, omega=1.1, b_tilde=bt, kappa=kappa)
        yield make_kepler_coulomb(space, mass=1.0, k=0.9, b_tilde=bt, kappa=kappa)
        yield make_garnier(space, mass=1.0, omega=1.0, delta=0.2, b_tilde=bt, kappa=kappa)


@pytest.mark.parametrize("method, n_steps", [("gl2", 200), ("rk4", 100)])
def test_stacked_steppers_are_bitwise_the_split_form(method, n_steps):
    cfg = IntegratorConfig(method=method, step=2e-3)
    x0 = PhasePoint([0.5, 0.4, 0.3], [0.2, -0.3, 0.25])
    for spec in _bit_systems():
        monitors = [energy_quantity(spec), *universal_set(spec.realization).all]
        traj = integrate(spec, x0, n_steps * cfg.step, cfg, monitors)
        qs, ps, series = _reference_run(spec, x0, n_steps, cfg)
        assert traj.n_states == n_steps + 1
        assert np.array_equal(traj.q, qs), spec.name
        assert np.array_equal(traj.p, ps), spec.name
        assert set(traj.monitors) == set(series)
        for name, values in series.items():
            assert np.array_equal(traj.monitors[name], values), (spec.name, name)


def _count_gradient_calls(monkeypatch):
    """Wrap HamiltonianSpec.gradient_qp on the class, as the benchmark's
    tracer does, and every one-point kernel bound after this call under it.
    Returns the counts: public calls, their one-point share and kernel calls
    made outside a public call."""
    from superint import core
    from superint.core import HamiltonianSpec

    counts = {"calls": 0, "one_point": 0, "bypass": 0}
    depth = [0]
    public, compiled = HamiltonianSpec.gradient_qp, core._one_point_gradient

    def gradient_qp(self, q, p):
        counts["calls"] += 1
        counts["one_point"] += isinstance(q, list) or q.ndim == 1
        depth[0] += 1
        try:
            return public(self, q, p)
        finally:
            depth[0] -= 1

    def one_point_gradient(*shape):
        make = compiled(*shape)

        def counting_make(*bound):
            kernel = make(*bound)

            def gradient_at(q, p):
                counts["bypass"] += depth[0] == 0
                return kernel(q, p)

            return gradient_at

        return counting_make

    monkeypatch.setattr(HamiltonianSpec, "gradient_qp", gradient_qp)
    monkeypatch.setattr(core, "_one_point_gradient", one_point_gradient)
    return counts


@pytest.mark.parametrize("method", ["gl2", "rk4"])
def test_integrate_makes_one_gradient_qp_call_per_stage(monkeypatch, method):
    # the benchmark's core.h_grad.calls and grad_evals_per_step count these
    # calls: 4 per RK4 step, and for GL2 1 (the first seed) plus 2 per sweep,
    # as the split-form reference, one call per stage by construction, makes
    counts = _count_gradient_calls(monkeypatch)
    spec = make_sw("poincare", mass=1.0, omega=1.1, b_tilde=[0.3, 0.0, 0.2], kappa=0.4)
    x0 = PhasePoint([0.5, 0.4, 0.3], [0.2, -0.3, 0.25])
    cfg, n_steps = IntegratorConfig(method=method, step=2e-3), 60
    traj = integrate(spec, x0, n_steps * cfg.step, cfg)
    calls = counts["calls"]
    assert counts == {"calls": calls, "one_point": calls, "bypass": 0}
    if method == "rk4":
        assert calls == 4 * n_steps
        return
    counts["calls"] = 0
    qs, ps = _reference_states(spec, x0, n_steps, cfg)
    assert np.array_equal(traj.q, qs) and np.array_equal(traj.p, ps)
    assert calls == counts["calls"]
    assert (calls - 1) % 2 == 0 and calls - 1 >= 2 * n_steps


@pytest.mark.parametrize("space, kappa", [("euclidean", 0.0), ("beltrami", 0.5),
                                          ("poincare", -0.4)])
def test_gl2_stage_seeds_and_stop_rule_cut_sweeps_not_accuracy(monkeypatch, space, kappa):
    # per-stage history seeds plus the contraction-rate stop: at most 4 stage
    # evaluations per step (previous-stage seeds and the plain d <= tol stop
    # need about 10, cubic collocation seeds 4.0 to 5.1), with the same
    # trajectory to 1e-12
    counts = _count_gradient_calls(monkeypatch)
    spec = make_evans(space, lambda s: 0.5 * s, mass=1.0,
                      b_tilde=[0.5, 0.3, 0.0], kappa=kappa)
    x0 = PhasePoint([0.6, 0.5, 0.4], [0.2, -0.3, 0.4])
    cfg, n_steps = IntegratorConfig(step=1e-3), 2000
    traj = integrate(spec, x0, n_steps * cfg.step, cfg)
    assert traj.n_states == n_steps + 1
    assert counts["calls"] / n_steps <= 4.0
    qs, ps = _reference_states(spec, x0, n_steps, cfg, legacy=True)
    assert np.max(np.abs(traj.q - qs)) <= 1e-12
    assert np.max(np.abs(traj.p - ps)) <= 1e-12


# ---------------------------------------------------------------------------
# Closure candidates: the vectorised test against the per-index loop
# ---------------------------------------------------------------------------

def _loop_closure(traj, tol):
    """detect_closure as it was, with the candidate returns collected by a
    per-index loop: the reference for the vectorised candidate test."""
    if traj.n_states < 5:
        raise InsufficientData("trajectory too short for closure analysis")
    dq = traj.q - traj.q[0]
    dp = traj.p - traj.p[0]
    d2 = np.einsum("ij,ij->i", dq, dq) + np.einsum("ij,ij->i", dp, dp)
    d2max = float(np.max(d2))
    if d2max <= 0.0:
        raise InsufficientData("orbit never leaves the initial state")
    start = int(np.flatnonzero(d2 >= 0.25 * d2max)[0])
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
                off = float(np.clip(0.5 * (d2[i - 1] - d2[i + 1]) / denom, -1.0, 1.0))
                t_star = traj.times[i] + off * (traj.times[1] - traj.times[0])
                d2_star = d2[i] - 0.125 * (d2[i + 1] - d2[i - 1]) ** 2 / denom
                refined.append((t_star, max(float(d2_star), 0.0)))
                continue
        refined.append((float(traj.times[i]), float(d2[i])))
    best_dist = math.sqrt(min(r[1] for r in refined))
    is_closed = best_dist <= tol
    period = None
    if is_closed:
        period = next(t for t, d2_star in refined
                      if math.sqrt(d2_star) <= max(2.0 * best_dist, tol))
    return ClosureReport(period, best_dist, is_closed)


def _closure_outcome(closure, traj, tol):
    try:
        return closure(traj, tol)
    except InsufficientData as err:
        return str(err)


def test_closure_candidates_on_ties_and_plateaus_are_the_loop_ones():
    # d2 = s**2 on one site: small integers make ties and plateaus, at the
    # bottom of a return, at the excursion start and at the end
    rng = np.random.default_rng(13)
    series = [
        [0, 1, 2, 3, 3, 2, 1, 1, 1, 2, 3, 2, 0, 0, 0],
        [0, 2, 2, 2, 1, 1, 2, 2, 0, 0, 1, 1],
        [0, 3, 1, 1, 3, 1, 1, 3, 0, 1, 0, 1, 0],
        [0, 1, 1, 1, 1, 1, 1],
        *(np.concatenate(([0], rng.integers(0, 4, 40))) for _ in range(60)),
    ]
    compared = 0
    for s in series:
        s = np.asarray(s, dtype=float)
        for length in range(5, s.size + 1):
            traj = Trajectory(0.1 * np.arange(length), s[:length, None],
                              np.zeros((length, 1)))
            for tol in (0.0, 0.5, math.inf):
                got = _closure_outcome(detect_closure, traj, tol)
                want = _closure_outcome(_loop_closure, traj, tol)
                assert got == want, (s[:length], tol)
                compared += isinstance(want, ClosureReport)
    assert compared > 3000
