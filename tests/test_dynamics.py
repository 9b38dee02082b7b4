import math

import numpy as np
import pytest

from superint import (
    InsufficientData,
    IntegratorConfig,
    NonConvergence,
    PhasePoint,
    SingularApproach,
    Trajectory,
    detect_closure,
    energy_quantity,
    integrate,
    kc_extra_integral,
    make_evans,
    make_garnier,
    make_kepler_coulomb,
    make_sw,
    universal_set,
)


def test_free_particle_is_exact():
    spec = make_evans("euclidean", lambda s: 0.0, lambda s: 0.0,
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
        integrate(spec, x0, 1.0, IntegratorConfig(step=1e-3))
    assert info.value.time == 0.0
    assert info.value.state is x0


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


def test_step_count_does_not_overrun_t_final():
    from superint.dynamics import step_count, whole_steps

    assert 32.2 / 1e-3 > 32200.0  # rounding puts the ratio above the integer
    assert whole_steps(32.2, 1e-3) == step_count(32.2, 1e-3) == 32200
    assert whole_steps(1.0, 0.3) is None
    assert whole_steps(1.0, 1e-320) is None  # the ratio overflows
    assert step_count(1.0, 0.3) == 4  # not a whole number: ceil, as before
    assert step_count(0.0, 1e-3) == 0
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    traj = integrate(spec, PhasePoint([1.0, 0.2], [0.1, -0.4]), 32.2,
                     IntegratorConfig(method="rk4", step=1e-3))
    assert traj.n_states == 32201
    assert traj.times[-1] == pytest.approx(32.2, rel=1e-12)


@pytest.mark.parametrize("site", [0, 1, 2, 3])
@pytest.mark.parametrize("stage", [1, 2])
def test_gl2_step_stops_on_a_nan_stage(stage, site):
    # a NaN in any stage, in the q or the p half, ends the step at once
    from superint.dynamics import _gl2_step

    calls = []

    def f(z):
        calls.append(z)
        k = 0.0 * z
        if len(calls) == stage:
            k[site] = math.nan
        return k

    z0, k0 = np.array([1.0, 0.5, -0.2, 0.3]), np.zeros(4)
    z, k1, k2 = _gl2_step(f, z0, 0.1, k0, k0, 1e-13, 100)
    assert len(calls) == 2
    assert np.isnan(z).tolist() == [i == site for i in range(4)]


def test_nan_gradient_halts_as_non_finite():
    # dF/ds turns NaN once the orbit leaves |q|**2 < 1.5
    spec = make_evans("euclidean", lambda s: 0.5 * s,
                      lambda s: 0.5 if s < 1.5 else math.nan,
                      mass=1.0, b_tilde=[0.0, 0.0])
    x0 = PhasePoint([1.0, 0.0], [1.0, 0.5])
    for method in ("gl2", "rk4"):
        with pytest.raises(SingularApproach, match="state became non-finite") as info:
            integrate(spec, x0, 3.0, IntegratorConfig(method=method, step=1e-2))
        traj = info.value.trajectory
        assert 1 < traj.n_states < 301
        assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()


@pytest.mark.parametrize("field", ["step", "fixed_point_tol", "guard_radius"])
@pytest.mark.parametrize("value", [0.0, -1e-3, math.inf, math.nan])
def test_integrator_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match="finite and positive"):
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


# ---------------------------------------------------------------------------
# Bit-exactness of the stacked steppers against separate q and p arrays
# ---------------------------------------------------------------------------

_SQRT3 = math.sqrt(3.0)
_A11, _A12 = 0.25, 0.25 - _SQRT3 / 6.0
_A21, _A22 = 0.25 + _SQRT3 / 6.0, 0.25


def _reference_gl2_step(f, q, p, h, k_seed, tol, max_iters):
    """GL2 step on four stage arrays (q and p parts of two stages)."""
    k1q, k1p, k2q, k2p = k_seed
    for _ in range(max_iters):
        y1q = q + h * (_A11 * k1q + _A12 * k2q)
        y1p = p + h * (_A11 * k1p + _A12 * k2p)
        y2q = q + h * (_A21 * k1q + _A22 * k2q)
        y2p = p + h * (_A21 * k1p + _A22 * k2p)
        n1q, n1p = f(y1q, y1p)
        n2q, n2p = f(y2q, y2p)
        delta = max(
            float(np.max(np.abs(n1q - k1q))),
            float(np.max(np.abs(n1p - k1p))),
            float(np.max(np.abs(n2q - k2q))),
            float(np.max(np.abs(n2p - k2p))),
        )
        k1q, k1p, k2q, k2p = n1q, n1p, n2q, n2p
        if delta <= tol:
            qn = q + 0.5 * h * (k1q + k2q)
            pn = p + 0.5 * h * (k1p + k2p)
            return qn, pn, (k1q, k1p, k2q, k2p)
    raise AssertionError("reference stage iteration did not converge")


def _reference_rk4_step(f, q, p, h):
    k1q, k1p = f(q, p)
    k2q, k2p = f(q + 0.5 * h * k1q, p + 0.5 * h * k1p)
    k3q, k3p = f(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
    k4q, k4p = f(q + h * k3q, p + h * k3p)
    qn = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    pn = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return qn, pn


def _reference_window_value(b, q, p, lo, hi):
    """Window Casimir through np.outer and np.sum."""
    qw, pw, bw = q[lo:hi], p[lo:hi], b[lo:hi]
    L = np.outer(qw, pw) - np.outer(pw, qw)
    val = 0.5 * float(np.sum(L * L))
    active = bw != 0.0
    if np.any(active):
        s2 = float(qw @ qw)
        qa2 = qw[active] ** 2
        val += float(np.sum(bw[active] * (s2 - qa2) / qa2))
    return val + float(np.sum(bw))


def _reference_sl2(b, q, p):
    active = b != 0.0
    jp = float(p @ p)
    if np.any(active):
        jp += float(np.sum(b[active] / q[active] ** 2))
    return float(q @ q), jp, float(q @ p)


def _reference_run(spec, x0, n_steps, cfg):
    def f(q, p):
        dq, dp = spec.gradient_qp(q, p)
        return dp, -dq

    q, p = x0.q.copy(), x0.p.copy()
    qs, ps = [q], [p]
    if cfg.method == "gl2":
        dq0, dp0 = f(q, p)
        k_seed = (dq0.copy(), dp0.copy(), dq0.copy(), dp0.copy())
    for _ in range(n_steps):
        if cfg.method == "gl2":
            q, p, k_seed = _reference_gl2_step(
                f, q, p, cfg.step, k_seed, cfg.fixed_point_tol, cfg.max_fixed_point_iters
            )
        else:
            q, p = _reference_rk4_step(f, q, p, cfg.step)
        qs.append(q)
        ps.append(p)
    qs, ps = np.array(qs), np.array(ps)
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
