import numpy as np
import pytest

from superint import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    PhasePoint,
    RangeError,
    SL2Realization,
    energy_quantity,
    kc_extra_integral,
    left_integral,
    make_kepler_coulomb,
    make_sw,
    max_bracket_residual,
    right_integral,
    sample_regular_points,
    sw_extra_integral,
    universal_set,
)
from superint.integrals import IntegralSet, _kc_extra_unchecked
from conftest import gradient_mismatch

RNG = np.random.default_rng(7)


def casimir_brute(b, q, p, sites):
    """Direct double loop over the window, independent of the library path."""
    total = sum(b[i] for i in sites)
    for a, i in enumerate(sites):
        for j in sites[a + 1:]:
            lij = q[i] * p[j] - q[j] * p[i]
            total += lij * lij
            if b[i] != 0.0:
                total += b[i] * q[j] ** 2 / q[i] ** 2
            if b[j] != 0.0:
                total += b[j] * q[i] ** 2 / q[j] ** 2
    return total


def test_left_hand_values():
    r0 = SL2Realization([0.0, 0.0])
    assert left_integral(r0, 2).value(PhasePoint([1.0, 0.0], [0.0, 1.0])) == 1.0
    r1 = SL2Realization([1.0, 1.0])
    x = PhasePoint([1.0, 2.0], [3.0, 4.0])
    assert left_integral(r1, 2).value(x) == pytest.approx(10.25, abs=0.0)


def test_windows_match_brute_force():
    n = 5
    b = RNG.uniform(-1.0, 1.0, n)
    b[2] = 0.0
    realization = SL2Realization(b)
    for x in sample_regular_points(10, n, RNG):
        for m in range(2, n + 1):
            left = left_integral(realization, m).value(x)
            assert left == pytest.approx(
                casimir_brute(b, x.q, x.p, list(range(m))), rel=1e-12)
            right = right_integral(realization, m).value(x)
            assert right == pytest.approx(
                casimir_brute(b, x.q, x.p, list(range(n - m, n))), rel=1e-12)


def test_b_zero_reduces_to_angular_momenta():
    n = 4
    realization = SL2Realization(np.zeros(n))
    for x in sample_regular_points(5, n, RNG):
        for m in range(2, n + 1):
            expected = sum(
                (x.q[i] * x.p[j] - x.q[j] * x.p[i]) ** 2
                for i in range(m) for j in range(i + 1, m)
            )
            assert left_integral(realization, m).value(x) == pytest.approx(expected, rel=1e-13)


def test_right_hand_values():
    r = SL2Realization([0.0, 0.0, 0.0])
    x = PhasePoint([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert right_integral(r, 2).value(x) == 1.0
    r2 = SL2Realization([0.3, -0.2])
    x2 = PhasePoint([0.7, 1.1], [0.4, -0.9])
    assert right_integral(r2, 2).value(x2) == left_integral(r2, 2).value(x2)


def test_full_window_families_coincide():
    n = 4
    realization = SL2Realization(RNG.uniform(-0.5, 1.0, n))
    ln = left_integral(realization, n)
    rn = right_integral(realization, n)
    for x in sample_regular_points(10, n, RNG):
        assert ln.value(x) == rn.value(x)
        lq, lp = ln.gradient(x)
        rq, rp = rn.gradient(x)
        assert np.array_equal(lq, rq)
        assert np.array_equal(lp, rp)


def test_range_errors():
    realization = SL2Realization([0.0, 0.0, 0.0])
    for m in (1, 0, 4, -2):
        with pytest.raises(RangeError):
            left_integral(realization, m)
        with pytest.raises(RangeError):
            right_integral(realization, m)


def test_window_gradients_vanish_outside():
    n = 5
    realization = SL2Realization(RNG.uniform(0.0, 1.0, n))
    x = sample_regular_points(1, n, RNG)[0]
    for m in range(2, n):
        dq, dp = left_integral(realization, m).gradient(x)
        assert np.array_equal(dq[m:], np.zeros(n - m))
        assert np.array_equal(dp[m:], np.zeros(n - m))
        dq, dp = right_integral(realization, m).gradient(x)
        assert np.array_equal(dq[: n - m], np.zeros(n - m))
        assert np.array_equal(dp[: n - m], np.zeros(n - m))


def test_positivity_with_nonnegative_b():
    n = 4
    b = RNG.uniform(0.0, 1.2, n)
    realization = SL2Realization(b)
    for x in sample_regular_points(10, n, RNG):
        for m in range(2, n + 1):
            assert left_integral(realization, m).value(x) >= np.sum(b[:m])


def test_window_gradients_match_differences():
    n = 4
    b = RNG.uniform(-0.8, 1.0, n)
    b[1] = 0.0
    realization = SL2Realization(b)
    points = sample_regular_points(8, n, RNG)
    for m in range(2, n + 1):
        assert gradient_mismatch(left_integral(realization, m), points) < 1e-6
        assert gradient_mismatch(right_integral(realization, m), points) < 1e-6


def test_universal_set_counts():
    for n in (2, 3, 5):
        s = universal_set(SL2Realization(np.zeros(n)))
        assert len(s.left) == n - 1
        assert len(s.right) == n - 2
        assert s.count == 2 * n - 3
    with pytest.raises(DimensionMismatch):
        IntegralSet((), (), SL2Realization(np.zeros(3)))


# ---------------------------------------------------------------------------
# Oscillator extras
# ---------------------------------------------------------------------------

def test_oscillator_extra_hand_value():
    quantity = sw_extra_integral(0, mass=1.0, omega=1.0, b_tilde=[0.0, 0.0, 0.0])
    assert quantity.value(PhasePoint([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])) == 2.0


def test_oscillator_extras_sum_to_twice_mass_energy():
    mass, omega = 1.4, 0.9
    bt = np.array([0.5, 0.2, 0.7])
    spec = make_sw("euclidean", mass=mass, omega=omega, b_tilde=bt)
    extras = [sw_extra_integral(i, mass=mass, omega=omega, b_tilde=bt) for i in range(3)]
    for x in sample_regular_points(20, 3, RNG):
        total = sum(e.value(x) for e in extras)
        assert total == pytest.approx(2.0 * mass * spec.value(x), rel=1e-12)


def test_oscillator_extras_commute_with_energy():
    mass, omega = 1.4, 0.9
    bt = np.array([0.5, 0.0, 0.7])
    spec = make_sw("euclidean", mass=mass, omega=omega, b_tilde=bt)
    h = energy_quantity(spec)
    points = sample_regular_points(20, 3, RNG)
    for i in range(3):
        quantity = sw_extra_integral(i, mass=mass, omega=omega, b_tilde=bt)
        _, norm = max_bracket_residual(h, quantity, points)
        assert norm < 1e-9


def test_curved_oscillator_extras_reduce_at_zero_curvature():
    mass, omega = 1.1, 0.8
    bt = np.array([0.4, 0.0])
    flat = sw_extra_integral(0, mass=mass, omega=omega, b_tilde=bt)
    beltrami = sw_extra_integral(
        0, mass=mass, omega=omega, b_tilde=bt, kappa=0.0, space="beltrami")
    poincare = sw_extra_integral(
        0, mass=mass, omega=omega, b_tilde=bt, kappa=0.0, space="poincare")
    for x in sample_regular_points(10, 2, RNG):
        assert beltrami.value(x) == flat.value(x)
        # the stereographic distance convention quadruples the oscillator term
        expected = x.p[0] ** 2 + 8.0 * mass * omega ** 2 * x.q[0] ** 2 \
            + mass * bt[0] / x.q[0] ** 2
        assert poincare.value(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("kappa", [1.0, -0.5])
@pytest.mark.parametrize("chart", ["poincare", "beltrami"])
def test_curved_oscillator_extras_commute(kappa, chart):
    mass, omega = 1.2, 0.7
    bt = np.array([0.5, 0.2, 0.0])
    spec = make_sw(chart, mass=mass, omega=omega, b_tilde=bt, kappa=kappa)
    h = energy_quantity(spec)
    points = sample_regular_points(20, 3, RNG, kappa=kappa, space=chart)
    for i in range(3):
        quantity = sw_extra_integral(
            i, mass=mass, omega=omega, b_tilde=bt, kappa=kappa, space=chart)
        _, norm = max_bracket_residual(h, quantity, points)
        assert norm < 1e-9


# ---------------------------------------------------------------------------
# Coulomb extras
# ---------------------------------------------------------------------------

def test_coulomb_extra_reduces_without_coupling():
    bt = np.zeros(3)
    quantity = kc_extra_integral(1, mass=1.0, k=0.0, b_tilde=bt)
    for x in sample_regular_points(10, 3, RNG):
        expected = sum(
            x.p[l] * (x.q[l] * x.p[1] - x.q[1] * x.p[l]) for l in range(3)
        )
        assert quantity.value(x) == pytest.approx(expected, rel=1e-12)


def test_coulomb_extra_hand_value():
    quantity = kc_extra_integral(0, mass=1.0, k=1.0, b_tilde=[0.0, 0.0])
    assert quantity.value(PhasePoint([1.0, 0.0], [0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)


def test_coulomb_extra_validity_condition():
    with pytest.raises(ConfigError):
        kc_extra_integral(0, mass=1.0, k=1.0, b_tilde=[0.5, 0.0])
    with pytest.raises(ConfigError):
        kc_extra_integral(
            0, mass=1.0, k=1.0, b_tilde=[0.5, 0.0], kappa=0.5, space="beltrami")


def test_coulomb_extras_commute_with_energy():
    mass, k = 1.3, 0.8
    bt = np.array([0.0, 0.6, 0.4])
    spec = make_kepler_coulomb("euclidean", mass=mass, k=k, b_tilde=bt)
    h = energy_quantity(spec)
    points = sample_regular_points(20, 3, RNG)
    quantity = kc_extra_integral(0, mass=mass, k=k, b_tilde=bt)
    _, norm = max_bracket_residual(h, quantity, points)
    assert norm < 1e-9


def test_coulomb_mutation_is_not_conserved():
    mass, k = 1.3, 0.8
    bt = np.array([0.5, 0.6, 0.4])
    spec = make_kepler_coulomb("euclidean", mass=mass, k=k, b_tilde=bt)
    h = energy_quantity(spec)
    points = sample_regular_points(20, 3, RNG)
    bad = _kc_extra_unchecked(0, mass=mass, k=k, b_tilde=bt)
    _, norm = max_bracket_residual(h, bad, points)
    assert norm > 1e-3


def test_curved_coulomb_extras_reduce_at_zero_curvature():
    mass, k = 1.0, 0.9
    bt = np.array([0.0, 0.7])
    flat = kc_extra_integral(0, mass=mass, k=k, b_tilde=bt)
    beltrami = kc_extra_integral(
        0, mass=mass, k=k, b_tilde=bt, kappa=0.0, space="beltrami")
    for x in sample_regular_points(10, 2, RNG):
        assert beltrami.value(x) == pytest.approx(flat.value(x), rel=1e-15)


@pytest.mark.parametrize("kappa", [0.5, -0.5])
@pytest.mark.parametrize("chart", ["poincare", "beltrami"])
def test_curved_coulomb_extras_commute(kappa, chart):
    mass, k = 1.1, 0.9
    bt = np.array([0.0, 0.0, 0.0])
    spec = make_kepler_coulomb(chart, mass=mass, k=k, b_tilde=bt, kappa=kappa)
    h = energy_quantity(spec)
    points = sample_regular_points(20, 3, RNG, kappa=kappa, space=chart)
    for i in range(3):
        quantity = kc_extra_integral(
            i, mass=mass, k=k, b_tilde=bt, kappa=kappa, space=chart)
        _, norm = max_bracket_residual(h, quantity, points)
        assert norm < 1e-9


def test_extra_gradients_match_differences():
    bt = np.array([0.4, 0.0, 0.9])
    flat_points = sample_regular_points(6, 3, RNG)
    quantities = [
        sw_extra_integral(0, mass=1.3, omega=0.8, b_tilde=bt),
        kc_extra_integral(1, mass=1.3, k=0.7, b_tilde=bt),
    ]
    for quantity in quantities:
        assert gradient_mismatch(quantity, flat_points) < 1e-6
    for chart in ("poincare", "beltrami"):
        for kappa in (1.0, -0.5):
            points = sample_regular_points(6, 3, RNG, kappa=kappa, space=chart)
            sw_q = sw_extra_integral(
                0, mass=1.3, omega=0.8, b_tilde=bt, kappa=kappa, space=chart)
            kc_q = kc_extra_integral(
                1, mass=1.3, k=0.7, b_tilde=bt, kappa=kappa, space=chart)
            assert gradient_mismatch(sw_q, points) < 1e-6
            assert gradient_mismatch(kc_q, points) < 1e-6


def test_every_barrier_check_names_the_global_coordinate():
    """H, a right window, I_3 on each space and an L_i whose other barrier is
    hit all reach the one axis guard, with the same message."""
    b = [0.3, 0.4, 0.5, 0.6]
    q, p = np.array([0.5, 0.7, 0.0, 0.9]), np.array([0.2, -0.1, 0.3, 0.4])
    one = r"^q_3 = 0\.0 lies on a coordinate plane with b_3 != 0$"
    qs = np.array([[0.5, 0.7, 0.6, 0.9], q, q])
    ps = np.array([p, p, p])
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=b)
    window = right_integral(spec.realization, 2)
    calls = [spec.value_qp, spec.gradient_qp, window.value_fn, window.gradient_fn]
    for space, kappa in (("euclidean", 0.0), ("beltrami", 0.5), ("poincare", 0.5)):
        extra = sw_extra_integral(2, mass=1.0, omega=1.0, b_tilde=b, kappa=kappa,
                                  space=space)
        lrl = kc_extra_integral(0, mass=1.0, k=1.0, b_tilde=[0.0, *b[1:]], kappa=kappa,
                                space=space)
        calls += [extra.value_fn, extra.gradient_fn, lrl.value_fn, lrl.gradient_fn]
    for call in calls:
        with pytest.raises(DomainError, match=one):
            call(q, p)
    with pytest.raises(DomainError, match=r"^point 1: " + one[1:]):
        window.gradient_fn(qs, ps)
