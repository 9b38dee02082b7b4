import math

import numpy as np
import pytest

from superint import (
    BELTRAMI,
    POINCARE,
    ChartBoundary,
    DomainError,
    ambient_to_chart,
    centrifugal_ambient,
    chart_to_ambient,
    conjugate_momenta,
    free_lagrangian,
    geodesic_distance,
    make_evans,
    metric_form,
    poincare_to_beltrami,
)

RNG = np.random.default_rng(11)


def random_chart_coords(n, kappa, count):
    """Coordinates safely inside the chart (and the x0 > 0 hemisphere)."""
    limit = 1.0 / abs(kappa) if kappa != 0.0 else None
    out = []
    while len(out) < count:
        c = RNG.uniform(-1.0, 1.0, n)
        if limit is not None and float(c @ c) > 0.6 * limit:
            continue
        out.append(c)
    return out


def test_projection_hand_values():
    x0, x = chart_to_ambient(POINCARE, 1.0, [0.5, 0.0])
    assert x0 == pytest.approx(0.6)
    assert x == pytest.approx([0.8, 0.0])

    x0, x = chart_to_ambient(BELTRAMI, 1.0, [1.0, 0.0])
    assert x0 == pytest.approx(1.0 / math.sqrt(2.0))
    assert x[0] == pytest.approx(1.0 / math.sqrt(2.0))

    x0, x = chart_to_ambient(BELTRAMI, -0.5, [1.0, 0.0])
    assert x0 == pytest.approx(math.sqrt(2.0))
    assert x0 ** 2 - 0.5 * float(x @ x) == pytest.approx(1.0, abs=1e-12)


def test_origin_maps_to_pole_antipode():
    for kappa in (1.0, -0.5, 0.0):
        for chart in (POINCARE, BELTRAMI):
            x0, x = chart_to_ambient(chart, kappa, [0.0, 0.0, 0.0])
            assert x0 == 1.0
            assert np.array_equal(x, np.zeros(3))


def test_flat_limit_doubles_stereographic_coordinates():
    y = np.array([0.3, -0.7])
    x0, x = chart_to_ambient(POINCARE, 0.0, y)
    assert np.allclose(x, 2.0 * y)
    assert x0 == 1.0


def test_constraint_enforced_on_construction():
    for chart in (POINCARE, BELTRAMI):
        with pytest.raises(DomainError):
            ambient_to_chart(chart, 1.0, 0.5, [1.0, 0.0])
        with pytest.raises(DomainError):
            ambient_to_chart(chart, -1.0, -math.sqrt(2.0), [1.0, 0.0])


def test_round_trips():
    for kappa in (1.0, -0.5):
        for coords in random_chart_coords(3, kappa, 250):
            for chart in ("poincare", "beltrami"):
                x0, x = chart_to_ambient(chart, kappa, coords)
                assert abs(x0 ** 2 + kappa * float(x @ x) - 1.0) < 1e-12
                back = ambient_to_chart(chart, kappa, x0, x)
                assert np.max(np.abs(back - coords)) < 1e-12


def test_chart_transition_matches_ambient_route():
    for kappa in (1.0, -0.5):
        for y in random_chart_coords(2, kappa, 100):
            if abs(1.0 - kappa * float(y @ y)) < 1e-6:
                continue
            direct = poincare_to_beltrami(y, kappa)
            via_ambient = ambient_to_chart(BELTRAMI, kappa,
                                           *chart_to_ambient(POINCARE, kappa, y))
            assert np.max(np.abs(direct - via_ambient)) < 1e-12


def test_distance_hand_values():
    assert geodesic_distance([1.0, 0.0], 1.0) == pytest.approx(math.pi / 4.0)
    assert geodesic_distance(poincare_to_beltrami([0.5, 0.0], 1.0), 1.0) \
        == pytest.approx(math.atan(4.0 / 3.0))
    assert geodesic_distance([0.5, 0.0], -1.0) == pytest.approx(math.atanh(0.5))
    with pytest.raises(DomainError):
        geodesic_distance([1.0, 0.0], -1.0)


def test_distance_agrees_across_representations():
    for kappa in (1.0, -0.5):
        for z in random_chart_coords(3, kappa, 100):
            x0, x = chart_to_ambient(BELTRAMI, kappa, z)
            y = ambient_to_chart(POINCARE, kappa, x0, x)
            r1 = geodesic_distance(z, kappa)
            r2 = geodesic_distance(ambient_to_chart(BELTRAMI, kappa, x0, x), kappa)
            r3 = geodesic_distance(poincare_to_beltrami(y, kappa), kappa)
            assert abs(r1 - r2) < 1e-12
            assert abs(r1 - r3) < 1e-12


def test_distance_flat_limits():
    z = np.array([0.3, 0.4])
    assert geodesic_distance(z, 0.0) == pytest.approx(0.5)
    assert geodesic_distance(poincare_to_beltrami(z, 0.0), 0.0) == pytest.approx(1.0)


def test_pole_antipode_inverts_to_chart_origin():
    for kappa in (1.0, -0.5):
        for chart in ("poincare", "beltrami"):
            assert np.array_equal(ambient_to_chart(chart, kappa, 1.0, [0.0, 0.0]),
                                  np.zeros(2))


def test_far_hemisphere_rejected():
    with pytest.raises(DomainError):
        ambient_to_chart(BELTRAMI, 1.0, -0.6, [0.8, 0.0])


def test_far_hemisphere_rejected_on_the_chart_route():
    # y = (2, 0) at kappa = 1 is the ambient point (-0.6, (0.8, 0)), whose
    # distance acos(-0.6) is past the quarter turn the Beltrami chart reaches
    y = [2.0, 0.0]
    with pytest.raises(DomainError):
        poincare_to_beltrami(y, 1.0)
    assert chart_to_ambient(POINCARE, 1.0, y)[0] == pytest.approx(-0.6)
    with pytest.raises(DomainError):
        poincare_to_beltrami([1.0, 0.0], 1.0)  # the equator
    x0, x = chart_to_ambient(POINCARE, 1.0, [0.999, 0.0])
    assert geodesic_distance(poincare_to_beltrami([0.999, 0.0], 1.0), 1.0) \
        == pytest.approx(math.acos(x0), rel=1e-12)


def chart_kinetic(chart, kappa, mass, b_tilde=(0.0, 0.0, 0.0)):
    """The kinetic term every Hamiltonian of the catalog uses: a built Evans
    system with no potential."""
    return make_evans(chart, lambda s: 0.0, mass=mass, b_tilde=b_tilde,
                      kappa=kappa)


def test_kinetic_flat_limit():
    q, p = np.array([0.4, -0.2]), np.array([3.0, 4.0])
    for chart in ("poincare", "beltrami"):
        assert chart_kinetic(chart, 0.0, 1.0, [0.0, 0.0]).value_qp(q, p) \
            == pytest.approx(12.5)
    b = [0.5, 0.2]
    expected = 12.5 + 0.5 * (0.5 / 0.4 ** 2 + 0.2 / 0.2 ** 2)
    assert chart_kinetic("beltrami", 0.0, 1.0, b).value_qp(q, p) == pytest.approx(expected)


def lagrangian_oracle(chart, kappa, mass, pos, vel):
    """The two free-Lagrangian displays, written out directly."""
    c2 = float(pos @ pos)
    denom = 1.0 + kappa * c2
    if chart == "poincare":
        return mass * float(vel @ vel) / (2.0 * denom ** 2)
    zv = float(pos @ vel)
    return mass * (denom * float(vel @ vel) - kappa * zv * zv) / (2.0 * denom ** 2)


@pytest.mark.parametrize("kappa", [0.7, -0.7])
@pytest.mark.parametrize("chart", ["poincare", "beltrami"])
def test_legendre_consistency(kappa, chart, mass=1.3):
    worst = 0.0
    for pos in random_chart_coords(3, kappa, 100):
        vel = RNG.uniform(-1.5, 1.5, 3)
        momenta = conjugate_momenta(chart, kappa, mass, pos, vel)
        kinetic = chart_kinetic(chart, kappa, mass).value_qp(pos, momenta)
        lagrangian = lagrangian_oracle(chart, kappa, mass, np.asarray(pos), vel)
        assert free_lagrangian(chart, kappa, mass, pos, vel) \
            == pytest.approx(lagrangian, rel=1e-13)
        worst = max(worst, abs(kinetic - lagrangian) / max(1.0, abs(lagrangian)))
    assert worst < 1e-10


def test_conjugate_momenta_hand_values():
    assert np.allclose(
        conjugate_momenta("beltrami", 0.0, 2.0, [0.3, 0.1], [1.0, -1.0]),
        [2.0, -2.0],
    )
    p = conjugate_momenta("beltrami", 1.0, 1.0, [0.5, 0.0], [1.0, 0.0])
    assert p == pytest.approx([0.64, 0.0])
    assert np.array_equal(
        conjugate_momenta("poincare", 0.9, 1.0, [0.2, 0.4], [0.0, 0.0]),
        np.zeros(2),
    )


@pytest.mark.parametrize("kappa", [0.7, -0.7])
@pytest.mark.parametrize("chart", ["poincare", "beltrami"])
def test_centrifugal_ambient_identity(kappa, chart):
    bt = np.array([0.8, 0.0, 1.3])
    worst = 0.0
    for coords in random_chart_coords(3, kappa, 100):
        if np.any(np.abs(coords[bt != 0.0]) < 0.05):
            continue
        c2 = float(coords @ coords)
        one = 1.0 + kappa * c2
        active = bt != 0.0
        if chart == "poincare":
            chart_sum = float(np.sum(bt[active] * one ** 2 / (2.0 * coords[active] ** 2)))
        else:
            chart_sum = float(np.sum(bt[active] * one / (2.0 * coords[active] ** 2)))
        _, x = chart_to_ambient(chart, kappa, coords)
        ambient_sum = centrifugal_ambient(bt, x, chart)
        worst = max(worst, abs(chart_sum - ambient_sum) / max(1.0, abs(chart_sum)))
    assert worst < 1e-10


def test_centrifugal_trivial_cases():
    _, x = chart_to_ambient(BELTRAMI, 0.8, [0.4, 0.5])
    assert centrifugal_ambient([0.0, 0.0], x, "beltrami") == 0.0
    z = np.array([0.4, 0.5])
    _, flat = chart_to_ambient(BELTRAMI, 0.0, z)
    bt = np.array([0.3, 0.7])
    assert centrifugal_ambient(bt, flat, "beltrami") == pytest.approx(
        float(np.sum(bt / (2.0 * z ** 2))))


def test_metric_forms_agree_across_charts():
    # velocities pushed through z = 2y / (1 - kappa y^2)
    for kappa in (0.8, -0.6):
        worst = 0.0
        for y in random_chart_coords(3, kappa, 50):
            if abs(1.0 - kappa * float(y @ y)) < 0.1:
                continue
            vy = RNG.uniform(-1.0, 1.0, 3)
            denom = 1.0 - kappa * float(y @ y)
            z = 2.0 * y / denom
            vz = 2.0 * vy / denom + 4.0 * kappa * float(y @ vy) * y / denom ** 2
            gp = metric_form("poincare", kappa, y, vy)
            gb = metric_form("beltrami", kappa, z, vz)
            worst = max(worst, abs(gp - gb) / max(1.0, abs(gp)))
        assert worst < 1e-10


def test_kinetic_energies_converge_to_flat():
    q, p = np.array([0.4, -0.6, 0.3]), np.array([0.8, 0.2, -1.1])
    for chart in ("poincare", "beltrami"):
        tiny = chart_kinetic(chart, 1e-6, 1.2).value_qp(q, p)
        flat = chart_kinetic(chart, 0.0, 1.2).value_qp(q, p)
        assert abs(tiny - flat) / abs(flat) < 1e-4


def test_chart_boundary_errors():
    with pytest.raises(ChartBoundary):
        chart_to_ambient(POINCARE, -1.0, [1.0, 0.0])
    with pytest.raises(ChartBoundary):
        chart_to_ambient(BELTRAMI, -1.0, [2.0, 0.0])
    with pytest.raises(ChartBoundary):
        metric_form("beltrami", -1.0, [2.0, 0.0], [1.0, 0.0])
