import math

import numpy as np
import pytest

from superint import (
    AmbientPoint,
    ChartBoundary,
    ChartPoint,
    DomainError,
    ambient_to_beltrami,
    ambient_to_chart,
    beltrami_to_ambient,
    centrifugal_ambient,
    chart_to_ambient,
    conjugate_momenta,
    free_lagrangian,
    geodesic_distance,
    make_evans,
    metric_form,
    poincare_to_ambient,
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
    a = poincare_to_ambient([0.5, 0.0], 1.0)
    assert a.x0 == pytest.approx(0.6)
    assert a.x == pytest.approx([0.8, 0.0])

    b = beltrami_to_ambient([1.0, 0.0], 1.0)
    assert b.x0 == pytest.approx(1.0 / math.sqrt(2.0))
    assert b.x[0] == pytest.approx(1.0 / math.sqrt(2.0))

    c = beltrami_to_ambient([1.0, 0.0], -0.5)
    assert c.x0 == pytest.approx(math.sqrt(2.0))
    assert c.x0 ** 2 - 0.5 * float(c.x @ c.x) == pytest.approx(1.0, abs=1e-12)


def test_origin_maps_to_pole_antipode():
    for kappa in (1.0, -0.5, 0.0):
        for convert in (poincare_to_ambient, beltrami_to_ambient):
            a = convert([0.0, 0.0, 0.0], kappa)
            assert a.x0 == 1.0
            assert np.array_equal(a.x, np.zeros(3))


def test_flat_limit_doubles_stereographic_coordinates():
    y = np.array([0.3, -0.7])
    a = poincare_to_ambient(y, 0.0)
    assert np.allclose(a.x, 2.0 * y)
    assert a.x0 == 1.0


def test_constraint_enforced_on_construction():
    with pytest.raises(DomainError):
        AmbientPoint(0.5, [1.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        AmbientPoint(-math.sqrt(2.0), [1.0, 0.0], -1.0)


def test_round_trips():
    for kappa in (1.0, -0.5):
        for coords in random_chart_coords(3, kappa, 250):
            for chart in ("poincare", "beltrami"):
                point = ChartPoint(chart, coords)
                a = chart_to_ambient(point, kappa)
                assert abs(a.x0 ** 2 + kappa * float(a.x @ a.x) - 1.0) < 1e-12
                back = ambient_to_chart(a, chart)
                assert np.max(np.abs(back.coords - coords)) < 1e-12


def test_chart_transition_matches_ambient_route():
    for kappa in (1.0, -0.5):
        for y in random_chart_coords(2, kappa, 100):
            if abs(1.0 - kappa * float(y @ y)) < 1e-6:
                continue
            direct = poincare_to_beltrami(y, kappa)
            via_ambient = ambient_to_beltrami(poincare_to_ambient(y, kappa))
            assert np.max(np.abs(direct - via_ambient)) < 1e-12


def test_distance_hand_values():
    assert geodesic_distance(ChartPoint("beltrami", [1.0, 0.0]), 1.0) \
        == pytest.approx(math.pi / 4.0)
    assert geodesic_distance(ChartPoint("poincare", [0.5, 0.0]), 1.0) \
        == pytest.approx(math.atan(4.0 / 3.0))
    assert geodesic_distance(ChartPoint("beltrami", [0.5, 0.0]), -1.0) \
        == pytest.approx(math.atanh(0.5))
    with pytest.raises(DomainError):
        geodesic_distance(ChartPoint("beltrami", [1.0, 0.0]), -1.0)


def test_distance_agrees_across_representations():
    for kappa in (1.0, -0.5):
        for z in random_chart_coords(3, kappa, 100):
            bp = ChartPoint("beltrami", z)
            a = beltrami_to_ambient(z, kappa)
            yp = ambient_to_chart(a, "poincare")
            r1 = geodesic_distance(bp, kappa)
            r2 = geodesic_distance(a)
            r3 = geodesic_distance(yp, kappa)
            assert abs(r1 - r2) < 1e-12
            assert abs(r1 - r3) < 1e-12


def test_distance_flat_limits():
    z = np.array([0.3, 0.4])
    assert geodesic_distance(ChartPoint("beltrami", z), 0.0) == pytest.approx(0.5)
    assert geodesic_distance(ChartPoint("poincare", z), 0.0) == pytest.approx(1.0)


def test_pole_antipode_inverts_to_chart_origin():
    for kappa in (1.0, -0.5):
        a = AmbientPoint(1.0, [0.0, 0.0], kappa)
        for chart in ("poincare", "beltrami"):
            assert np.array_equal(ambient_to_chart(a, chart).coords, np.zeros(2))


def test_far_hemisphere_rejected():
    far = AmbientPoint(-0.6, [0.8, 0.0], 1.0)
    with pytest.raises(DomainError):
        geodesic_distance(far)


def chart_kinetic(chart, kappa, mass, b_tilde=(0.0, 0.0, 0.0)):
    """The kinetic term every Hamiltonian of the catalog uses: a built Evans
    system with no potential."""
    return make_evans(chart, lambda s: 0.0, lambda s: 0.0, mass=mass, b_tilde=b_tilde,
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
        a = chart_to_ambient(ChartPoint(chart, coords), kappa)
        ambient_sum = centrifugal_ambient(bt, a, chart)
        worst = max(worst, abs(chart_sum - ambient_sum) / max(1.0, abs(chart_sum)))
    assert worst < 1e-10


def test_centrifugal_trivial_cases():
    a = beltrami_to_ambient([0.4, 0.5], 0.8)
    assert centrifugal_ambient([0.0, 0.0], a, "beltrami") == 0.0
    z = np.array([0.4, 0.5])
    flat = beltrami_to_ambient(z, 0.0)
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
        poincare_to_ambient([1.0, 0.0], -1.0)
    with pytest.raises(ChartBoundary):
        beltrami_to_ambient([2.0, 0.0], -1.0)
    with pytest.raises(ChartBoundary):
        metric_form("beltrami", -1.0, [2.0, 0.0], [1.0, 0.0])
