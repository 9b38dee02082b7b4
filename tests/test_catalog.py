import math

import numpy as np
import pytest

from superint import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    PhasePoint,
    SystemDescriptor,
    build,
    em_fields,
    energy_quantity,
    extra_integral,
    make_electromagnetic,
    make_evans,
    make_garnier,
    make_kepler_coulomb,
    make_nonlinear_oscillator,
    make_sw,
    make_variable_mass,
    max_bracket_residual,
    poly_profile,
    sample_regular_points,
    universal_set,
)
from superint.catalog import FAMILIES

RNG = np.random.default_rng(99)


def test_sw_values_across_spaces():
    x = PhasePoint([0.5, 0.0], [0.0, 0.0])
    poincare = make_sw("poincare", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert poincare.value(x) == pytest.approx(16.0 / 9.0)
    beltrami = make_sw("beltrami", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert beltrami.value(PhasePoint([1.0, 0.0], [0.0, 0.0])) == pytest.approx(1.0)


def test_kepler_coulomb_values_across_spaces():
    flat = make_kepler_coulomb("euclidean", mass=1.0, k=1.0, b_tilde=[0.0, 0.0])
    assert flat.value(PhasePoint([1.0, 0.0], [0.0, 0.0])) == pytest.approx(-1.0)
    beltrami = make_kepler_coulomb("beltrami", mass=1.0, k=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert beltrami.value(PhasePoint([1.0, 0.0], [0.0, 0.0])) == pytest.approx(-1.0)
    poincare = make_kepler_coulomb("poincare", mass=1.0, k=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert poincare.value(PhasePoint([0.5, 0.0], [0.0, 0.0])) == pytest.approx(-0.75)


def test_garnier_values():
    flat = make_garnier("euclidean", mass=1.0, omega=0.0, delta=1.0, b_tilde=[0.0, 0.0])
    assert flat.value(PhasePoint([1.0, 1.0], [0.0, 0.0])) == pytest.approx(4.0)
    curved = make_garnier("poincare", mass=1.0, omega=0.0, delta=1.0,
                          b_tilde=[0.0, 0.0], kappa=1.0)
    assert curved.value(PhasePoint([0.5, 0.0], [0.0, 0.0])) \
        == pytest.approx(16.0 * 0.0625 / 0.75 ** 4)


@pytest.mark.parametrize("space,kappa", [("euclidean", 0.0), ("beltrami", -0.4),
                                         ("poincare", 0.8)])
def test_evans_with_quadratic_profile_is_oscillator(space, kappa):
    w2 = 1.21
    bt = [0.3, 0.0, 0.6]
    evans = make_evans(space, lambda s: w2 * s, lambda s: w2,
                       mass=1.1, b_tilde=bt, kappa=kappa)
    sw = make_sw(space, mass=1.1, omega=1.1, b_tilde=bt, kappa=kappa)
    for x in sample_regular_points(10, 3, RNG, kappa=kappa, space=space):
        assert evans.value(x) == pytest.approx(sw.value(x), rel=1e-14)
        eq, ep = evans.gradient(x)
        sq, sp = sw.gradient(x)
        assert np.allclose(eq, sq, rtol=1e-13)
        assert np.allclose(ep, sp, rtol=1e-13)


def test_free_profile_gives_kinetic_only():
    spec = make_evans("euclidean", lambda s: 0.0, lambda s: 0.0,
                      mass=2.0, b_tilde=[0.4, 0.0])
    x = PhasePoint([0.5, 0.7], [1.0, -1.0])
    expected = (1.0 + 1.0 + 2.0 * 0.4 / 0.25) / 4.0
    assert spec.value(x) == pytest.approx(expected)


def test_quartic_reduces_to_oscillator():
    bt = [0.2, 0.5]
    garnier = make_garnier("euclidean", mass=1.3, omega=0.7, delta=0.0, b_tilde=bt)
    sw = make_sw("euclidean", mass=1.3, omega=0.7, b_tilde=bt)
    for x in sample_regular_points(10, 2, RNG):
        assert garnier.value(x) == sw.value(x)


def test_series_oscillator_matches_quartic_truncation():
    bt = [0.2, 0.5]
    series = make_nonlinear_oscillator("beltrami", mass=1.0, omega=0.9,
                                       deltas=(0.4,), b_tilde=bt, kappa=0.6)
    garnier = make_garnier("beltrami", mass=1.0, omega=0.9, delta=0.4,
                           b_tilde=bt, kappa=0.6)
    for x in sample_regular_points(10, 2, RNG, kappa=0.6, space="beltrami"):
        assert series.value(x) == pytest.approx(garnier.value(x), rel=1e-14)
    higher = make_nonlinear_oscillator("euclidean", mass=1.0, omega=0.0,
                                       deltas=(0.0, 1.0), b_tilde=[0.0, 0.0])
    assert higher.value(PhasePoint([1.0, 1.0], [0.0, 0.0])) == pytest.approx(8.0)


def test_electromagnetic_reductions():
    bt = [0.3, 0.0, 0.2]
    f, fp = poly_profile([0.0, 0.4, 0.1])
    zero = lambda s: 0.0
    em = make_electromagnetic(mass=1.2, charge=1.0,
                              scalar_profile=f, scalar_profile_deriv=fp,
                              vector_profile=zero, vector_profile_deriv=zero,
                              b_tilde=bt)
    evans = make_evans("euclidean", f, fp, mass=1.2, b_tilde=bt)
    for x in sample_regular_points(10, 3, RNG):
        assert em.value(x) == pytest.approx(evans.value(x), rel=1e-14)

    c = 0.7
    em_const = make_electromagnetic(mass=1.0, charge=2.0,
                                    scalar_profile=f, scalar_profile_deriv=fp,
                                    vector_profile=lambda s: c,
                                    vector_profile_deriv=zero, b_tilde=bt)
    for x in sample_regular_points(10, 3, RNG):
        q2 = float(x.q @ x.q)
        barriers = sum(b / (2.0 * qi ** 2) for b, qi in zip(bt, x.q) if b != 0.0)
        expected = 0.5 * float(x.p @ x.p) - 2.0 * c * float(x.q @ x.p) \
            + 2.0 * f(q2) + barriers
        assert em_const.value(x) == pytest.approx(expected, rel=1e-13)


def test_electromagnetic_keeps_universal_integrals():
    bt = [0.3, 0.1, 0.2]
    g, gp = poly_profile([0.0, 1.0])
    f, fp = poly_profile([0.0, 0.0, 1.0])
    em = make_electromagnetic(mass=1.0, charge=0.8,
                              scalar_profile=f, scalar_profile_deriv=fp,
                              vector_profile=g, vector_profile_deriv=gp,
                              b_tilde=bt)
    h = energy_quantity(em)
    points = sample_regular_points(20, 3, RNG)
    for c in universal_set(em.realization).all:
        _, norm = max_bracket_residual(h, c, points)
        assert norm < 1e-9


def test_em_fields_trivial_profile():
    zero = lambda s: 0.0
    f, fp = poly_profile([0.0, 1.0])
    fields = em_fields([0.3, -0.5, 0.8], mass=1.0, charge=1.0,
                       scalar_profile=f, scalar_profile_deriv=fp,
                       vector_profile=zero, vector_profile_deriv=zero,
                       b_tilde=[0.0, 0.0, 0.0])
    assert np.allclose(fields.E, -2.0 * np.array([0.3, -0.5, 0.8]))
    assert np.array_equal(fields.H, np.zeros(3))
    assert np.array_equal(fields.A, np.zeros(3))


def test_em_fields_match_difference_gradient_of_psi():
    f, fp = poly_profile([0.0, 0.5, 0.2])
    g, gp = poly_profile([0.0, 1.0])
    bt = [0.4, 0.0, 0.7]

    def psi_at(q):
        return em_fields(q, mass=1.3, charge=0.9,
                         scalar_profile=f, scalar_profile_deriv=fp,
                         vector_profile=g, vector_profile_deriv=gp,
                         b_tilde=bt).psi

    for x in sample_regular_points(10, 3, RNG):
        fields = em_fields(x.q, mass=1.3, charge=0.9,
                           scalar_profile=f, scalar_profile_deriv=fp,
                           vector_profile=g, vector_profile_deriv=gp,
                           b_tilde=bt)
        grad = np.zeros(3)
        for i in range(3):
            h = 1e-6 * max(1.0, abs(x.q[i]))
            hi, lo = x.q.copy(), x.q.copy()
            hi[i] += h
            lo[i] -= h
            grad[i] = (psi_at(hi) - psi_at(lo)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fields.E))))
        assert np.max(np.abs(fields.E + grad)) / scale < 1e-6


def test_em_vector_potential_is_curl_free():
    g, gp = poly_profile([0.2, 0.8])

    def a_at(q):
        zero = lambda s: 0.0
        return em_fields(q, mass=1.0, charge=1.0,
                         scalar_profile=zero, scalar_profile_deriv=zero,
                         vector_profile=g, vector_profile_deriv=gp,
                         b_tilde=[0.0, 0.0, 0.0]).A

    for x in sample_regular_points(10, 3, RNG):
        jac = np.zeros((3, 3))
        for i in range(3):
            h = 1e-7 * max(1.0, abs(x.q[i]))
            hi, lo = x.q.copy(), x.q.copy()
            hi[i] += h
            lo[i] -= h
            jac[:, i] = (a_at(hi) - a_at(lo)) / (2.0 * h)
        curl = np.array([jac[2, 1] - jac[1, 2],
                         jac[0, 2] - jac[2, 0],
                         jac[1, 0] - jac[0, 1]])
        assert np.max(np.abs(curl)) < 1e-7


@pytest.mark.parametrize("key", ["mass", "charge"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_em_fields_reject_non_finite_parameters(key, value):
    f, fp = poly_profile([0.0, 1.0])
    params = {"mass": 1.0, "charge": 1.0, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        em_fields([0.3, -0.5, 0.8], scalar_profile=f, scalar_profile_deriv=fp,
                  vector_profile=f, vector_profile_deriv=fp, b_tilde=[0.0, 0.0, 0.0],
                  **params)


def test_em_fields_need_three_dimensions():
    zero = lambda s: 0.0
    with pytest.raises(DimensionMismatch):
        em_fields([1.0, 2.0], mass=1.0, charge=1.0,
                  scalar_profile=zero, scalar_profile_deriv=zero,
                  vector_profile=zero, vector_profile_deriv=zero,
                  b_tilde=[0.0, 0.0])


def test_variable_mass_constant_profile_is_evans():
    m = 1.4
    f, fp = poly_profile([0.0, 0.6])
    bt = np.array([0.5, 0.2])
    vm = make_variable_mass(mass_profile=lambda s: m, mass_profile_deriv=lambda s: 0.0,
                            potential=f, potential_deriv=fp, b=m * bt)
    evans = make_evans("euclidean", f, fp, mass=m, b_tilde=bt)
    for x in sample_regular_points(10, 2, RNG):
        assert vm.value(x) == pytest.approx(evans.value(x), rel=1e-14)


def test_variable_mass_reproduces_chart_kinetic():
    m, kappa = 1.2, 0.7
    vm = make_variable_mass(
        mass_profile=lambda s: m / (1.0 + kappa * s) ** 2,
        mass_profile_deriv=lambda s: -2.0 * kappa * m / (1.0 + kappa * s) ** 3,
        potential=lambda s: 0.0, potential_deriv=lambda s: 0.0,
        b=[0.0, 0.0, 0.0],
    )
    chart = make_evans("poincare", lambda s: 0.0, lambda s: 0.0, mass=m,
                       b_tilde=[0.0, 0.0, 0.0], kappa=kappa)
    for x in sample_regular_points(10, 3, RNG, kappa=kappa, space="poincare"):
        assert vm.value(x) == pytest.approx(chart.value(x), rel=1e-13)


def test_variable_mass_keeps_universal_integrals():
    vm = make_variable_mass(
        mass_profile=lambda s: 1.0 + s, mass_profile_deriv=lambda s: 1.0,
        potential=lambda s: 0.3 * s, potential_deriv=lambda s: 0.3,
        b=[0.4, 0.0, 0.6],
    )
    h = energy_quantity(vm)
    points = sample_regular_points(20, 3, RNG)
    for c in universal_set(vm.realization).all:
        _, norm = max_bracket_residual(h, c, points)
        assert norm < 1e-9


def test_variable_mass_positivity_guard():
    vm = make_variable_mass(
        mass_profile=lambda s: 1.0 - s, mass_profile_deriv=lambda s: -1.0,
        potential=lambda s: 0.0, potential_deriv=lambda s: 0.0,
        b=[0.0, 0.0],
    )
    with pytest.raises(DomainError):
        vm.value(PhasePoint([1.0, 1.0], [0.0, 0.0]))


def test_flat_limit_matches_euclidean_exactly():
    bt = [0.5, 0.0, 0.8]
    pairs = [
        (make_sw("beltrami", mass=1.1, omega=0.9, b_tilde=bt, kappa=0.0),
         make_sw("euclidean", mass=1.1, omega=0.9, b_tilde=bt)),
        (make_garnier("beltrami", mass=1.0, omega=0.7, delta=0.4, b_tilde=bt, kappa=0.0),
         make_garnier("euclidean", mass=1.0, omega=0.7, delta=0.4, b_tilde=bt)),
        (make_kepler_coulomb("beltrami", mass=1.0, k=0.8, b_tilde=bt, kappa=0.0),
         make_kepler_coulomb("euclidean", mass=1.0, k=0.8, b_tilde=bt)),
    ]
    for curved, flat in pairs:
        for x in sample_regular_points(10, 3, RNG):
            assert curved.value(x) == flat.value(x)
            cq, cp = curved.gradient(x)
            fq, fp_ = flat.gradient(x)
            assert np.array_equal(cq, fq)
            assert np.array_equal(cp, fp_)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=0.5)
    with pytest.raises(ConfigError):
        make_sw("beltrami", mass=-1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=0.5)
    with pytest.raises(ConfigError):
        make_sw("klein", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])


# family -> (constructor, keyword arguments); every argument but `space` is
# a parameter or profile the descriptor must see as finite
_FINITE_CASES = {
    "evans": (lambda **kw: make_evans(profile=lambda s: s, profile_deriv=lambda s: 1.0, **kw),
              {"space": "beltrami", "mass": 1.0, "kappa": 0.5}),
    "sw": (make_sw, {"space": "beltrami", "mass": 1.0, "omega": 1.0, "kappa": 0.5}),
    "garnier": (make_garnier, {"space": "poincare", "mass": 1.0, "omega": 1.0,
                               "delta": 0.1, "kappa": -0.5}),
    "oscillator": (make_nonlinear_oscillator, {"space": "poincare", "mass": 1.0, "omega": 1.0,
                                               "deltas": (0.1, 0.2), "kappa": 0.5}),
    "kepler_coulomb": (make_kepler_coulomb, {"space": "beltrami", "mass": 1.0, "k": 1.0,
                                             "kappa": -0.5}),
    "electromagnetic": (
        lambda **kw: make_electromagnetic(
            scalar_profile=lambda s: s, scalar_profile_deriv=lambda s: 1.0,
            vector_profile=lambda s: s, vector_profile_deriv=lambda s: 1.0, **kw),
        {"mass": 1.0, "charge": 1.0}),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("family,key", [
    (family, key) for family, (_, kwargs) in _FINITE_CASES.items()
    for key in kwargs if key != "space"
])
def test_constructors_reject_non_finite_parameters(family, key, bad):
    make, kwargs = _FINITE_CASES[family]
    kwargs = dict(kwargs)
    kwargs[key] = (kwargs[key][0], bad) if key == "deltas" else bad
    with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
        make(b_tilde=[0.2, 0.0, 0.3], **kwargs)


def test_descriptor_extra_axes():
    sw = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.2, 0.3, 0.4])
    assert sw.descriptor.ms_axes == (0, 1, 2)
    kc = make_kepler_coulomb("euclidean", mass=1.0, k=1.0, b_tilde=[0.5, 0.0, 0.7])
    assert kc.descriptor.ms_axes == (1,)
    # built directly, a descriptor derives the same axes as its constructor
    direct = SystemDescriptor("sw", "euclidean", {"mass": 1.0, "omega": 1.0}, [0.2, 0.3])
    assert direct.ms_axes == (0, 1)
    assert direct.ms_axes == build(direct).descriptor.ms_axes
    direct_kc = SystemDescriptor("kepler_coulomb", "beltrami",
                                 {"mass": 1.0, "k": 1.0, "kappa": 0.5}, [0.0, 0.4, 0.0])
    assert direct_kc.ms_axes == (0, 2)
    assert direct_kc.ms_axes == build(direct_kc).descriptor.ms_axes
    garnier = SystemDescriptor("garnier", "euclidean",
                               {"mass": 1.0, "omega": 1.0, "delta": 0.1}, [0.0, 0.0])
    assert garnier.ms_axes == ()


def test_build_round_trips_each_family():
    bt = np.array([0.4, 0.0, 0.6])
    descriptors = [
        SystemDescriptor("sw", "beltrami", {"mass": 1.1, "omega": 0.8, "kappa": -0.4}, bt),
        SystemDescriptor("garnier", "euclidean",
                         {"mass": 1.0, "omega": 1.0, "delta": 0.2, "kappa": 0.0}, bt),
        SystemDescriptor("oscillator", "poincare",
                         {"mass": 1.0, "omega": 0.9, "kappa": 0.5}, bt,
                         profiles={"deltas": (0.1, 0.02)}),
        SystemDescriptor("kepler_coulomb", "poincare",
                         {"mass": 1.0, "k": 0.7, "kappa": 0.5}, bt),
        SystemDescriptor("evans", "euclidean", {"mass": 1.2, "kappa": 0.0}, bt,
                         profiles={"potential": (0.0, 0.3, 0.1)}),
        SystemDescriptor("electromagnetic", "euclidean",
                         {"mass": 1.0, "charge": 0.9, "kappa": 0.0}, bt,
                         profiles={"potential": (0.0, 1.0), "vector": (0.0, 0.5)}),
        SystemDescriptor("variable_mass", "euclidean", {"kappa": 0.0}, bt,
                         profiles={"mass_profile": (1.0, 0.5), "potential": (0.0, 0.2)}),
    ]
    for desc in descriptors:
        spec = build(desc)
        kappa = desc.kappa
        space = desc.space
        for x in sample_regular_points(5, 3, RNG, kappa=kappa, space=space):
            assert np.isfinite(spec.value(x))
    with pytest.raises(ConfigError):
        build(SystemDescriptor("unknown", "euclidean", {}, bt))
    with pytest.raises(ConfigError):
        build(SystemDescriptor("electromagnetic", "beltrami",
                               {"mass": 1.0, "charge": 1.0, "kappa": 0.3}, bt,
                               profiles={"potential": (0.0, 1.0), "vector": (0.0,)}))


def test_extra_integral_dispatch():
    # the names appear in verify reports and trajectory headers
    for space, kappa, suffix in (("euclidean", 0.0, ""), ("beltrami", 0.5, "^B"),
                                 ("poincare", -0.5, "^P")):
        sw = make_sw(space, mass=1.0, omega=1.0, b_tilde=[0.2, 0.3], kappa=kappa)
        assert extra_integral(sw.descriptor, 1).name == "I_2" + suffix
        kc = make_kepler_coulomb(space, mass=1.0, k=1.0, b_tilde=[0.0, 0.5], kappa=kappa)
        assert extra_integral(kc.descriptor, 0).name == "L_1" + suffix
        with pytest.raises(ConfigError):
            extra_integral(kc.descriptor, 1)
    garnier = make_garnier("euclidean", mass=1.0, omega=1.0, delta=0.1,
                           b_tilde=[0.0, 0.0])
    with pytest.raises(ConfigError):
        extra_integral(garnier.descriptor, 0)


def test_family_registry_is_complete():
    assert len(FAMILIES) == 7
    assert set(FAMILIES) == {
        "evans", "sw", "garnier", "oscillator", "kepler_coulomb",
        "electromagnetic", "variable_mass",
    }
