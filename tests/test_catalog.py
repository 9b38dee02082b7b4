import math

import numpy as np
import pytest

from superint import (
    ConfigError,
    IntegratorConfig,
    DimensionMismatch,
    DomainError,
    PhasePoint,
    SystemDescriptor,
    build,
    em_fields,
    energy_quantity,
    extra_integral,
    integrate,
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
from superint.core import complex_step_gradient
from conftest import STACK_PROFILES, split

RNG = np.random.default_rng(99)


def test_sw_values_across_spaces():
    x = PhasePoint([0.5, 0.0], [0.0, 0.0])
    poincare = make_sw("poincare", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert energy_quantity(poincare).value(x) == pytest.approx(16.0 / 9.0)
    beltrami = make_sw("beltrami", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert energy_quantity(beltrami).value(PhasePoint([1.0, 0.0], [0.0, 0.0])) \
        == pytest.approx(1.0)


def test_kepler_coulomb_values_across_spaces():
    flat = make_kepler_coulomb("euclidean", mass=1.0, k=1.0, b_tilde=[0.0, 0.0])
    assert energy_quantity(flat).value(PhasePoint([1.0, 0.0], [0.0, 0.0])) == pytest.approx(-1.0)
    beltrami = make_kepler_coulomb("beltrami", mass=1.0, k=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert energy_quantity(beltrami).value(PhasePoint([1.0, 0.0], [0.0, 0.0])) \
        == pytest.approx(-1.0)
    poincare = make_kepler_coulomb("poincare", mass=1.0, k=1.0, b_tilde=[0.0, 0.0], kappa=1.0)
    assert energy_quantity(poincare).value(PhasePoint([0.5, 0.0], [0.0, 0.0])) \
        == pytest.approx(-0.75)


def test_garnier_values():
    flat = make_garnier("euclidean", mass=1.0, omega=0.0, delta=1.0, b_tilde=[0.0, 0.0])
    assert energy_quantity(flat).value(PhasePoint([1.0, 1.0], [0.0, 0.0])) == pytest.approx(4.0)
    curved = make_garnier("poincare", mass=1.0, omega=0.0, delta=1.0,
                          b_tilde=[0.0, 0.0], kappa=1.0)
    assert energy_quantity(curved).value(PhasePoint([0.5, 0.0], [0.0, 0.0])) \
        == pytest.approx(16.0 * 0.0625 / 0.75 ** 4)


@pytest.mark.parametrize("space,kappa", [("euclidean", 0.0), ("beltrami", -0.4),
                                         ("poincare", 0.8)])
def test_evans_with_quadratic_profile_is_oscillator(space, kappa):
    w2 = 1.21
    bt = [0.3, 0.0, 0.6]
    evans = make_evans(space, lambda s: w2 * s,
                       mass=1.1, b_tilde=bt, kappa=kappa)
    sw = make_sw(space, mass=1.1, omega=1.1, b_tilde=bt, kappa=kappa)
    evans, sw = energy_quantity(evans), energy_quantity(sw)
    q, p = split(sample_regular_points(10, 3, RNG, kappa=kappa, space=space))
    assert evans.value_fn(q, p) == pytest.approx(sw.value_fn(q, p), rel=1e-14)
    eq, ep = evans.gradient_fn(q, p)
    sq, sp = sw.gradient_fn(q, p)
    assert np.allclose(eq, sq, rtol=1e-13)
    assert np.allclose(ep, sp, rtol=1e-13)


def test_free_profile_gives_kinetic_only():
    spec = make_evans("euclidean", lambda s: 0.0,
                      mass=2.0, b_tilde=[0.4, 0.0])
    x = PhasePoint([0.5, 0.7], [1.0, -1.0])
    expected = (1.0 + 1.0 + 2.0 * 0.4 / 0.25) / 4.0
    assert energy_quantity(spec).value(x) == pytest.approx(expected)


def test_quartic_reduces_to_oscillator():
    bt = [0.2, 0.5]
    garnier = make_garnier("euclidean", mass=1.3, omega=0.7, delta=0.0, b_tilde=bt)
    sw = make_sw("euclidean", mass=1.3, omega=0.7, b_tilde=bt)
    q, p = split(sample_regular_points(10, 2, RNG))
    assert np.array_equal(garnier.value_qp(q, p), sw.value_qp(q, p))


def test_series_oscillator_matches_quartic_truncation():
    bt = [0.2, 0.5]
    series = make_nonlinear_oscillator("beltrami", mass=1.0, omega=0.9,
                                       deltas=(0.4,), b_tilde=bt, kappa=0.6)
    garnier = make_garnier("beltrami", mass=1.0, omega=0.9, delta=0.4,
                           b_tilde=bt, kappa=0.6)
    q, p = split(sample_regular_points(10, 2, RNG, kappa=0.6, space="beltrami"))
    assert series.value_qp(q, p) == pytest.approx(garnier.value_qp(q, p), rel=1e-14)
    higher = make_nonlinear_oscillator("euclidean", mass=1.0, omega=0.0,
                                       deltas=(0.0, 1.0), b_tilde=[0.0, 0.0])
    assert energy_quantity(higher).value(PhasePoint([1.0, 1.0], [0.0, 0.0])) == pytest.approx(8.0)


def test_electromagnetic_reductions():
    bt = [0.3, 0.0, 0.2]
    f = poly_profile([0.0, 0.4, 0.1])
    zero = lambda s: 0.0
    em = make_electromagnetic(mass=1.2, charge=1.0,
                              scalar_profile=f, vector_profile=zero, b_tilde=bt)
    evans = make_evans("euclidean", f, mass=1.2, b_tilde=bt)
    q, p = split(sample_regular_points(10, 3, RNG))
    assert em.value_qp(q, p) == pytest.approx(evans.value_qp(q, p), rel=1e-14)

    c = 0.7
    em_const = make_electromagnetic(mass=1.0, charge=2.0,
                                    scalar_profile=f, vector_profile=lambda s: c,
                                    b_tilde=bt)
    q, p = split(sample_regular_points(10, 3, RNG))
    q2 = (q * q).sum(-1)
    barriers = sum(b / (2.0 * qi ** 2) for b, qi in zip(bt, q.T) if b != 0.0)
    expected = 0.5 * (p * p).sum(-1) - 2.0 * c * (q * p).sum(-1) + 2.0 * f(q2) + barriers
    assert em_const.value_qp(q, p) == pytest.approx(expected, rel=1e-13)


def test_electromagnetic_keeps_universal_integrals():
    bt = [0.3, 0.1, 0.2]
    g = poly_profile([0.0, 1.0])
    f = poly_profile([0.0, 0.0, 1.0])
    em = make_electromagnetic(mass=1.0, charge=0.8,
                              scalar_profile=f, vector_profile=g, b_tilde=bt)
    h = energy_quantity(em)
    points = sample_regular_points(20, 3, RNG)
    for c in universal_set(em.realization).all:
        _, norm = max_bracket_residual(h, c, points)
        assert norm < 1e-9


def test_em_fields_trivial_profile():
    zero = lambda s: 0.0
    f = poly_profile([0.0, 1.0])
    fields = em_fields([0.3, -0.5, 0.8], mass=1.0, charge=1.0,
                       scalar_profile=f, vector_profile=zero, b_tilde=[0.0, 0.0, 0.0])
    assert np.allclose(fields.E, -2.0 * np.array([0.3, -0.5, 0.8]))
    assert np.array_equal(fields.H, np.zeros(3))
    assert np.array_equal(fields.A, np.zeros(3))


def test_em_fields_match_difference_gradient_of_psi():
    f = poly_profile([0.0, 0.5, 0.2])
    g = poly_profile([0.0, 1.0])
    bt = [0.4, 0.0, 0.7]

    def psi_at(q):
        return em_fields(q, mass=1.3, charge=0.9,
                         scalar_profile=f, vector_profile=g, b_tilde=bt).psi

    for q in split(sample_regular_points(10, 3, RNG))[0]:
        fields = em_fields(q, mass=1.3, charge=0.9,
                           scalar_profile=f, vector_profile=g, b_tilde=bt)
        grad = np.zeros(3)
        for i in range(3):
            h = 1e-6 * max(1.0, abs(q[i]))
            hi, lo = q.copy(), q.copy()
            hi[i] += h
            lo[i] -= h
            grad[i] = (psi_at(hi) - psi_at(lo)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fields.E))))
        assert np.max(np.abs(fields.E + grad)) / scale < 1e-6


def test_em_vector_potential_is_curl_free():
    g = poly_profile([0.2, 0.8])

    def a_at(q):
        zero = lambda s: 0.0
        return em_fields(q, mass=1.0, charge=1.0,
                         scalar_profile=zero, vector_profile=g, b_tilde=[0.0, 0.0, 0.0]).A

    for q in split(sample_regular_points(10, 3, RNG))[0]:
        jac = np.zeros((3, 3))
        for i in range(3):
            h = 1e-7 * max(1.0, abs(q[i]))
            hi, lo = q.copy(), q.copy()
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
    f = poly_profile([0.0, 1.0])
    params = {"mass": 1.0, "charge": 1.0, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        em_fields([0.3, -0.5, 0.8], scalar_profile=f, vector_profile=f, b_tilde=[0.0, 0.0, 0.0],
                  **params)


def test_em_fields_need_three_dimensions():
    zero = lambda s: 0.0
    with pytest.raises(DimensionMismatch):
        em_fields([1.0, 2.0], mass=1.0, charge=1.0,
                  scalar_profile=zero, vector_profile=zero, b_tilde=[0.0, 0.0])


def test_variable_mass_constant_profile_is_evans():
    m = 1.4
    f = poly_profile([0.0, 0.6])
    bt = np.array([0.5, 0.2])
    vm = make_variable_mass(mass_profile=lambda s: m, potential=f, b=m * bt)
    evans = make_evans("euclidean", f, mass=m, b_tilde=bt)
    q, p = split(sample_regular_points(10, 2, RNG))
    assert vm.value_qp(q, p) == pytest.approx(evans.value_qp(q, p), rel=1e-14)


def test_variable_mass_reproduces_chart_kinetic():
    m, kappa = 1.2, 0.7
    vm = make_variable_mass(
        mass_profile=lambda s: m / (1.0 + kappa * s) ** 2,
        potential=lambda s: 0.0, b=[0.0, 0.0, 0.0],
    )
    chart = make_evans("poincare", lambda s: 0.0, mass=m,
                       b_tilde=[0.0, 0.0, 0.0], kappa=kappa)
    q, p = split(sample_regular_points(10, 3, RNG, kappa=kappa, space="poincare"))
    assert vm.value_qp(q, p) == pytest.approx(chart.value_qp(q, p), rel=1e-13)


def test_variable_mass_keeps_universal_integrals():
    vm = make_variable_mass(
        mass_profile=lambda s: 1.0 + s, potential=lambda s: 0.3 * s, b=[0.4, 0.0, 0.6],
    )
    h = energy_quantity(vm)
    points = sample_regular_points(20, 3, RNG)
    for c in universal_set(vm.realization).all:
        _, norm = max_bracket_residual(h, c, points)
        assert norm < 1e-9


def test_variable_mass_positivity_guard():
    vm = make_variable_mass(
        mass_profile=lambda s: 1.0 - s, potential=lambda s: 0.0, b=[0.0, 0.0],
    )
    with pytest.raises(DomainError):
        energy_quantity(vm).value(PhasePoint([1.0, 1.0], [0.0, 0.0]))


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
        q, p = split(sample_regular_points(10, 3, RNG))
        assert np.array_equal(curved.value_qp(q, p), flat.value_qp(q, p))
        cq, cp = curved.gradient_qp(q, p)
        fq, fp_ = flat.gradient_qp(q, p)
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
    "evans": (lambda **kw: make_evans(profile=lambda s: s, **kw),
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
            scalar_profile=lambda s: s, vector_profile=lambda s: s, **kw),
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


@pytest.mark.parametrize("family", ["sw", "garnier", "oscillator"])
def test_an_omega_whose_square_overflows_is_a_config_error(family):
    # the builders and the sw extras take omega ** 2 (Python's pow, which
    # raises on overflow); a finite omega with no finite square is refused
    # with the descriptor, before anything is built
    assert SystemDescriptor(family, "beltrami", {"omega": -1e150, "kappa": 0.3},
                            [0.1, 0.2]).params["omega"] == -1e150
    with pytest.raises(ConfigError, match=r"^omega \*\* 2 overflows, got omega = -1e\+200$"):
        SystemDescriptor(family, "beltrami", {"omega": -1e200, "kappa": 0.3}, [0.1, 0.2])


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
        assert spec.descriptor is desc
        kappa = desc.kappa
        space = desc.space
        q, p = split(sample_regular_points(5, 3, RNG, kappa=kappa, space=space))
        assert np.all(np.isfinite(spec.value_qp(q, p)))
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


def test_descriptor_fills_family_defaults():
    bt = [0.2, 0.3]
    sw = SystemDescriptor("sw", "euclidean", {"mass": 1.0}, bt)
    assert sw.params == {"mass": 1.0, "omega": 1.0, "kappa": 0.0}
    x = PhasePoint([0.5, 0.4], [0.1, -0.2])
    assert energy_quantity(build(sw)).value(x) \
        == energy_quantity(make_sw("euclidean", omega=1.0, b_tilde=bt)).value(x)
    assert SystemDescriptor("sw", "euclidean", {"omega": 2}, bt).params["mass"] == 1.0
    garnier = SystemDescriptor("garnier", "beltrami", {"kappa": 1}, bt)
    assert garnier.params == {"mass": 1.0, "omega": 1.0, "delta": 0.0, "kappa": 1.0}
    assert all(type(v) is float for v in garnier.params.values())
    assert SystemDescriptor("kepler_coulomb", "euclidean", {}, bt).params["k"] == 1.0
    assert SystemDescriptor("electromagnetic", "euclidean", {}, bt).params["charge"] == 1.0


def test_descriptor_rejects_unknown_parameters():
    with pytest.raises(ConfigError, match=r"family 'sw' has no parameters \['omgea'\]"):
        SystemDescriptor("sw", "euclidean", {"mass": 1.0, "omgea": 2.0}, [0.2, 0.3])
    # a parameter of another family is unknown too
    with pytest.raises(ConfigError, match=r"\['delta'\]"):
        SystemDescriptor("sw", "euclidean", {"delta": 0.1}, [0.2, 0.3])
    with pytest.raises(ConfigError, match=r"\['mass'\]"):
        SystemDescriptor("variable_mass", "euclidean", {"mass": 1.0}, [0.2, 0.3])
    with pytest.raises(ConfigError, match="^omega must be a number, got 'abc'$"):
        SystemDescriptor("sw", "euclidean", {"omega": "abc"}, [0.2, 0.3])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_values_equal_per_state_values(family):
    """One value_fn call on a (T, N) or (2, T/2, N) stack gives, bit for bit,
    the per-state values, for H, every universal integral and every extra, on
    each space and sign of kappa, with zero and with nonzero barriers."""
    info = FAMILIES[family]
    rng = np.random.default_rng(5)
    for space in info.spaces:
        for kappa in (0.0,) if space == "euclidean" else (0.4, -0.4):
            for bt in ([0.0] * 4, [0.3, 0.0, 0.2, 0.5]):
                params = {"kappa": kappa, **{key: 0.9 for key in info.params}}
                desc = SystemDescriptor(family, space, params, bt,
                                        STACK_PROFILES.get(family, {}))
                spec = build(desc)
                quantities = [energy_quantity(spec), *universal_set(spec.realization).all,
                              *(extra_integral(desc, axis) for axis in desc.ms_axes)]
                # enough fresh points that a scalar x ** 2 (libm pow) would differ
                qs, ps = split(sample_regular_points(600, 4, rng, kappa=kappa, space=space))
                for f in quantities:
                    stacked = f.value_fn(qs, ps)
                    per_state = np.array([f.value_fn(q, p) for q, p in zip(qs, ps)])
                    assert np.array_equal(stacked, per_state), (desc, f.name)
                    assert np.array_equal(f.value_fn(qs.reshape(2, 300, 4), ps.reshape(2, 300, 4)),
                                          stacked.reshape(2, 300)), (desc, f.name)
                    assert type(f.value(PhasePoint(qs[0], ps[0]))) is float


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_hamiltonian_gradient_is_bitwise_the_per_point_one(family):
    """One gradient_qp call on a (M, N) or (2, M/2, N) stack gives, bit for
    bit, the per-point gradients, on each space and sign of kappa, with zero
    and with nonzero barriers; a stacked point on a barrier plane is named
    in the DomainError."""
    info = FAMILIES[family]
    rng = np.random.default_rng(13)
    m = 64
    for space in info.spaces:
        for kappa in (0.0,) if space == "euclidean" else (0.4, -0.4):
            for bt in ([0.0] * 4, [0.3, 0.0, 0.2, 0.5]):
                params = {"kappa": kappa, **{key: 0.9 for key in info.params}}
                spec = build(SystemDescriptor(family, space, params, bt,
                                              STACK_PROFILES.get(family, {})))
                qs, ps = split(sample_regular_points(m, 4, rng, kappa=kappa, space=space))
                dq, dp = spec.gradient_qp(qs, ps)
                per_point = [spec.gradient_qp(q, p) for q, p in zip(qs, ps)]
                assert _same_bits(dq, np.array([g[0] for g in per_point])), spec.name
                assert _same_bits(dp, np.array([g[1] for g in per_point])), spec.name
                dq2, dp2 = spec.gradient_qp(qs.reshape(2, m // 2, 4), ps.reshape(2, m // 2, 4))
                assert _same_bits(dq2, dq.reshape(2, m // 2, 4)), spec.name
                assert _same_bits(dp2, dp.reshape(2, m // 2, 4)), spec.name
                if any(bt):
                    bad = qs.copy()
                    bad[37, 2] = 0.0
                    plane = r"q_3 = 0\.0 lies on a coordinate plane with b_3 != 0$"
                    with pytest.raises(DomainError, match=r"^point 37: " + plane):
                        spec.gradient_qp(bad, ps)
                    with pytest.raises(DomainError, match=r"^point 1, 5: " + plane):
                        spec.gradient_qp(bad.reshape(2, m // 2, 4), ps.reshape(2, m // 2, 4))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_window_gradients_are_bitwise_the_per_point_ones(family):
    """The universal set's one column pass over a (M, N) or (2, M/2, N)
    stack gives, bit for bit, every member's own gradient_fn at each point,
    on each space and sign of kappa, with zero and with nonzero barriers and
    signed zeros in p; a stacked point on a barrier plane is named."""
    info = FAMILIES[family]
    rng = np.random.default_rng(19)
    m = 24
    for space in info.spaces:
        for kappa in (0.0,) if space == "euclidean" else (0.4, -0.4):
            for bt in ([0.0] * 4, [0.3, 0.0, 0.2, 0.5]):
                params = {"kappa": kappa, **{key: 0.9 for key in info.params}}
                spec = build(SystemDescriptor(family, space, params, bt,
                                              STACK_PROFILES.get(family, {})))
                uni = universal_set(spec.realization)
                qs, ps = split(sample_regular_points(m, 4, rng, kappa=kappa, space=space))
                ps[:4] = np.where(rng.random((4, 4)) < 0.5, -0.0, 0.0)
                dq, dp = uni.gradients(qs, ps)
                for k, f in enumerate(uni.all):
                    per_point = [f.gradient_fn(q, p) for q, p in zip(qs, ps)]
                    assert _same_bits(dq[:, k], np.array([g[0] for g in per_point])), f.name
                    assert _same_bits(dp[:, k], np.array([g[1] for g in per_point])), f.name
                dq2, dp2 = uni.gradients(qs.reshape(2, m // 2, 4), ps.reshape(2, m // 2, 4))
                assert _same_bits(dq2, dq.reshape(2, m // 2, -1, 4))
                assert _same_bits(dp2, dp.reshape(2, m // 2, -1, 4))
                if any(bt):
                    bad = qs.copy()
                    bad[17, 3] = 0.0
                    with pytest.raises(DomainError, match=r"^point 17: q_4 = 0\.0 lies on"):
                        uni.gradients(bad, ps)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gradient_of_one_point_as_lists_is_lists_of_floats(family, n):
    """gradient_qp on one point given as lists (a GL2 or RK4 stage) returns
    lists of Python floats, bitwise the (N,) array call, signbits included,
    on each space and sign of kappa, with zero and with nonzero barriers.
    The evans, electromagnetic and variable_mass partials return numpy
    scalars; none may reach the lists."""
    info = FAMILIES[family]
    rng = np.random.default_rng(17)
    for space in info.spaces:
        for kappa in (0.0,) if space == "euclidean" else (0.4, -0.4):
            for bt in ([0.0] * n, [0.3, 0.0, 0.2][:n]):
                params = {"kappa": kappa, **{key: 0.9 for key in info.params}}
                spec = build(SystemDescriptor(family, space, params, bt,
                                              STACK_PROFILES.get(family, {})))
                qs, ps = split(sample_regular_points(12, n, rng, kappa=kappa, space=space))
                ps[:4] = np.where(rng.random((4, n)) < 0.5, -0.0, 0.0)
                for q, p in zip(qs, ps):
                    dq, dp = spec.gradient_qp(q.tolist(), p.tolist())
                    assert type(dq) is list and type(dp) is list
                    assert all(type(x) is float for x in dq + dp), spec.name
                    rq, rp = spec.gradient_qp(q, p)
                    assert _same_bits(np.array(dq), rq) and _same_bits(np.array(dp), rp), spec.name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hamiltonian_gradient_is_the_complex_step_derivative_of_its_value(family):
    """gradient_qp, the chain rule through the sl(2) kernel, equals the
    complex-step derivative of value_qp on every space and sign of kappa,
    with no and with some barriers, to rounding: H's value and gradient are
    one function, not two formulas tied only by finite differences."""
    rng = np.random.default_rng(11)
    info = FAMILIES[family]
    for space in info.spaces:
        for kappa in (0.0,) if space == "euclidean" else (0.4, -0.4):
            for bt in ([0.0] * 4, [0.3, 0.0, 0.2, 0.5]):
                params = {"kappa": kappa, **{key: 0.9 for key in info.params}}
                spec = build(SystemDescriptor(family, space, params, bt,
                                              STACK_PROFILES.get(family, {})))
                derived = complex_step_gradient(spec.value_qp)
                sample = sample_regular_points(20, 4, rng, kappa=kappa, space=space)
                for q, p in map(split, sample):
                    chain = np.concatenate(spec.gradient_qp(q, p))
                    ref = np.concatenate(derived(q, p))
                    scale = max(1.0, float(np.max(np.abs(ref))))
                    assert np.max(np.abs(chain - ref)) <= 1e-13 * scale, (spec.name, kappa, bt)


def test_stacked_values_keep_their_domain_checks():
    qs = np.array([[0.3, 0.4], [0.0, 0.0], [0.5, 0.2]])
    ps = np.full((3, 2), 0.1)
    kc = make_kepler_coulomb("euclidean", mass=1.0, k=1.0, b_tilde=[0.0, 0.0])
    with pytest.raises(DomainError, match="attractive center"):
        kc.value_qp(qs, ps)
    with pytest.raises(DomainError, match="origin"):
        extra_integral(kc.descriptor, 0).value_fn(qs, ps)
    equator = np.array([[0.3, 0.4], [1.0, 1.0], [0.5, 0.2]])  # kappa q^2 = 1
    sw = make_sw("poincare", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0], kappa=0.5)
    with pytest.raises(DomainError, match="equator"):
        sw.value_qp(equator, ps)
    vm = make_variable_mass(
        mass_profile=lambda s: 1.0 - s, potential=lambda s: 0.0, b=[0.0, 0.0],
    )
    with pytest.raises(DomainError, match="mass profile must stay positive"):
        vm.value_qp(equator, ps)


@pytest.mark.parametrize("profile", [
    lambda s: math.exp(s),
    lambda s: np.exp(s),
    lambda s: s if s > 1.0 else 2.0 * s,
    lambda s: 0.0 * s if s == 0.0 else s,
    lambda s: abs(s),
    lambda s: 2.0 ** s,
    lambda s: s ** s,
], ids=["math.exp", "np.exp", "branch", "equality", "abs", "constant base", "dual exponent"])
def test_profile_that_cannot_be_taped_is_rejected_at_the_first_gradient_call(profile):
    # H's partials are derived by taping h on duals; a profile that is not
    # + - * / and ** by a constant on its argument is rejected there, never
    # differentiated wrongly
    spec = make_evans("euclidean", profile, mass=1.0, b_tilde=[0.3, 0.0])
    q, p = np.array([0.6, 0.5]), np.array([0.1, -0.2])
    calls = (lambda: spec.gradient_qp(q, p),
             lambda: spec.gradient_qp(np.array([q, q]), np.array([p, p])),
             lambda: integrate(spec, PhasePoint(q, p), 0.01, IntegratorConfig()))
    for call in calls:
        with pytest.raises(ConfigError, match=r"^evans\.euclidean: the partials of h "
                                              r"cannot be derived: "):
            call()
