import numpy as np
import pytest

from superint import (
    ConservedQuantity,
    DimensionMismatch,
    DomainError,
    PhasePoint,
    SL2Realization,
    energy_quantity,
    make_evans,
    make_garnier,
    make_kepler_coulomb,
    make_sw,
    poisson_bracket,
    sample_regular_points,
)
from superint.core import sl2_kernel
from conftest import central_gradient

RNG = np.random.default_rng(2024)


def sl2_values(realization, q, p):
    """(J-, J+, J3) from sl2_kernel, and their (d/dq, d/dp) gradient pairs:
    the plain ones written out, dJ+/dq from the kernel."""
    jm, jp, j3, djp_dq = sl2_kernel(realization, q, p, gradient=True)
    zeros = np.zeros(q.size)
    return (jm, jp, j3), ((2.0 * q, zeros), (djp_dq + zeros, 2.0 * p), (p, q))


def j_quantity(realization, index, name):
    """Wrap one generator (0: J-, 1: J+, 2: J3) as a ConservedQuantity."""

    def value(q, p):
        return sl2_values(realization, q, p)[0][index]

    def gradient(q, p):
        return sl2_values(realization, q, p)[1][index]

    return ConservedQuantity(name, realization.n, value, gradient)


def casimir_quantity(realization):
    """C = J- J+ - J3^2 assembled by the chain rule."""

    def value(q, p):
        (jm, jp, j3), _ = sl2_values(realization, q, p)
        return jm * jp - j3 ** 2

    def gradient(q, p):
        (jm, jp, j3), (gm, gp, g3) = sl2_values(realization, q, p)
        dq = jp * gm[0] + jm * gp[0] - 2.0 * j3 * g3[0]
        dp = jp * gm[1] + jm * gp[1] - 2.0 * j3 * g3[1]
        return dq, dp

    return ConservedQuantity("C", realization.n, value, gradient)


def test_phase_point_validation():
    with pytest.raises(DimensionMismatch):
        PhasePoint([1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        PhasePoint([np.inf, 0.0], [0.0, 0.0])
    x = PhasePoint([1.0, 2.0], [3.0, 4.0])
    assert x.n == 2


def test_sl2_direct_sums():
    jm, jp, j3, djp_dq = sl2_kernel(SL2Realization([0.0, 0.0]), np.array([1.0, 2.0]),
                                    np.array([3.0, 4.0]), gradient=True)
    assert (jm, jp, j3, djp_dq) == (5.0, 25.0, 11.0, 0.0)


def test_sl2_barrier_term():
    q, p, b = [1.0, 2.0], [3.0, 4.0], [1.0, 1.0]
    _, jp, _, _ = sl2_kernel(SL2Realization(b), np.array(q), np.array(p))
    assert jp == pytest.approx(26.25, abs=0.0)
    # independent summation
    expected = sum(pi ** 2 + bi / qi ** 2 for qi, pi, bi in zip(q, p, b))
    assert jp == pytest.approx(expected, rel=1e-15)


def test_casimir_labels_one_site():
    for _ in range(50):
        q1 = RNG.uniform(0.2, 2.0) * RNG.choice([-1.0, 1.0])
        p1 = RNG.uniform(-2.0, 2.0)
        b1 = RNG.uniform(-1.5, 1.5)
        jm, jp, j3, _ = sl2_kernel(SL2Realization([b1]), np.array([q1]), np.array([p1]))
        casimir = jm * jp - j3 ** 2
        assert casimir == pytest.approx(b1, rel=1e-12, abs=1e-12)


def test_sl2_gradients_match_differences():
    realization = SL2Realization([0.7, 0.0, -0.4])
    for x in sample_regular_points(10, 3, RNG):
        _, grads = sl2_values(realization, x.q, x.p)
        for idx in range(3):
            def value(q, p, i=idx):
                return sl2_values(realization, q, p)[0][i]

            nq, npp = central_gradient(value, x.q, x.p)
            assert np.allclose(grads[idx][0], nq, rtol=1e-6, atol=1e-6)
            assert np.allclose(grads[idx][1], npp, rtol=1e-6, atol=1e-6)


def test_sl2_explicit_gradients():
    q, p, b = np.array([0.5, -1.2]), np.array([0.3, 0.9]), np.array([0.8, 0.0])
    *_, djp_dq = sl2_kernel(SL2Realization(b), q, p, gradient=True)
    assert np.array_equal(djp_dq, np.array([-2.0 * 0.8 / 0.5 ** 3, 0.0]))
    *_, no_gradient = sl2_kernel(SL2Realization(b), q, p)
    assert no_gradient == 0.0


def test_domain_and_dimension_errors():
    realization = SL2Realization([1.0, 0.0])
    with pytest.raises(DomainError):
        realization.check_point(PhasePoint([0.0, 1.0], [0.0, 0.0]))
    with pytest.raises(DomainError):
        sl2_kernel(realization, np.array([0.0, 1.0]), np.zeros(2))
    # a vanishing coordinate is fine when its coefficient is zero
    x = PhasePoint([1.0, 0.0], [0.0, 0.0])
    realization.check_point(x)
    assert sl2_kernel(realization, x.q, x.p)[1] == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        realization.check_point(PhasePoint([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]))


def test_generator_bracket_closure():
    realization = SL2Realization([0.6, -0.3, 0.9, 0.0])
    jm = j_quantity(realization, 0, "J-")
    jp = j_quantity(realization, 1, "J+")
    j3 = j_quantity(realization, 2, "J3")
    for x in sample_regular_points(20, 4, RNG):
        j_minus, j_plus, j_3, _ = sl2_kernel(realization, x.q, x.p)
        assert abs(poisson_bracket(j3, jp, x) - 2.0 * j_plus) < 1e-9
        assert abs(poisson_bracket(j3, jm, x) + 2.0 * j_minus) < 1e-9
        assert abs(poisson_bracket(jm, jp, x) - 4.0 * j_3) < 1e-9


def test_casimir_commutes_with_generators():
    realization = SL2Realization([0.6, -0.3, 0.9])
    casimir = casimir_quantity(realization)
    gens = [j_quantity(realization, i, n) for i, n in enumerate(("J-", "J+", "J3"))]
    for x in sample_regular_points(20, 3, RNG):
        for g in gens:
            assert abs(poisson_bracket(casimir, g, x)) < 1e-9


def test_free_particle_value_and_gradient():
    spec = make_evans("euclidean", lambda s: 0.0, lambda s: 0.0,
                      mass=1.0, b_tilde=[0.0, 0.0])
    x = PhasePoint([0.4, -0.2], [3.0, 4.0])
    assert spec.value(x) == pytest.approx(12.5)
    dq, dp = spec.gradient(x)
    assert np.allclose(dq, 0.0)
    assert np.allclose(dp, x.p)


def test_oscillator_hand_values():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    assert spec.value(PhasePoint([1.0, 0.0], [0.0, 0.0])) == pytest.approx(1.0)
    spec_b = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[1.0, 1.0])
    assert spec_b.value(PhasePoint([1.0, 2.0], [0.0, 0.0])) == pytest.approx(5.625)


def test_harmonic_gradient():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.0, 0.0])
    x = PhasePoint([0.7, -0.4], [0.2, 1.1])
    dq, dp = spec.gradient(x)
    assert np.allclose(dq, 2.0 * x.q)
    assert np.allclose(dp, x.p)


def test_chain_rule_matches_differences():
    bt = [0.5, 0.0, 0.8]
    specs = [
        make_sw("euclidean", mass=1.3, omega=0.9, b_tilde=bt),
        make_garnier("beltrami", mass=0.8, omega=1.1, delta=0.3, b_tilde=bt, kappa=-0.4),
        make_kepler_coulomb("poincare", mass=1.0, k=0.7, b_tilde=bt, kappa=0.6),
        make_evans("euclidean", lambda s: np.sin(s), lambda s: np.cos(s),
                   mass=1.0, b_tilde=bt),
    ]
    for spec in specs:
        space = spec.descriptor.space
        kappa = spec.descriptor.kappa
        points = sample_regular_points(20, 3, RNG, kappa=kappa, space=space)
        for x in points:
            dq, dp = spec.gradient(x)
            nq, npp = central_gradient(spec.value_qp, x.q, x.p)
            scale = max(1.0, float(np.max(np.abs(dq))), float(np.max(np.abs(dp))))
            assert np.max(np.abs(dq - nq)) / scale < 1e-6
            assert np.max(np.abs(dp - npp)) / scale < 1e-6


def test_energy_quantity_wraps_spec():
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.2, 0.4])
    h = energy_quantity(spec)
    x = PhasePoint([0.9, 1.1], [0.3, -0.2])
    assert h.value(x) == spec.value(x)
    dq_h, dp_h = h.gradient(x)
    dq_s, dp_s = spec.gradient(x)
    assert np.array_equal(dq_h, dq_s)
    assert np.array_equal(dp_h, dp_s)


# ---------------------------------------------------------------------------
# Bit-exactness of the sl(2) kernel against the tuple-form chain rule
# ---------------------------------------------------------------------------

def reference_gradient_qp(spec, q, p):
    """dH/dq, dH/dp as first written: explicit (J-, J+, J3) gradient vectors
    combined term by term.  The kernel must reproduce it bit for bit."""
    b = spec.realization.b
    n = q.size
    active = b != 0.0
    jm, j3, jp = float(q @ q), float(q @ p), float(p @ p)
    djp_dq = np.zeros(n)
    if np.any(active):
        jp += float(np.sum(b[active] / q[active] ** 2))
        djp_dq[active] = -2.0 * b[active] / q[active] ** 3
    gq = (2.0 * q, djp_dq, p.copy())
    gp = (np.zeros(n), 2.0 * p, q.copy())
    hm, hp, h3 = spec.h_partials(jm, jp, j3)
    dq = hm * gq[0] + hp * gq[1] + h3 * gq[2]
    dp = hm * gp[0] + hp * gp[1] + h3 * gp[2]
    return dq, dp


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


_PARAMS = {"mass": 1.1, "omega": 0.9, "delta": 0.2, "k": 0.8, "charge": 0.7}
_PROFILES = {
    "potential": (0.0, 0.3, -0.05),
    "vector": (0.2, 0.1),
    "mass_profile": (1.0, 0.1),
    "deltas": (0.1, 0.02),
}


def catalog_specs(b_tilde):
    """One spec per family x space x sign(kappa) of the catalog."""
    from superint import SystemDescriptor, build
    from superint.catalog import EUCLIDEAN, FAMILIES

    for family, info in FAMILIES.items():
        for space in info["spaces"]:
            for kappa in (0.0,) if space == EUCLIDEAN else (0.5, -0.5):
                params = {key: _PARAMS[key] for key in info["params"]}
                params["kappa"] = kappa
                profiles = {key: _PROFILES[key] for key in info["profiles"]}
                yield build(SystemDescriptor(family, space, params, b_tilde,
                                             profiles=profiles))


@pytest.mark.parametrize("b_tilde", [
    [0.0, 0.0, 0.0],
    [0.4, 0.0, 0.3],
    [0.4, 0.2, 0.3],
], ids=["no_barrier", "some_barriers", "all_barriers"])
def test_gradient_qp_is_bitwise_the_tuple_form(b_tilde):
    # with h- = h3 = 0 (free particle) dH/dp_i = (0*0 + h+ * 2 p_i) + 0*q_i,
    # which is +0 at p_i = -0, q_i < 0 only if the h- * 0 term is kept
    free = make_evans("euclidean", lambda s: 0.0, lambda s: 0.0,
                      mass=1.0, b_tilde=b_tilde)
    checked = 0
    for spec in (*catalog_specs(b_tilde), free):
        for x in sample_regular_points(8, 3, 11, kappa=spec.descriptor.kappa,
                                       space=spec.descriptor.space):
            # signed zeros in p on a negative-q site tell (+0) from (-0) sums
            q = x.q.copy()
            q[1] = -abs(q[1])
            for p1 in (x.p[1], 0.0, -0.0):
                p = x.p.copy()
                p[1] = p1
                dq, dp = spec.gradient_qp(q, p)
                rq, rp = reference_gradient_qp(spec, q, p)
                assert_same_bits(dq, rq)
                assert_same_bits(dp, rp)
                checked += 1
    assert checked == 28 * 8 * 3  # 5 families x 5 (space, sign) + 2 flat-only + free


def test_realization_caches_its_barrier_mask():
    realization = SL2Realization([0.5, 0.0, -0.2])
    assert realization.active.tolist() == [True, False, True]
    assert realization.b_active.tolist() == [0.5, -0.2]
    assert SL2Realization([0.0, 0.0]).b_active is None
    with pytest.raises(ValueError):
        realization.b[1] = 1.0  # read-only, so the mask cannot go stale
    # the cheap near-axis test still hands over to the exact guard message
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.5, 0.0, -0.2])
    with pytest.raises(DomainError, match=r"q_3 = .*1e-11\)? lies on a coordinate plane with b_3 != 0"):
        spec.gradient_qp(np.array([1.0, 0.0, 1e-11]), np.zeros(3))
    assert np.isfinite(spec.value_qp(np.array([1.0, 0.0, 3e-10]), np.zeros(3)))
