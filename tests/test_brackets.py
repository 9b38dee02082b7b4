from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from superint import (
    ConservedQuantity,
    DimensionMismatch,
    DomainError,
    IntegralSet,
    PhasePoint,
    RangeError,
    SamplingError,
    SL2Realization,
    SystemDescriptor,
    VerificationSettings,
    build,
    certify,
    energy_quantity,
    extra_integral,
    independence_rank,
    involution_table,
    left_integral,
    make_sw,
    max_bracket_residual,
    poisson_bracket,
    sample_for_spec,
    sample_regular_points,
    sw_extra_integral,
    universal_set,
)
from superint import brackets
from superint.brackets import CHART_FILL, P_HIGH, Q_HIGH, Q_LOW, PairResidual
from superint.catalog import FAMILIES
from superint.core import HamiltonianSpec
from superint.geometry import squared_chart_radius
from conftest import STACK_PROFILES, central_gradient, phase_points, split


@pytest.fixture
def rng():
    """A fresh generator per test, so no test's draws depend on which tests
    ran before it."""
    return np.random.default_rng(31)


def coordinate(kind, index, n):
    def value(q, p):
        return (q if kind == "q" else p)[index]

    def gradient(q, p):
        dq, dp = np.zeros(n), np.zeros(n)
        (dq if kind == "q" else dp)[index] = 1.0
        return dq, dp

    return ConservedQuantity(f"{kind}{index}", n, value, gradient)


def test_canonical_pairs(rng):
    x = PhasePoint(rng.uniform(0.5, 1.0, 3), rng.uniform(-1.0, 1.0, 3))
    q1, p1 = coordinate("q", 0, 3), coordinate("p", 0, 3)
    q2 = coordinate("q", 1, 3)
    assert poisson_bracket(q1, p1, x) == 1.0
    assert poisson_bracket(q1, q2, x) == 0.0
    assert poisson_bracket(p1, q1, x) == -1.0


def test_antisymmetry_is_exact(rng):
    realization = SL2Realization([0.4, -0.2, 0.7])
    c2 = left_integral(realization, 2)
    c3 = left_integral(realization, 3)
    for x in phase_points(sample_regular_points(10, 3, rng)):
        assert poisson_bracket(c2, c3, x) == -poisson_bracket(c3, c2, x)


def test_generator_scaling_bracket(rng):
    realization = SL2Realization([0.4, -0.2, 0.7])
    # J+ and J3 as the Hamiltonians h = xi+ and h = xi3
    jp = energy_quantity(HamiltonianSpec("J+", realization, lambda jm, jp, j3: jp), "J+")
    j3 = energy_quantity(HamiltonianSpec("J3", realization, lambda jm, jp, j3: j3), "J3")
    for x in phase_points(sample_regular_points(20, 3, rng)):
        assert abs(poisson_bracket(j3, jp, x) - 2.0 * jp.value(x)) < 1e-9


def test_jacobi_identity_with_difference_gradients(rng):
    """{F,{G,H}} + {G,{H,F}} + {H,{F,G}} via finite differences of the
    inner brackets stays at the finite-difference noise floor.

    Here every inner bracket vanishes identically, so each is rounding noise
    of about eps |grad G| |grad H|; its central difference with step
    h >= 1e-6 divides that by h, and the outer bracket multiplies it by
    |grad F|.  Each of the three terms is therefore about
    eps / h |grad F| |grad G| |grad H|, and their sum is bounded by three
    times that."""
    realization = SL2Realization([0.5, 0.3, -0.2])
    c2 = left_integral(realization, 2)
    c3 = left_integral(realization, 3)
    h = energy_quantity(make_sw("euclidean", mass=1.0, omega=0.8,
                                b_tilde=[0.5, 0.3, -0.2]))

    def outer(f, inner_pair, x):
        def inner_value(q, p):
            return poisson_bracket(inner_pair[0], inner_pair[1], PhasePoint(q, p))

        fq, fp = f.gradient(x)
        bq, bp = central_gradient(inner_value, x.q, x.p)
        return float(fq @ bp - bq @ fp)

    eps = np.finfo(float).eps
    for x in phase_points(sample_regular_points(5, 3, rng)):
        total = outer(c2, (c3, h), x) + outer(c3, (h, c2), x) + outer(h, (c2, c3), x)
        norms = [np.linalg.norm(np.concatenate(f.gradient(x))) for f in (c2, c3, h)]
        assert abs(total) < 3.0 * eps / 1e-6 * np.prod(norms)


def test_involution_table_passes_for_oscillator(rng):
    bt = rng.uniform(0.0, 1.0, 4)
    spec = make_sw("euclidean", mass=1.2, omega=0.9, b_tilde=bt)
    table = involution_table(spec, universal_set(spec.realization), 20, rng=rng)
    assert table.passed
    assert table.samples == 20
    # H against 5 integrals; {C^2,C^3,C^4} pairs; {C_2,C_3,C_4=C^4} pairs
    assert len(table.pairs) == 5 + 3 + 3


def test_involution_table_catches_corruption(rng):
    bt = np.array([0.5, 0.8, 0.3])
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=bt)
    uni = universal_set(spec.realization)
    flipped = bt.copy()
    flipped[0] = -flipped[0]
    bad_b = spec.realization.b.copy()
    bad_b[0] = -bad_b[0]
    # a window of another realization: the set evaluates its members one by one
    corrupted = left_integral(SL2Realization(bad_b), 2)
    bad_set = type(uni)((corrupted,) + uni.left[1:], uni.right, spec.realization)
    table = involution_table(spec, bad_set, 20, rng=rng)
    assert not table.passed
    assert table.worst.max_normalized > 1e-3


def test_involution_table_minimal_dimension(rng):
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.4, 0.6])
    table = involution_table(spec, universal_set(spec.realization), 5, rng=rng)
    assert len(table.pairs) == 1
    only = table.pairs[0]
    assert {only.name_a, only.name_b} == {"H", "C^2"}
    assert table.passed


@pytest.mark.parametrize("n", [2, 4, 14])
@pytest.mark.parametrize("space,kappa", [
    ("euclidean", 0.0), ("beltrami", 0.5), ("beltrami", -0.5),
    ("poincare", 0.5), ("poincare", -0.5),
])
def test_involution_table_exact_and_one_gradient_per_point(n, space, kappa, monkeypatch):
    """In a certificate H's, each window's and each extra's gradient runs
    once, on the stacked sample, and matches the per-point closure (H's and
    the windows' rows bitwise); the table is exactly a per-pair _residual
    loop over the same tensor rows."""
    rng = np.random.default_rng(n)
    seed, samples = 1234 + n, 20
    for zeros in (n, n // 2, 0):  # no, some and all barriers
        bt = rng.uniform(0.1, 0.8, n)
        bt[:zeros] = 0.0
        spec = make_sw(space, mass=1.1, omega=0.9, b_tilde=bt, kappa=kappa)
        uni = universal_set(spec.realization)
        h = energy_quantity(spec)
        axes = (0, n - 1)
        extras = [extra_integral(spec.descriptor, a) for a in axes]
        pts = sample_for_spec(spec, samples, seed)
        q, p = split(pts)
        points = phase_points(pts)

        for c in (*uni.all, *extras):
            dq, dp = c.gradient_fn(q, p)
            for s, x in enumerate(points):
                ref = np.concatenate(c.gradient(x))
                got = np.concatenate([dq[s], dp[s]])
                assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

        calls = []

        def counted(quantity):
            def gradient_fn(qq, pp):
                calls.append(quantity.name)
                return quantity.gradient_fn(qq, pp)

            return replace(quantity, gradient_fn=gradient_fn)

        def counted_set(realization):
            c = universal_set(realization)
            return IntegralSet(tuple(map(counted, c.left)), tuple(map(counted, c.right)),
                               realization)

        with monkeypatch.context() as m:
            m.setattr(brackets, "energy_quantity", lambda s: counted(energy_quantity(s)))
            m.setattr(brackets, "universal_set", counted_set)
            m.setattr(brackets, "extra_integral", lambda d, a: counted(extra_integral(d, a)))
            cert = certify(spec.descriptor, VerificationSettings(samples), extra_axes=axes,
                           rng=seed)
        assert len(calls) == 1 + uni.count + len(axes)
        assert all(calls.count(f.name) == 1 for f in (h, *uni.all, *extras))
        assert cert.passed and [e.rank for e in cert.extras] == [2 * n - 1] * len(axes)
        table = cert.table
        assert table == involution_table(spec, uni, samples, rng=seed)
        assert np.array_equal(table.points, pts)
        G = table.gradients
        for k, f in enumerate((h, *uni.all)):
            for s, x in enumerate(points):
                assert np.array_equal(G[s, k], np.concatenate(f.gradient(x)))
        # the extras' brackets with H are the full bracket matrix's entries
        full = np.concatenate([G, brackets._stacked_tensor(extras, pts)], axis=1)
        raw, normalized = brackets._max_residuals(full, [0] * len(axes),
                                                  range(G.shape[1], full.shape[1]))
        assert [(e.max_raw, e.max_normalized) for e in cert.extras] == \
            list(zip(raw.tolist(), normalized.tolist()))

        expected = [(h, c) for c in uni.all]
        expected += combinations(uni.left, 2)
        expected += combinations(uni.right + uni.left[-1:], 2)
        assert len(table.pairs) == len(expected) == 2 * n - 3 + (n - 1) * (n - 2)
        rows = brackets._split(G)
        index = {f.name: k for k, f in enumerate((h, *uni.all))}
        for pair, (f, g) in zip(table.pairs, expected):
            a, b = index[f.name], index[g.name]
            raw_max = norm_max = 0.0
            for s in range(samples):
                raw, norm = brackets._residual(tuple(r[s, a] for r in rows),
                                               tuple(r[s, b] for r in rows))
                raw_max, norm_max = max(raw_max, raw), max(norm_max, norm)
            assert pair == PairResidual(f.name, g.name, raw_max, norm_max)
            worst = max(abs(poisson_bracket(f, g, x)) for x in points)
            scale = max(np.linalg.norm(rows[2][:, a] * rows[2][:, b]), 1.0)
            assert abs(pair.max_raw - worst) <= 1e-14 * scale

        if zeros < n:  # a row on a barrier plane names that point and coordinate
            site = n - 1
            bad = q.copy()
            bad[3, site] = 0.0
            for c in (uni.left[-1], *uni.right[:1]):  # windows from site 1 and from N-1
                with pytest.raises(DomainError, match=rf"point 3: q_{site + 1} = 0\.0 "):
                    c.gradient_fn(bad, p)


def test_independence_full_rank(rng):
    bt = rng.uniform(0.1, 1.0, 4)
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=bt)
    functions = [energy_quantity(spec), *universal_set(spec.realization).all]
    cert = independence_rank(functions, sample_regular_points(20, 4, rng))
    assert cert.numerical_rank == 6  # 2N - 2 for N = 4
    assert cert.passed


def test_independence_detects_duplicates(rng):
    bt = rng.uniform(0.1, 1.0, 4)
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=bt)
    uni = universal_set(spec.realization)
    functions = [energy_quantity(spec), *uni.all, uni.left[0]]
    cert = independence_rank(functions, sample_regular_points(20, 4, rng))
    assert cert.numerical_rank == len(functions) - 1
    assert not cert.passed


def test_independence_with_extra_reaches_ceiling(rng):
    bt = np.array([0.4, 0.2, 0.6])
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=bt)
    uni = universal_set(spec.realization)
    h = energy_quantity(spec)
    extra1 = sw_extra_integral(0, mass=1.0, omega=1.0, b_tilde=bt)
    extra2 = sw_extra_integral(1, mass=1.0, omega=1.0, b_tilde=bt)
    cert = independence_rank([h, *uni.all, extra1], sample_regular_points(20, 3, rng))
    assert cert.numerical_rank == 5  # 2N - 1 for N = 3
    # the ceiling: one more conserved quantity cannot raise the rank further
    cert2 = independence_rank([h, *uni.all, extra1, extra2],
                              sample_regular_points(20, 3, rng))
    assert cert2.numerical_rank == 5


def test_large_n_on_a_bounded_chart_keeps_full_rank():
    """The sampler shrinks q by about 1/sqrt(N) to fit the chart; p must grow
    by the same factor, or the (q_i p_j - q_j p_i)^2 terms fade against the
    barrier terms and the rank reads 97."""
    rng = np.random.default_rng(50)
    bt = rng.uniform(0.1, 0.5, 50)
    bt[0] = 0.0
    spec = make_sw("poincare", mass=1.2, omega=0.9, b_tilde=bt, kappa=-0.6)
    functions = [energy_quantity(spec), *universal_set(spec.realization).all]
    cert = independence_rank(functions, sample_for_spec(spec, 20, rng))
    assert cert.numerical_rank == 98


@pytest.mark.parametrize("n", [14, 30, 50])
@pytest.mark.parametrize("space", ["poincare", "beltrami"])
@pytest.mark.parametrize("kappa", [0.6, -0.6])
def test_certify_keeps_full_rank_at_large_n_on_both_charts(n, space, kappa):
    """The rank 2N-2 and a passing involution table across N, chart and
    sign(kappa), at the default rank_tol and sample size."""
    bt = np.random.default_rng(n).uniform(0.1, 0.5, n)
    bt[0] = 0.0
    desc = SystemDescriptor("sw", space, {"mass": 1.2, "omega": 0.9, "kappa": kappa}, bt)
    cert = certify(desc, rng=n)
    assert cert.independence.numerical_rank == cert.expected_rank == 2 * n - 2
    assert cert.table.passed


def _best_kept_ratio(sigmas, rank):
    """max over the sample points of s[rank-1] / s[0], the margin of the
    best point above the rank cut."""
    return max(s[rank - 1] / s[0] for s in sigmas if s[0] > 0.0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_certify_sweep_over_spaces_signs_sizes_and_barriers(family):
    """Seeded certificates across the parameter space: every space and
    sign(kappa), N in {2, 3, 4, 6, 14}, all-zero and mixed barriers, and the
    extras on the first and last axis that carry one, at 3 seeds.  Each
    passes with rank 2N-2 (2N-1 with an extra), and its best point keeps
    s[r-1]/s[0] at least 10 rank_tol above the cut."""
    info = FAMILIES[family]
    settings = VerificationSettings()
    for seed in (1, 2, 3):
        gen = np.random.default_rng(seed)
        for space in info.spaces:
            for sign in (0.0,) if space == "euclidean" else (1.0, -1.0):
                for n in (2, 3, 4, 6, 14):
                    params = {"kappa": sign * gen.uniform(0.3, 0.9),
                              **{key: gen.uniform(0.6, 1.4) for key in info.params}}
                    mixed = gen.uniform(0.1, 0.8, n)
                    mixed[0] = 0.0
                    for bt in (np.zeros(n), mixed):
                        desc = SystemDescriptor(family, space, params, bt,
                                                STACK_PROFILES.get(family, {}))
                        axes = sorted({desc.ms_axes[0], desc.ms_axes[-1]}) \
                            if desc.ms_axes else []
                        cert = certify(desc, settings, extra_axes=axes, rng=seed)
                        assert cert.passed, desc
                        rank = cert.independence
                        assert rank.numerical_rank == 2 * n - 2, desc
                        kept = [_best_kept_ratio(rank.singular_values, 2 * n - 2)]
                        assert [e.rank for e in cert.extras] == [2 * n - 1] * len(axes)
                        if axes:
                            G = np.concatenate([
                                cert.table.gradients,
                                brackets._stacked_tensor(
                                    [extra_integral(desc, a) for a in axes],
                                    cert.table.points)], axis=1)
                            for j in range(len(axes)):
                                rows = [*range(2 * n - 2), 2 * n - 2 + j]
                                sigmas = np.linalg.svd(G[:, rows], compute_uv=False)
                                kept.append(_best_kept_ratio(sigmas, 2 * n - 1))
                        assert min(kept) >= 10.0 * settings.rank_tol, (desc, kept)


def _per_point_tensor(functions, sample):
    """G[P, K, 2N] from one gradient_fn call per function and sample row."""
    return np.array([[np.concatenate(f.gradient_fn(q, p)) for f in functions]
                     for q, p in map(split, sample)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ranks_and_residuals_are_bitwise_the_per_point_reductions(family):
    """independence_rank and max_bracket_residual, from one stacked gradient
    call per quantity, give bit for bit the same reductions of a tensor built
    one point at a time, on every space and sign of kappa, for H with the
    universal integrals and with every extra added."""
    info = FAMILIES[family]
    rng = np.random.default_rng(17)
    for space in info.spaces:
        for kappa in (0.0,) if space == "euclidean" else (0.6, -0.6):
            for n in (3, 6):
                params = {"kappa": kappa, **{key: 0.9 for key in info.params}}
                desc = SystemDescriptor(family, space, params,
                                        [0.0, 0.3, 0.2, 0.5, 0.1, 0.4][:n],
                                        STACK_PROFILES.get(family, {}))
                spec = build(desc)
                universal = [energy_quantity(spec), *universal_set(spec.realization).all]
                extras = [extra_integral(desc, axis) for axis in desc.ms_axes]
                points = sample_for_spec(spec, 20, rng)
                reference = _per_point_tensor(universal + extras, points)
                for rows in (len(universal), reference.shape[1]):
                    functions = (universal + extras)[:rows]
                    cert = independence_rank(functions, points)
                    want = brackets._rank(reference, range(rows),
                                          [f.name for f in functions], 1e-8)
                    assert cert.numerical_rank == want.numerical_rank, (desc, rows)
                    assert np.array_equal(cert.singular_values, want.singular_values)
                for k, f in enumerate(universal[1:] + extras, start=1):
                    raw, normalized = brackets._max_residuals(reference, [0], [k])
                    assert max_bracket_residual(universal[0], f, points) == \
                        (float(raw[0]), float(normalized[0])), (desc, f.name)


def test_independence_rejects_mixed_dimensions(rng):
    a = coordinate("q", 0, 2)
    b = coordinate("q", 0, 3)
    with pytest.raises(DimensionMismatch):
        independence_rank([a, b], sample_regular_points(5, 2, rng))


def test_sampling_respects_bounds_and_charts(rng):
    q, p = split(sample_regular_points(50, 3, rng))
    assert np.all(np.abs(q) >= 0.2) and np.all(np.abs(q) <= 1.5)
    assert np.all(np.abs(p) <= 1.5)
    # the chart scale caps q.q at CHART_FILL / |kappa| (up to rounding), well
    # inside the chart: no draw needs rejecting
    for space, kappa, n in (("poincare", 1.0, 4), ("beltrami", -0.5, 4),
                            ("poincare", -0.5, 50), ("poincare", 1e3, 14)):
        q, _ = split(sample_regular_points(50, n, rng, kappa=kappa, space=space))
        q2 = np.einsum("ij,ij->i", q, q)
        assert np.all(q2 <= CHART_FILL / abs(kappa) * (1.0 + 1e-14)), (space, kappa, n)
        assert np.all(1.0 - abs(kappa) * q2 > 0.0)


def _per_row_sample(n_points, ndim, rng, kappa, space):
    """Reference sampler: each row's 3N uniforms drawn in turn, N magnitudes
    by Generator.uniform, N signs (u < 1/2 gives -), N momenta by
    Generator.uniform, each point validated as a PhasePoint; the one-call
    array sampler must match it bit for bit."""
    gen = np.random.default_rng(rng)
    q2_limit = squared_chart_radius(space, kappa)
    scale = 1.0
    if q2_limit is not None:
        scale = min(1.0, np.sqrt(CHART_FILL * q2_limit / (ndim * Q_HIGH ** 2)))
    points = []
    for _ in range(n_points):
        mag = gen.uniform(Q_LOW * scale, Q_HIGH * scale, size=ndim)
        sign = np.where(gen.random(ndim) < 0.5, -1.0, 1.0)
        p = gen.uniform(-P_HIGH / scale, P_HIGH / scale, size=ndim)
        points.append(PhasePoint(mag * sign, p))
    return points


SAMPLER_SPACES = [
    ("euclidean", 0.0), ("beltrami", 0.6), ("poincare", 0.6),
    ("poincare", -0.6), ("beltrami", -0.6),
]


@pytest.mark.parametrize("space,kappa", SAMPLER_SPACES)
def test_sample_array_is_bitwise_the_per_point_draws(space, kappa):
    for n in (1, 2, 4, 14, 50):
        for seed in (0, 7, 931):
            got = sample_regular_points(25, n, seed, kappa=kappa, space=space)
            want = [np.concatenate([x.q, x.p])
                    for x in _per_row_sample(25, n, seed, kappa, space)]
            assert got.shape == (25, 2 * n) and got.dtype == np.float64
            assert np.array_equal(got, want), (space, kappa, n, seed)


@pytest.mark.parametrize("space,kappa", SAMPLER_SPACES)
def test_sample_prefix_is_the_smaller_sample(space, kappa):
    """A seed fixes the first points of a sample at every size."""
    for n in (1, 3, 14):
        for seed in (0, 5):
            whole = sample_regular_points(40, n, seed, kappa=kappa, space=space)
            for k in (1, 2, 17, 39):
                head = sample_regular_points(k, n, seed, kappa=kappa, space=space)
                assert np.array_equal(whole[:k], head), (space, kappa, n, seed, k)


@pytest.mark.parametrize("space,kappa", SAMPLER_SPACES)
def test_sampler_advances_a_passed_generator_by_one_block(space, kappa):
    """A passed-in Generator moves on by exactly one (P, 3N) draw, so what
    it draws next is what it would draw after that block."""
    for n_points, n in ((1, 1), (20, 4), (7, 14)):
        gen, twin = np.random.default_rng(8), np.random.default_rng(8)
        sample_regular_points(n_points, n, gen, kappa=kappa, space=space)
        twin.random((n_points, 3 * n))
        assert gen.bit_generator.state == twin.bit_generator.state
        assert gen.random() == twin.random()


def test_sample_size_has_no_draw_budget(rng):
    """Every draw is kept, so a sample of any size is one draw per point."""
    for space, kappa in (("euclidean", 0.0), ("poincare", 0.5), ("beltrami", -0.5)):
        sample = sample_regular_points(1001, 3, rng, kappa=kappa, space=space)
        assert sample.shape == (1001, 6) and np.all(np.isfinite(sample))


@pytest.mark.parametrize("space,kappa", [
    ("euclidean", 0.0), ("poincare", 0.5), ("beltrami", 0.5), ("beltrami", -0.5),
])
def test_sampler_rejects_empty_sizes_before_drawing(space, kappa):
    gen = np.random.default_rng(3)
    state = gen.bit_generator.state
    for n_points in (0, -1):
        with pytest.raises(SamplingError, match="at least one point"):
            sample_regular_points(n_points, 3, gen, kappa=kappa, space=space)
    for ndim in (0, -2):
        with pytest.raises(DimensionMismatch, match="at least one canonical pair"):
            sample_regular_points(3, ndim, gen, kappa=kappa, space=space)
    assert gen.bit_generator.state == state
    spec = make_sw(space, mass=1.0, omega=1.0, b_tilde=[0.1, 0.1], kappa=kappa)
    with pytest.raises(SamplingError):
        involution_table(spec, universal_set(spec.realization), 0, rng=gen)


def test_sampler_refuses_a_sample_too_large_to_store_before_drawing():
    # 10**30 rows: numpy refuses the block's shape without allocating it
    gen = np.random.default_rng(3)
    state = gen.bit_generator.state
    with pytest.raises(RangeError, match="more sample points than can be stored"):
        sample_regular_points(10 ** 30, 3, gen)
    assert gen.bit_generator.state == state


def test_sample_passed_in_is_checked(rng):
    """A sample given to the rank and residual certificates must be a finite
    (P, 2N) array with P >= 1."""
    spec = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.1, 0.2, 0.3])
    functions = [energy_quantity(spec), *universal_set(spec.realization).all]
    sample = sample_regular_points(5, 3, rng)
    assert independence_rank(functions, sample.tolist()).passed
    for bad in (sample[0], sample[:, :4], sample[None]):
        with pytest.raises(DimensionMismatch, match=r"need a \(P, 6\) sample"):
            independence_rank(functions, bad)
    with pytest.raises(SamplingError):
        max_bracket_residual(functions[0], functions[1], sample[:0])
    bad = sample.copy()
    bad[2, 4] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        max_bracket_residual(functions[0], functions[1], bad)
