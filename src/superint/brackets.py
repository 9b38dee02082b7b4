"""Numerical Poisson brackets, involution tables, and independence ranks.

The canonical bracket {f, g} = sum_i (df/dq_i dg/dp_i - dg/dq_i df/dp_i) is
evaluated from analytic gradients only, which keeps residual thresholds at
1e-9 meaningful.  Residuals are reported raw and normalized by
1 + |grad f| |grad g| so that large-coordinate samples do not fail spuriously.
An involution table evaluates the gradient (and its norm) of each quantity
once per sample point and shares it among all pairs the quantity is in.

Functional independence is certified by the numerical rank of the stacked
gradient rows at sampled points: independence is a generic-point property,
so the certificate takes the maximum rank over the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import ConservedQuantity, HamiltonianSpec, PhasePoint, energy_quantity
from .errors import DimensionMismatch, SamplingError
from .geometry import CHARTS, EUCLIDEAN, POINCARE
from .integrals import IntegralSet

Q_LOW, Q_HIGH = 0.2, 1.5
P_HIGH = 1.5
CHART_FILL = 0.8  # fraction of the squared chart radius the sampler may fill


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def poisson_bracket(f: ConservedQuantity, g: ConservedQuantity, x: PhasePoint) -> float:
    """{f, g} at x; antisymmetric by construction (computed once)."""
    fq, fp = f.gradient(x)
    gq, gp = g.gradient(x)
    return float(fq @ gp - gq @ fp)


def _gradient_with_norm(f: ConservedQuantity, x: PhasePoint):
    """(dF/dq, dF/dp, |grad F|) at x."""
    dq, dp = f.gradient(x)
    return dq, dp, np.sqrt(dq @ dq + dp @ dp)


def _residual(df, dg):
    """(raw, normalized) |{f, g}| from two _gradient_with_norm results."""
    fq, fp, f_norm = df
    gq, gp, g_norm = dg
    raw = abs(float(fq @ gp - gq @ fp))
    return raw, raw / (1.0 + f_norm * g_norm)


def bracket_with_scale(f: ConservedQuantity, g: ConservedQuantity, x: PhasePoint):
    """(raw, normalized) bracket residual magnitudes at one point."""
    return _residual(_gradient_with_norm(f, x), _gradient_with_norm(g, x))


def max_bracket_residual(f, g, points: Sequence[PhasePoint]):
    """Max raw and normalized |{f, g}| over a sample."""
    raw_max = norm_max = 0.0
    for x in points:
        raw, norm = bracket_with_scale(f, g, x)
        raw_max = max(raw_max, raw)
        norm_max = max(norm_max, norm)
    return raw_max, norm_max


def sample_regular_points(
    n_points: int,
    ndim: int,
    rng=0,
    *,
    kappa: float = 0.0,
    space: str = EUCLIDEAN,
    max_draws: int = 1000,
) -> list[PhasePoint]:
    """Random phase points away from coordinate planes and chart boundaries.

    |q_i| is uniform in [0.2, 1.5] (rescaled to fit inside a bounded chart)
    with random sign, p_i uniform in [-1.5, 1.5].
    """
    gen = _rng(rng)
    q2_limit = None
    if space == POINCARE and kappa > 0.0:
        q2_limit = 1.0 / kappa
    elif space in CHARTS and kappa < 0.0:
        q2_limit = 1.0 / (-kappa)
    scale = 1.0
    if q2_limit is not None:
        scale = min(1.0, np.sqrt(CHART_FILL * q2_limit / (ndim * Q_HIGH ** 2)))
    points: list[PhasePoint] = []
    draws = 0
    while len(points) < n_points:
        if draws >= max_draws:
            raise SamplingError(
                f"no regular sample found in {max_draws} draws "
                f"(got {len(points)}/{n_points})"
            )
        draws += 1
        mag = gen.uniform(Q_LOW * scale, Q_HIGH * scale, size=ndim)
        sign = gen.choice([-1.0, 1.0], size=ndim)
        q = mag * sign
        p = gen.uniform(-P_HIGH, P_HIGH, size=ndim)
        if q2_limit is not None and float(q @ q) > 0.9 * q2_limit:
            continue
        points.append(PhasePoint(q, p))
    return points


def sample_for_spec(spec: HamiltonianSpec, n_points: int, rng=0) -> list[PhasePoint]:
    """Regular sample respecting the spec's space and curvature (flat space
    when the spec has no descriptor)."""
    desc = spec.descriptor
    if desc is None:
        return sample_regular_points(n_points, spec.n, rng)
    return sample_regular_points(n_points, spec.n, rng, kappa=desc.kappa, space=desc.space)


@dataclass(frozen=True)
class PairResidual:
    name_a: str
    name_b: str
    max_raw: float
    max_normalized: float


@dataclass(frozen=True)
class BracketResidualTable:
    """Max |{A, B}| over a sample, for every asserted pair."""

    pairs: tuple[PairResidual, ...]
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(p.max_normalized < self.tolerance for p in self.pairs)

    @property
    def worst(self) -> PairResidual:
        return max(self.pairs, key=lambda p: p.max_normalized)


def involution_table(
    spec: HamiltonianSpec,
    integrals: IntegralSet,
    sample_points: int,
    *,
    rng=0,
    tolerance: float = 1e-9,
) -> BracketResidualTable:
    """Residuals of every asserted bracket: H against each universal
    integral, and all pairs within the left and within the right family.

    Cross-family pairs are not asserted (they need not vanish) and are not
    tabulated.
    """
    if sample_points < 1:
        raise SamplingError("sample_points must be >= 1")
    points = sample_for_spec(spec, sample_points, rng)
    h = energy_quantity(spec)
    quantities = [h, *integrals.all]
    # Indices into `quantities`, which lists H, then integrals.left, then
    # integrals.right.
    n_left = len(integrals.left)
    left = list(range(1, n_left + 1))
    # C_(N) coincides with C^(N): the right family in involution includes it.
    right = list(range(n_left + 1, len(quantities))) + [n_left]
    jobs = [(0, k) for k in range(1, len(quantities))]
    jobs += combinations(left, 2)
    jobs += combinations(right, 2)

    # One pass over the sample in order: each gradient and its norm once per
    # point, then the same residual and running maxima as
    # max_bracket_residual, so every entry is bitwise the pairwise one.
    raw_max = [0.0] * len(jobs)
    norm_max = [0.0] * len(jobs)
    for x in points:
        grads = [_gradient_with_norm(c, x) for c in quantities]
        for k, (a, b) in enumerate(jobs):
            raw, norm = _residual(grads[a], grads[b])
            raw_max[k] = max(raw_max[k], raw)
            norm_max[k] = max(norm_max[k], norm)
    pairs = tuple(
        PairResidual(quantities[a].name, quantities[b].name, raw_max[k], norm_max[k])
        for k, (a, b) in enumerate(jobs)
    )
    return BracketResidualTable(pairs, sample_points, tolerance)


@dataclass(frozen=True)
class IndependenceCertificate:
    """Numerical rank of the stacked gradients at sampled points."""

    functions: tuple[str, ...]
    num_points: int
    singular_values: tuple[np.ndarray, ...]
    numerical_rank: int
    rank_tolerance: float

    @property
    def passed(self) -> bool:
        return self.numerical_rank == len(self.functions)


def independence_rank(
    functions: Sequence[ConservedQuantity],
    points: Sequence[PhasePoint],
    *,
    rank_tolerance: float = 1e-8,
) -> IndependenceCertificate:
    """Certify functional independence of a set of observables at the points.

    The per-point rank counts singular values above rank_tolerance * sigma_max;
    the certificate takes the maximum over the sample (a single full-rank
    point establishes generic independence).
    """
    ndims = {f.ndim for f in functions}
    if len(ndims) != 1:
        raise DimensionMismatch(f"functions live on different dimensions: {ndims}")
    ndim = ndims.pop()
    if not points:
        raise SamplingError("independence needs at least one sample point")

    def run(x: PhasePoint) -> np.ndarray:
        rows = np.empty((len(functions), 2 * ndim))
        for i, f in enumerate(functions):
            dq, dp = f.gradient(x)
            rows[i, :ndim] = dq
            rows[i, ndim:] = dp
        return np.linalg.svd(rows, compute_uv=False)

    sigmas = tuple(run(x) for x in points)
    rank = 0
    for s in sigmas:
        if s.size and s[0] > 0.0:
            rank = max(rank, int(np.sum(s > rank_tolerance * s[0])))
    return IndependenceCertificate(
        tuple(f.name for f in functions), len(points), sigmas, rank, rank_tolerance
    )
