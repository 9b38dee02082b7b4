"""Numerical Poisson brackets, involution tables, independence ranks and
the certificate behind `superint verify`.

The canonical bracket {f, g} = sum_i (df/dq_i dg/dp_i - dg/dq_i df/dp_i) is
evaluated from gradients exact to rounding (chain rule or complex step,
never finite differences), which keeps residual thresholds at 1e-9
meaningful.  Residuals are reported raw and normalized by
1 + |grad f| |grad g| so that large-coordinate samples do not fail spuriously.

Functional independence is certified by the numerical rank of the stacked
gradient rows at sampled points: independence is a generic-point property,
so the certificate takes the maximum rank over the sample.

A sample is one (P, 2N) array whose rows are phase points [q | p], the
layout of a trajectory's stacked states.  `sample_regular_points` fills it
from one generator call; it passes unchanged from the involution table to
every certificate and is split into q and p views only where a `value_fn`
or `gradient_fn` is called.  Every certificate rests on a gradient tensor
G[P, K, 2N], the gradient rows of K quantities at the P sample points,
from one `gradient_fn` call per quantity over the whole sample (the
universal integrals' from one pass of their set).  The brackets of the
asserted pairs come from one bracket matrix per point, summed left to
right over the coordinates (an extra's with H from H's and the extras'
rows alone), and each rank is one batched SVD.  `certify` takes every
number of a verify report from one sample and its tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .catalog import SystemDescriptor, build, extra_integral
from .config import VerificationSettings
from .core import ConservedQuantity, HamiltonianSpec, energy_quantity
from .errors import DimensionMismatch, DomainError, RangeError, SamplingError
from .geometry import EUCLIDEAN, squared_chart_radius
from .integrals import IntegralSet, universal_set

Q_LOW, Q_HIGH = 0.2, 1.5
P_HIGH = 1.5
CHART_FILL = 0.8  # fraction of the squared chart radius the sampler may fill


def poisson_bracket(f: ConservedQuantity, g: ConservedQuantity, x) -> float:
    """{f, g} at the PhasePoint x; antisymmetric by construction (computed
    once)."""
    fq, fp = f.gradient(x)
    gq, gp = g.gradient(x)
    return float(fq @ gp - gq @ fp)


def _split(G: np.ndarray):
    """(dF/dq, dF/dp, |grad F|) of gradient rows G[..., 2N]."""
    n = G.shape[-1] // 2
    return G[..., :n], G[..., n:], np.sqrt((G * G).sum(axis=-1))


def _dot(x, y):
    """sum_i x[i] * y[i] over the first axis, added left to right, so every
    entry of a batched sum is bitwise the sum over one pair of rows."""
    total = x[0] * y[0]
    for xi, yi in zip(x[1:], y[1:]):
        total += xi * yi
    return total


def _residual(df, dg):
    """(raw, normalized) |{f, g}| from two _split rows (dF/dq, dF/dp,
    |grad F|)."""
    fq, fp, f_norm = df
    gq, gp, g_norm = dg
    raw = abs(_dot(fq, gp) - _dot(gq, fp))
    return raw, raw / (1.0 + f_norm * g_norm)


def _max_residuals(G: np.ndarray, a, b):
    """Max over the sample of the (raw, normalized) _residual of each row
    pair (a[j], b[j]) of the gradient tensor G[P, K, 2N]; two arrays of
    len(a)."""
    n = G.shape[-1] // 2
    rows = np.moveaxis(G, -1, 0)  # (2N, P, K)
    # B[p, k, l] = dF_k/dq . dF_l/dp at point p, so {F_k, F_l} = B_kl - B_lk
    B = _dot(rows[:n, :, :, None], rows[n:, :, None, :])
    norm = _split(G)[2]
    raw = np.abs(B[:, a, b] - B[:, b, a])
    normalized = raw / (1.0 + norm[:, a] * norm[:, b])
    return raw.max(axis=0), normalized.max(axis=0)


def sample_regular_points(
    n_points: int,
    ndim: int,
    rng=0,
    *,
    kappa: float = 0.0,
    space: str = EUCLIDEAN,
) -> np.ndarray:
    """Random phase points away from coordinate planes and chart boundaries,
    as one (n_points, 2 ndim) array of rows [q | p].

    |q_i| is uniform in [0.2, 1.5) with random sign and p_i uniform in
    [-1.5, 1.5).  On a bounded chart q is scaled by s <= 1 to fit and p by
    1/s: the chart bounds only q, and the (q_i p_j - q_j p_i)^2 terms of the
    window Casimirs would otherwise shrink like s^2 against the
    scale-free barrier terms, until their gradient rows look dependent.
    s is at most sqrt(CHART_FILL R^2 / (N 1.5^2)), for R^2 the squared
    chart radius, so q.q <= CHART_FILL R^2 up to rounding and every draw
    lies inside the chart.  One Generator.random call fills a (n_points,
    3 ndim) block: per row ndim magnitudes, ndim signs (u < 1/2 gives -),
    then p, so a seed fixes the first points of a sample at every size.  A
    sample too large to store is a RangeError before anything is drawn.
    """
    if n_points < 1:
        raise SamplingError(f"a sample needs at least one point, got {n_points}")
    if ndim < 1:
        raise DimensionMismatch(f"a phase point needs at least one canonical pair, got {ndim}")
    gen = np.random.default_rng(rng)
    q2_limit = squared_chart_radius(space, kappa)
    scale = 1.0
    if q2_limit is not None:
        scale = min(1.0, np.sqrt(CHART_FILL * q2_limit / (ndim * Q_HIGH ** 2)))
    try:
        u, sample = np.empty((n_points, 3 * ndim)), np.empty((n_points, 2 * ndim))
    except (MemoryError, ValueError):
        raise RangeError(f"{n_points} points are more sample points than can be stored") from None
    gen.random(out=u)  # below, low + (high - low) u rounds as Generator.uniform does
    q_low, q_high = Q_LOW * scale, Q_HIGH * scale
    np.copysign(q_low + (q_high - q_low) * u[:, :ndim], u[:, ndim:2 * ndim] - 0.5,
                out=sample[:, :ndim])
    sample[:, ndim:] = -P_HIGH / scale + 2.0 * P_HIGH / scale * u[:, 2 * ndim:]
    return sample


def sample_for_spec(spec: HamiltonianSpec, n_points: int, rng=0) -> np.ndarray:
    """Regular sample respecting the spec's space and curvature (flat space
    when the spec has no descriptor)."""
    desc = spec.descriptor
    if desc is None:
        return sample_regular_points(n_points, spec.n, rng)
    return sample_regular_points(n_points, spec.n, rng, kappa=desc.kappa, space=desc.space)


def _sample_ndim(functions: Sequence[ConservedQuantity], sample: np.ndarray) -> int:
    """The N the functions share, once the sample passed in is checked to
    be a finite (P, 2N) array with P >= 1."""
    ndims = {f.ndim for f in functions}
    if len(ndims) != 1:
        raise DimensionMismatch(f"functions live on different dimensions: {ndims}")
    ndim = ndims.pop()
    if sample.ndim != 2 or sample.shape[1] != 2 * ndim:
        raise DimensionMismatch(
            f"functions on {ndim} sites need a (P, {2 * ndim}) sample, got shape {sample.shape}")
    if len(sample) < 1:
        raise SamplingError("a gradient tensor needs at least one sample point")
    if not np.all(np.isfinite(sample)):
        raise DomainError("sample contains non-finite entries")
    return ndim


def _stacked_tensor(functions: Sequence[ConservedQuantity], sample) -> np.ndarray:
    """G[P, K, 2N] of the functions on a (P, 2N) sample, one gradient_fn
    call each on its q and p views."""
    sample = np.asarray(sample, dtype=float)
    n = _sample_ndim(functions, sample)
    q, p = sample[:, :n], sample[:, n:]
    return np.stack([np.concatenate(f.gradient_fn(q, p), axis=-1) for f in functions], axis=1)


def max_bracket_residual(f, g, sample: np.ndarray):
    """Max raw and normalized |{f, g}| over a (P, 2N) sample."""
    raw, normalized = _max_residuals(_stacked_tensor([f, g], sample), [0], [1])
    return float(raw[0]), float(normalized[0])


def gradient_tensor(
    spec: HamiltonianSpec,
    integrals: IntegralSet,
    sample: np.ndarray,
) -> np.ndarray:
    """G[P, K, 2N]: the gradient rows of H, then of integrals.all, at every
    point of a (P, 2N) sample.

    H's gradient_fn and the set's `gradients` are each called once, on the
    whole sample: the set's rows come from one column pass when its members
    are its realization's own windows, and from each member's gradient_fn
    otherwise, so the quantities are evaluated as given.
    """
    sample = np.asarray(sample, dtype=float)
    h = energy_quantity(spec)
    n = _sample_ndim([h, *integrals.all], sample)
    q, p = sample[:, :n], sample[:, n:]
    G = np.empty((len(sample), 1 + integrals.count, 2 * n))
    G[:, 0, :n], G[:, 0, n:] = h.gradient_fn(q, p)
    G[:, 1:, :n], G[:, 1:, n:] = integrals.gradients(q, p)
    return G


@dataclass(frozen=True)
class PairResidual:
    name_a: str
    name_b: str
    max_raw: float
    max_normalized: float


@dataclass(frozen=True)
class BracketResidualTable:
    """Max |{A, B}| over a sample, for every asserted pair.

    `points` and `gradients` are the (P, 2N) sample and its gradient tensor
    over [H, *integrals.all] the residuals come from, kept so that a
    certificate can rank and bracket more quantities on the same sample.
    """

    pairs: tuple[PairResidual, ...]
    samples: int
    tolerance: float
    points: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    gradients: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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
    integral, and all pairs within the left and within the right family,
    over a sample drawn for the spec, from one gradient tensor.

    Cross-family pairs are not asserted (they need not vanish) and are not
    tabulated.
    """
    points = sample_for_spec(spec, sample_points, rng)
    G = gradient_tensor(spec, integrals, points)
    n_left = len(integrals.left)
    left = list(range(1, n_left + 1))
    # C_(N) coincides with C^(N): the right family in involution includes it.
    right = list(range(n_left + 1, integrals.count + 1)) + [n_left]
    jobs = [(0, k) for k in range(1, integrals.count + 1)]
    jobs += combinations(left, 2)
    jobs += combinations(right, 2)
    a, b = (list(rows) for rows in zip(*jobs))
    raw, normalized = _max_residuals(G, a, b)
    names = ["H", *(c.name for c in integrals.all)]
    pairs = tuple(
        PairResidual(names[i], names[j], float(r), float(m))
        for (i, j), r, m in zip(jobs, raw, normalized)
    )
    return BracketResidualTable(pairs, len(points), tolerance, points, G)



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


def _rank(G: np.ndarray, rows: Sequence[int], names: Sequence[str],
          rank_tolerance: float) -> IndependenceCertificate:
    """Rank of the rows of G[P, K, 2N], from one batched SVD.

    The per-point rank counts singular values above rank_tolerance *
    sigma_max; the certificate takes the maximum over the sample (a single
    full-rank point establishes generic independence).
    """
    sigmas = np.linalg.svd(G[:, rows], compute_uv=False)
    top = sigmas[:, 0]
    counts = np.sum(sigmas > rank_tolerance * top[:, None], axis=1)
    rank = int(counts[top > 0.0].max(initial=0))
    return IndependenceCertificate(
        tuple(names), G.shape[0], tuple(sigmas), rank, rank_tolerance
    )


def independence_rank(
    functions: Sequence[ConservedQuantity],
    sample: np.ndarray,
    *,
    rank_tolerance: float = 1e-8,
) -> IndependenceCertificate:
    """Certify functional independence of a set of observables on a (P, 2N)
    sample."""
    G = _stacked_tensor(functions, sample)
    return _rank(G, range(len(functions)), [f.name for f in functions], rank_tolerance)


IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class ExtraCheck:
    """One extra integral: max |{H, I}| over the sample and the rank of the
    universal rows with I added."""

    name: str
    max_raw: float
    max_normalized: float
    rank: int
    passed: bool


@dataclass(frozen=True)
class Certificate:
    """Everything `superint verify` reports, computed on one shared sample.

    `identity_residual` is the worst relative residual of sum_i I_i = 2 m H
    on the flat oscillator and None for every other system.
    """

    universal_count: int
    table: BracketResidualTable
    independence: IndependenceCertificate
    expected_rank: int
    extras: tuple[ExtraCheck, ...]
    identity_residual: Optional[float]

    @property
    def rank_passed(self) -> bool:
        return self.independence.numerical_rank == self.expected_rank

    @property
    def extras_passed(self) -> bool:
        identity_ok = self.identity_residual is None or self.identity_residual < IDENTITY_TOL
        return identity_ok and all(e.passed for e in self.extras)

    @property
    def passed(self) -> bool:
        return self.table.passed and self.rank_passed and self.extras_passed


def certify(
    descriptor: SystemDescriptor,
    settings: VerificationSettings = VerificationSettings(),
    *,
    extra_axes: Sequence[int] = (),
    rng=0,
) -> Certificate:
    """Certify a system on one sample of settings.sample_points points.

    The involution table draws the sample and its gradient tensor over
    [H, universal integrals]; the requested extras add one row each, from
    one gradient call on the stacked sample.  That one tensor gives the
    rank 2N-2 of H with the universal integrals, and for each extra its
    bracket with H, from H's row and its own, and the rank 2N-1 with it
    added.  On the flat oscillator the sample also checks the exact identity
    sum_i I_i = 2 m H over all N axes.
    """
    spec = build(descriptor)
    uni = universal_set(spec.realization)
    extras = [extra_integral(descriptor, axis) for axis in extra_axes]
    table = involution_table(spec, uni, settings.sample_points, rng=rng,
                             tolerance=settings.bracket_tol)
    G = table.gradients
    if extras:
        G = np.concatenate([G, _stacked_tensor(extras, table.points)], axis=1)
    names = ["H", *(c.name for c in uni.all)]
    universal_rows = list(range(len(names)))
    n = spec.n

    rank = _rank(G, universal_rows, names, settings.rank_tol)
    checks = []
    h_extras = G[:, [0, *range(len(names), G.shape[1])]]
    raw, normalized = _max_residuals(h_extras, [0] * len(extras), range(1, len(extras) + 1))
    for j, extra in enumerate(extras):
        row = len(names) + j
        with_extra = _rank(G, universal_rows + [row], names + [extra.name], settings.rank_tol)
        ok = normalized[j] < settings.bracket_tol and with_extra.numerical_rank == 2 * n - 1
        checks.append(ExtraCheck(extra.name, float(raw[j]), float(normalized[j]),
                                 with_extra.numerical_rank, bool(ok)))

    identity = None
    if descriptor.family == "sw" and descriptor.space == EUCLIDEAN:
        # sum_i I_i = 2 m H, an exact linear identity of the flat oscillator
        q, p = table.points[:, :n], table.points[:, n:]
        total = sum(extra_integral(descriptor, a).value_fn(q, p) for a in range(n))
        target = 2.0 * descriptor.params["mass"] * spec.value_qp(q, p)
        identity = float(np.max(np.abs(total - target) / np.maximum(1.0, np.abs(target))))
    return Certificate(uni.count, table, rank, 2 * n - 2, tuple(checks), identity)
