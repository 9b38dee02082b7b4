"""Constant-curvature geometry.

The sphere (kappa > 0) and the hyperbolic space (kappa < 0) of dimension N
are carried on the ambient quadric x0^2 + kappa * x^2 = 1 in R^(N+1); the
Euclidean case is the kappa = 0 limit.  Two charts are used throughout:

  * Poincare coordinates y, from the stereographic projection with pole
    (-1, 0):   x0 = (1 - kappa y^2)/(1 + kappa y^2),  x = 2y/(1 + kappa y^2)
  * Beltrami coordinates z, from the central projection with pole (0, 0):
    x0 = mu,  x = mu z,  mu = 1/sqrt(1 + kappa z^2)

For kappa > 0 the library works on the x0 > 0 hemisphere, which both charts
cover injectively.  The radial geodesic distance r from the origin satisfies
tan^2(sqrt(kappa) r)/kappa = x^2/x0^2 = 4y^2/(1 - kappa y^2)^2 = z^2, with
the tanh continuation for kappa < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _as_vector
from .errors import ChartBoundary, ConfigError, DimensionMismatch, DomainError

EUCLIDEAN = "euclidean"
POINCARE = "poincare"
BELTRAMI = "beltrami"
CHARTS = (POINCARE, BELTRAMI)
SPACES = (EUCLIDEAN, *CHARTS)

AMBIENT_CONSTRAINT_TOL = 1e-12


def _check_chart(chart: str) -> str:
    if chart not in CHARTS:
        raise ConfigError(f"chart must be one of {CHARTS}, got {chart!r}")
    return chart


def check_space(space: str, kappa: float) -> None:
    """Raise ConfigError unless `space` is one of SPACES, with kappa = 0 when flat."""
    if space not in SPACES:
        raise ConfigError(f"space must be one of {SPACES}, got {space!r}")
    if space == EUCLIDEAN and kappa != 0.0:
        raise ConfigError("euclidean space has kappa = 0")


@dataclass(frozen=True)
class AmbientPoint:
    """Point (x0, x) on the quadric x0^2 + kappa x^2 = 1."""

    x0: float
    x: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "kappa", float(self.kappa))
        resid = abs(self.x0 ** 2 + self.kappa * float(self.x @ self.x) - 1.0)
        if resid > AMBIENT_CONSTRAINT_TOL:
            raise DomainError(f"ambient constraint violated by {resid:.3e}")
        if self.kappa < 0.0 and self.x0 <= 0.0:
            raise DomainError("hyperbolic ambient points use the x0 > 0 sheet")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ChartPoint:
    """Chart coordinates (Poincare y or Beltrami z) in R^N."""

    chart: str
    coords: np.ndarray

    def __post_init__(self):
        _check_chart(self.chart)
        object.__setattr__(self, "coords", _as_vector(self.coords, "coords"))

    @property
    def n(self) -> int:
        return self.coords.size


def poincare_to_ambient(y, kappa: float) -> AmbientPoint:
    """Stereographic chart to ambient; singular where 1 + kappa y^2 = 0."""
    y = _coords(y, POINCARE)
    y2 = float(y @ y)
    denom = 1.0 + kappa * y2
    if abs(denom) < 1e-14:
        raise ChartBoundary("1 + kappa y^2 = 0: stereographic chart boundary")
    lam = 2.0 / denom
    return AmbientPoint(lam - 1.0, lam * y, kappa)


def beltrami_to_ambient(z, kappa: float) -> AmbientPoint:
    """Central chart to ambient; requires 1 + kappa z^2 > 0."""
    z = _coords(z, BELTRAMI)
    z2 = float(z @ z)
    denom = 1.0 + kappa * z2
    if denom <= 0.0:
        raise ChartBoundary("1 + kappa z^2 <= 0: central chart boundary")
    mu = 1.0 / math.sqrt(denom)
    return AmbientPoint(mu, mu * z, kappa)


def chart_to_ambient(point: ChartPoint, kappa: float) -> AmbientPoint:
    if point.chart == POINCARE:
        return poincare_to_ambient(point.coords, kappa)
    return beltrami_to_ambient(point.coords, kappa)


def ambient_to_poincare(a: AmbientPoint) -> np.ndarray:
    if a.x0 <= -1.0 + 1e-14:
        raise DomainError("stereographic pole (x0 = -1) has no chart image")
    return a.x / (1.0 + a.x0)


def ambient_to_beltrami(a: AmbientPoint) -> np.ndarray:
    if abs(a.x0) < 1e-14:
        raise DomainError("equator (x0 = 0) has no central-chart image")
    return a.x / a.x0


def ambient_to_chart(a: AmbientPoint, chart: str) -> ChartPoint:
    _check_chart(chart)
    coords = ambient_to_poincare(a) if chart == POINCARE else ambient_to_beltrami(a)
    return ChartPoint(chart, coords)


def poincare_to_beltrami(y, kappa: float) -> np.ndarray:
    """Direct chart transition z = 2y / (1 - kappa y^2)."""
    y = _coords(y, POINCARE)
    denom = 1.0 - kappa * float(y @ y)
    if abs(denom) < 1e-14:
        raise ChartBoundary("kappa y^2 = 1: equator image in the stereographic chart")
    return 2.0 * y / denom


def _coords(point, chart: str) -> np.ndarray:
    if isinstance(point, ChartPoint):
        if point.chart != chart:
            raise ConfigError(f"expected a {chart} point, got {point.chart}")
        return point.coords
    return _as_vector(point, "coords")


def geodesic_distance(point, kappa: float | None = None) -> float:
    """Radial geodesic distance from the origin.

    Accepts an AmbientPoint (kappa taken from the point) or a ChartPoint with
    an explicit kappa.  For kappa > 0 the result lies in [0, pi/(2 sqrt(kappa)))
    on the x0 > 0 hemisphere.
    """
    if isinstance(point, AmbientPoint):
        kp = point.kappa
        if kappa is not None and kappa != kp:
            raise ConfigError("kappa argument contradicts the ambient point")
        if abs(point.x0) < 1e-14:
            raise DomainError("equator (x0 = 0) is at a quarter turn; distance chart fails")
        if kp > 0.0 and point.x0 < 0.0:
            raise DomainError("point on the far hemisphere (x0 < 0)")
        rho2 = float(point.x @ point.x) / point.x0 ** 2
    else:
        if kappa is None:
            raise ConfigError("chart points need an explicit kappa")
        kp = float(kappa)
        cp = point if isinstance(point, ChartPoint) else ChartPoint(BELTRAMI, point)
        # tan^2(sqrt(kappa) r)/kappa is z^2, in Beltrami coordinates z
        z = cp.coords if cp.chart == BELTRAMI else poincare_to_beltrami(cp.coords, kp)
        rho2 = float(z @ z)
    rho = math.sqrt(rho2)
    if kp == 0.0:
        return rho
    if kp > 0.0:
        return math.atan(math.sqrt(kp) * rho) / math.sqrt(kp)
    s = math.sqrt(-kp)
    if s * rho >= 1.0:
        raise DomainError("point at or beyond the ideal boundary")
    return math.atanh(s * rho) / s


def metric_form(chart: str, kappa: float, pos, vel) -> float:
    """Quadratic form ds^2(v, v) of the metric in the given chart.

    Poincare: 4 v^2 / (1 + kappa y^2)^2
    Beltrami: ((1 + kappa z^2) v^2 - kappa (z . v)^2) / (1 + kappa z^2)^2
    """
    _check_chart(chart)
    pos = _as_vector(pos, "pos")
    vel = _as_vector(vel, "vel")
    if pos.shape != vel.shape:
        raise DimensionMismatch("pos and vel must have equal length")
    c2 = float(pos @ pos)
    denom = 1.0 + kappa * c2
    if chart == POINCARE:
        if abs(denom) < 1e-14:
            raise ChartBoundary("1 + kappa y^2 = 0: metric degenerates")
        return 4.0 * float(vel @ vel) / denom ** 2
    if denom <= 0.0:
        raise ChartBoundary("1 + kappa z^2 <= 0: outside the central chart")
    zv = float(pos @ vel)
    return (denom * float(vel @ vel) - kappa * zv * zv) / denom ** 2


def free_lagrangian(chart: str, kappa: float, mass: float, pos, vel) -> float:
    """Free Lagrangian of the chart phase space.

    Poincare: m v^2 / (2 (1 + kappa y^2)^2)  (the stereographic convention
    absorbs the factor 4 of the metric into the coordinates)
    Beltrami: (m/2) * ds^2(v, v).
    """
    _check_chart(chart)
    if chart == BELTRAMI:
        return 0.5 * mass * metric_form(chart, kappa, pos, vel)
    return 0.125 * mass * metric_form(chart, kappa, pos, vel)


def conjugate_momenta(chart: str, kappa: float, mass: float, pos, vel) -> np.ndarray:
    """Momenta conjugate to the chart coordinates for the free Lagrangian.

    Poincare: p_y = m v / (1 + kappa y^2)^2
    Beltrami: p_z = m ((1 + kappa z^2) v - kappa (z . v) z) / (1 + kappa z^2)^2
    """
    _check_chart(chart)
    pos = _as_vector(pos, "pos")
    vel = _as_vector(vel, "vel")
    if pos.shape != vel.shape:
        raise DimensionMismatch("pos and vel must have equal length")
    c2 = float(pos @ pos)
    denom = 1.0 + kappa * c2
    if chart == POINCARE:
        if abs(denom) < 1e-14:
            raise ChartBoundary("1 + kappa y^2 = 0: metric degenerates")
        return mass * vel / denom ** 2
    if denom <= 0.0:
        raise ChartBoundary("1 + kappa z^2 <= 0: outside the central chart")
    return mass * (denom * vel - kappa * float(pos @ vel) * pos) / denom ** 2


def centrifugal_ambient(b_tilde, a: AmbientPoint, chart: str) -> float:
    """Curved centrifugal potential sum in ambient coordinates.

    Poincare chart form  sum bt_i (1 + kappa y^2)^2 / (2 y_i^2)
    equals 2 sum bt_i / x_i^2; the Beltrami form
    sum bt_i (1 + kappa z^2) / (2 z_i^2) equals sum bt_i / (2 x_i^2).
    """
    _check_chart(chart)
    bt = _as_vector(b_tilde, "b_tilde")
    if bt.size != a.n:
        raise DimensionMismatch("b_tilde must match the ambient dimension")
    active = bt != 0.0
    if not np.any(active):
        return 0.0
    xa = a.x[active]
    if np.any(np.abs(xa) < 1e-12):
        raise DomainError("ambient coordinate x_i = 0 with bt_i != 0")
    s = float(np.sum(bt[active] / xa ** 2))
    return 2.0 * s if chart == POINCARE else 0.5 * s
