"""Constant-curvature geometry.

The sphere (kappa > 0) and the hyperbolic space (kappa < 0) of dimension N
are carried on the ambient quadric x0^2 + kappa * x^2 = 1 in R^(N+1); the
Euclidean case is the kappa = 0 limit.  Two charts are used throughout:

  * Poincare coordinates y, from the stereographic projection with pole
    (-1, 0):   x0 = (1 - kappa y^2)/(1 + kappa y^2),  x = 2y/(1 + kappa y^2)
  * Beltrami coordinates z, from the central projection with pole (0, 0):
    x0 = mu,  x = mu z,  mu = 1/sqrt(1 + kappa z^2)

Points are plain arrays: chart coordinates are one (N,) array, an ambient
point is the float x0 and the (N,) array x.  For kappa > 0 the library works
on the x0 > 0 hemisphere, which both charts cover injectively, and for
kappa < 0 on the x0 > 0 sheet.  The radial geodesic distance r from the
origin satisfies tan^2(sqrt(kappa) r)/kappa = x^2/x0^2 = 4y^2/(1 - kappa y^2)^2
= z^2, with the tanh continuation for kappa < 0.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _as_vector
from .errors import ChartBoundary, ConfigError, DimensionMismatch, DomainError

EUCLIDEAN = "euclidean"
POINCARE = "poincare"
BELTRAMI = "beltrami"
CHARTS = (POINCARE, BELTRAMI)
SPACES = (EUCLIDEAN, *CHARTS)

AMBIENT_CONSTRAINT_TOL = 1e-12


def check_space(space: str, kappa: float) -> None:
    """Raise ConfigError unless `space` is one of SPACES, with kappa = 0 when flat."""
    if space not in SPACES:
        raise ConfigError(f"space must be one of {SPACES}, got {space!r}")
    if space == EUCLIDEAN and kappa != 0.0:
        raise ConfigError("euclidean space has kappa = 0")


def squared_chart_radius(space: str, kappa: float) -> float | None:
    """1/|kappa|, the squared radius of the ball the chart coordinates fill,
    for Poincare with kappa > 0 and either chart with kappa < 0; None where
    they are unbounded (flat space, Beltrami with kappa > 0)."""
    if (space == POINCARE and kappa > 0.0) or (space in CHARTS and kappa < 0.0):
        return 1.0 / abs(kappa)
    return None


def _conformal(chart: str, kappa: float, pos: np.ndarray) -> float:
    """1 + kappa pos^2 at the chart coordinates pos, which must be positive:
    it vanishes on the chart's boundary (the image of the ideal boundary when
    kappa < 0) and is negative only past it."""
    if chart not in CHARTS:
        raise ConfigError(f"chart must be one of {CHARTS}, got {chart!r}")
    one = 1.0 + kappa * float(pos @ pos)
    if not one > 0.0:
        raise ChartBoundary(f"1 + kappa pos^2 = {one!r} <= 0: outside the {chart} chart")
    return one


def chart_to_ambient(chart: str, kappa: float, coords) -> tuple[float, np.ndarray]:
    """The ambient point (x0, x) of Poincare or Beltrami coordinates."""
    coords = _as_vector(coords, "coords")
    one = _conformal(chart, kappa, coords)
    if chart == POINCARE:
        lam = 2.0 / one
        return lam - 1.0, lam * coords
    mu = 1.0 / math.sqrt(one)
    return mu, mu * coords


def ambient_to_chart(chart: str, kappa: float, x0: float, x) -> np.ndarray:
    """Poincare y = x/(1 + x0) or Beltrami z = x/x0 of the ambient point
    (x0, x), which must lie on the quadric (to AMBIENT_CONSTRAINT_TOL) and,
    for kappa < 0, on the x0 > 0 sheet.  The Beltrami chart takes only
    x0 > 0: the far hemisphere would map onto the near one."""
    x0, x = float(x0), _as_vector(x, "x")
    resid = abs(x0 ** 2 + kappa * float(x @ x) - 1.0)
    if resid > AMBIENT_CONSTRAINT_TOL:
        raise DomainError(f"ambient constraint violated by {resid:.3e}")
    if kappa < 0.0 and x0 <= 0.0:
        raise DomainError("hyperbolic ambient points use the x0 > 0 sheet")
    if chart == POINCARE:
        if x0 <= -1.0 + 1e-14:
            raise DomainError("stereographic pole (x0 = -1) has no chart image")
        return x / (1.0 + x0)
    if chart == BELTRAMI:
        if x0 <= 0.0:
            raise DomainError(f"x0 = {x0!r} <= 0 (equator or far hemisphere) "
                              "has no central-chart image")
        return x / x0
    raise ConfigError(f"chart must be one of {CHARTS}, got {chart!r}")


def poincare_to_beltrami(y, kappa: float) -> np.ndarray:
    """Direct chart transition z = 2y / (1 - kappa y^2), for kappa y^2 < 1:
    the equator and the far hemisphere have no Beltrami image."""
    y = _as_vector(y, "y")
    denom = 1.0 - kappa * float(y @ y)
    if not denom > 0.0:
        raise ChartBoundary("kappa y^2 >= 1: equator or far hemisphere in the stereographic chart")
    return 2.0 * y / denom


def geodesic_distance(z, kappa: float) -> float:
    """Radial geodesic distance from the origin of the point with Beltrami
    coordinates z, where tan^2(sqrt(kappa) r)/kappa = z^2.

    Ambient and Poincare points reach it through ambient_to_chart(BELTRAMI,
    ...) and poincare_to_beltrami.  For kappa > 0 the result lies in
    [0, pi/(2 sqrt(kappa))) on the x0 > 0 hemisphere.
    """
    z = _as_vector(z, "z")
    rho = math.sqrt(float(z @ z))
    if kappa == 0.0:
        return rho
    s = math.sqrt(abs(kappa))
    if kappa > 0.0:
        return math.atan(s * rho) / s
    if s * rho >= 1.0:
        raise DomainError("point at or beyond the ideal boundary")
    return math.atanh(s * rho) / s


def _tangent(pos, vel) -> tuple[np.ndarray, np.ndarray]:
    pos, vel = _as_vector(pos, "pos"), _as_vector(vel, "vel")
    if pos.shape != vel.shape:
        raise DimensionMismatch("pos and vel must have equal length")
    return pos, vel


def metric_form(chart: str, kappa: float, pos, vel) -> float:
    """Quadratic form ds^2(v, v) of the metric in the given chart.

    Poincare: 4 v^2 / (1 + kappa y^2)^2
    Beltrami: ((1 + kappa z^2) v^2 - kappa (z . v)^2) / (1 + kappa z^2)^2
    """
    pos, vel = _tangent(pos, vel)
    one = _conformal(chart, kappa, pos)
    if chart == POINCARE:
        return 4.0 * float(vel @ vel) / one ** 2
    zv = float(pos @ vel)
    return (one * float(vel @ vel) - kappa * zv * zv) / one ** 2


def free_lagrangian(chart: str, kappa: float, mass: float, pos, vel) -> float:
    """Free Lagrangian of the chart phase space.

    Poincare: m v^2 / (2 (1 + kappa y^2)^2)  (the stereographic convention
    absorbs the factor 4 of the metric into the coordinates)
    Beltrami: (m/2) * ds^2(v, v).
    """
    scale = 0.125 if chart == POINCARE else 0.5
    return scale * mass * metric_form(chart, kappa, pos, vel)


def conjugate_momenta(chart: str, kappa: float, mass: float, pos, vel) -> np.ndarray:
    """Momenta conjugate to the chart coordinates for the free Lagrangian.

    Poincare: p_y = m v / (1 + kappa y^2)^2
    Beltrami: p_z = m ((1 + kappa z^2) v - kappa (z . v) z) / (1 + kappa z^2)^2
    """
    pos, vel = _tangent(pos, vel)
    one = _conformal(chart, kappa, pos)
    if chart == POINCARE:
        return mass * vel / one ** 2
    return mass * (one * vel - kappa * float(pos @ vel) * pos) / one ** 2


def centrifugal_ambient(b_tilde, x, chart: str) -> float:
    """Curved centrifugal potential sum at the ambient point (x0, x).

    Poincare chart form  sum bt_i (1 + kappa y^2)^2 / (2 y_i^2)
    equals 2 sum bt_i / x_i^2; the Beltrami form
    sum bt_i (1 + kappa z^2) / (2 z_i^2) equals sum bt_i / (2 x_i^2).
    """
    if chart not in CHARTS:
        raise ConfigError(f"chart must be one of {CHARTS}, got {chart!r}")
    bt, x = _as_vector(b_tilde, "b_tilde"), _as_vector(x, "x")
    if bt.size != x.size:
        raise DimensionMismatch("b_tilde must match the ambient dimension")
    active = bt != 0.0
    if not np.any(active):
        return 0.0
    xa = x[active]
    if np.any(np.abs(xa) < 1e-12):
        raise DomainError("ambient coordinate x_i = 0 with bt_i != 0")
    s = float(np.sum(bt[active] / xa ** 2))
    return 2.0 * s if chart == POINCARE else 0.5 * s
