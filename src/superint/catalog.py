"""The named Hamiltonian families and the registry that builds them.

Every family is a smooth function of the generators (J-, J+, J3) over a
realization with centrifugal coefficients b_i = m * bt_i, evaluated on one
of three spaces: Euclidean canonical coordinates, or Poincare / Beltrami
chart coordinates on the constant-curvature space of curvature kappa.

Central potentials are given as radial profiles F of the squared
tangent-distance, which is J- itself in the flat and Beltrami cases and
4 J- / (1 - kappa J-)^2 in the Poincare chart.  Each `h` also takes stacked
generators, real or complex, its domain checks reducing the real part over
the stack; `h_partials` takes one point and keeps its scalar checks.

`FAMILIES` holds one `Family` record per family: its parameter defaults,
profiles, spaces, builder and, where it has them, extra integrals.  `build`
and `extra_integral` are lookups in it; each `make_*` constructor makes one
descriptor and calls its family's builder with the caller's profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import integrals
from .core import ConservedQuantity, Guard, HamiltonianSpec, SL2Realization, _as_vector
from .errors import ConfigError, DimensionMismatch, DomainError
from .geometry import BELTRAMI, EUCLIDEAN, POINCARE, SPACES, check_space, squared_chart_radius

Profile = Callable[[float], float]


@dataclass(frozen=True)
class SystemDescriptor:
    """What a catalog system is: family, space, parameters, barriers.

    Construction validates it against FAMILIES: a known family on one of
    its spaces, no parameter the family lacks (kappa aside), kappa = 0 on
    flat space, finite parameters and profile coefficients, and a positive
    mass where the family has one.  Parameters left out take the family
    default (kappa 0.0); all are stored as floats.
    """

    family: str
    space: str
    params: Mapping[str, float]
    b_tilde: np.ndarray
    profiles: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "b_tilde", _as_vector(self.b_tilde, "b_tilde"))
        info = FAMILIES.get(self.family)
        if info is None:
            raise ConfigError(f"unknown family {self.family!r}; known: {sorted(FAMILIES)}")
        defaults = {**info.params, "kappa": 0.0}
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ConfigError(f"family {self.family!r} has no parameters {unknown}; "
                              f"known: {sorted(defaults)}")
        params = {}
        for key, default in defaults.items():
            value = self.params.get(key, default)
            try:
                params[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a number, got {value!r}") from None
            if not math.isfinite(params[key]):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        object.__setattr__(self, "params", params)
        for key, coeffs in self.profiles.items():
            if not all(map(math.isfinite, coeffs)):
                raise ConfigError(f"{key} must be finite, got {coeffs!r}")
        check_space(self.space, self.kappa)
        if self.space not in info.spaces:
            raise ConfigError(f"family {self.family!r} is not defined on space {self.space!r}")
        if params.get("mass", 1.0) <= 0.0:
            raise ConfigError(f"mass must be positive, got {params['mass']}")

    @property
    def n(self) -> int:
        return self.b_tilde.size

    @property
    def kappa(self) -> float:
        return self.params["kappa"]

    @property
    def ms_axes(self) -> tuple[int, ...]:
        """The axes that carry an extra integral (none outside sw and kepler_coulomb)."""
        rule = FAMILIES[self.family].extra_axes
        return () if rule is None else tuple(int(i) for i in rule(self.b_tilde))


def _realization(desc: SystemDescriptor) -> SL2Realization:
    """The realization b = m * bt of a family with a constant mass."""
    if desc.n < 1:
        raise DimensionMismatch("b_tilde must have at least one entry")
    return SL2Realization(desc.params["mass"] * desc.b_tilde)


def _kinetic(space: str, kappa: float, mass: float):
    """Kinetic part and its (xi-, xi+, xi3) partials for the given space."""
    inv2m = 1.0 / (2.0 * mass)
    if space == EUCLIDEAN:
        return (lambda jm, jp, j3: jp * inv2m), (lambda jm, jp, j3: (0.0, inv2m, 0.0))
    if space == POINCARE:

        def t_val(jm, jp, j3):
            return (1.0 + kappa * jm) * (1.0 + kappa * jm) * jp * inv2m

        def t_par(jm, jp, j3):
            one = 1.0 + kappa * jm
            return (kappa / mass) * one * jp, one ** 2 * inv2m, 0.0

        return t_val, t_par

    def t_val(jm, jp, j3):
        return (1.0 + kappa * jm) * (jp + kappa * (j3 * j3)) * inv2m

    def t_par(jm, jp, j3):
        one = 1.0 + kappa * jm
        return (
            kappa * (jp + kappa * j3 ** 2) * inv2m,
            one * inv2m,
            kappa * j3 * one / mass,
        )

    return t_val, t_par


def _radial_argument(space: str, kappa: float):
    """Map J- to the squared tangent-distance argument s of radial profiles:
    s_val(J-) and, at one point, s_par(J-) = (s, ds/dJ-)."""
    if space != POINCARE:
        return (lambda jm: jm), (lambda jm: (jm, 1.0))
    equator = "kappa q^2 = 1: stereographic equator image"

    def s_val(jm):
        denom = 1.0 - kappa * jm
        if np.minimum.reduce(np.abs(denom), axis=None) < 1e-12:
            raise DomainError(equator)
        return 4.0 * jm / (denom * denom)

    def s_par(jm):
        denom = 1.0 - kappa * jm
        if abs(denom) < 1e-12:
            raise DomainError(equator)
        return 4.0 * jm / denom ** 2, 4.0 * (1.0 + kappa * jm) / denom ** 3

    return s_val, s_par


def _guards(space: str, kappa: float, *, origin: bool = False) -> tuple[Guard, ...]:
    guards = []
    if origin:
        guards.append(Guard("origin", lambda q: float(np.sqrt(q @ q))))
    if squared_chart_radius(space, kappa) is not None:
        guards.append(Guard("chart_boundary", lambda q: 1.0 - abs(kappa) * float(q @ q)))
    elif space == BELTRAMI and kappa > 0.0:
        # the equator sits at |z| -> inf; clearance is the ambient height x0^2
        guards.append(Guard("chart_boundary", lambda q: 1.0 / (1.0 + kappa * float(q @ q))))
    return tuple(guards)


# ---------------------------------------------------------------------------
# Family builders: each takes the validated descriptor and, where the
# family's profiles are functions, those functions
# ---------------------------------------------------------------------------

def _radial_spec(desc: SystemDescriptor, profile: Profile, profile_deriv: Profile, *,
                 origin_guard: bool = False) -> HamiltonianSpec:
    """Kinetic term plus a radial profile of the tangent-distance squared
    (the evans builder, and the common form of the other radial families)."""
    space, kappa = desc.space, desc.kappa
    t_val, t_par = _kinetic(space, kappa, desc.params["mass"])
    s_val, s_par = _radial_argument(space, kappa)

    def h(jm, jp, j3):
        return t_val(jm, jp, j3) + profile(s_val(jm))

    def h_partials(jm, jp, j3):
        tm, tp, t3 = t_par(jm, jp, j3)
        s, ds = s_par(jm)
        return tm + profile_deriv(s) * ds, tp, t3

    return HamiltonianSpec(f"{desc.family}.{space}", _realization(desc), h, h_partials,
                           desc, _guards(space, kappa, origin=origin_guard))


def _oscillator(desc: SystemDescriptor) -> HamiltonianSpec:
    """w^2 s + sum_k delta_k s^(k+1); with no deltas (sw) exactly w^2 s."""
    w2 = desc.params["omega"] ** 2
    ds = desc.profiles.get("deltas", ())

    def f(s):
        val = w2 * s
        sk = s
        for d in ds:
            sk = sk * s  # not *=: s may be an array
            val += d * sk
        return val

    def fp(s):
        val = w2
        sk = 1.0
        for j, d in enumerate(ds, start=1):
            sk *= s
            val += (j + 1) * d * sk
        return val

    return _radial_spec(desc, f, fp)


def _garnier(desc: SystemDescriptor) -> HamiltonianSpec:
    w2, d = desc.params["omega"] ** 2, desc.params["delta"]
    return _radial_spec(desc, lambda s: w2 * s + d * s * s, lambda s: w2 + 2.0 * d * s)


def _kepler_coulomb(desc: SystemDescriptor) -> HamiltonianSpec:
    kc = desc.params["k"]

    def f(s):
        if np.minimum.reduce(s.real, axis=None) <= 0.0:
            raise DomainError("attractive center reached (q^2 = 0)")
        return -kc / np.sqrt(s)

    def fp(s):
        if s <= 0.0:
            raise DomainError("attractive center reached (q^2 = 0)")
        return 0.5 * kc * s ** -1.5

    return _radial_spec(desc, f, fp, origin_guard=True)


def _electromagnetic(desc: SystemDescriptor, f: Profile, fp: Profile,
                     g: Profile, gp: Profile) -> HamiltonianSpec:
    mass, e = desc.params["mass"], desc.params["charge"]
    inv2m = 1.0 / (2.0 * mass)

    def h(jm, jp, j3):
        return jp * inv2m - (e / mass) * j3 * g(jm) + e * f(jm)

    def h_partials(jm, jp, j3):
        return -(e / mass) * j3 * gp(jm) + e * fp(jm), inv2m, -(e / mass) * g(jm)

    return HamiltonianSpec("electromagnetic.euclidean", _realization(desc), h, h_partials, desc)


def _variable_mass(desc: SystemDescriptor, mpro: Profile, mder: Profile,
                   f: Profile, fp: Profile) -> HamiltonianSpec:
    def mass_at(jm):
        mval = mpro(jm)
        low = np.minimum.reduce(mval.real, axis=None)
        if low <= 0.0:
            raise DomainError(f"mass profile must stay positive, got {low}")
        return mval

    def h(jm, jp, j3):
        return jp / (2.0 * mass_at(jm)) + f(jm)

    def h_partials(jm, jp, j3):
        mval = mass_at(jm)
        return -jp * mder(jm) / (2.0 * mval ** 2) + fp(jm), 1.0 / (2.0 * mval), 0.0

    return HamiltonianSpec("variable_mass.euclidean", SL2Realization(desc.b_tilde),
                           h, h_partials, desc)


# ---------------------------------------------------------------------------
# Keyword constructors
# ---------------------------------------------------------------------------

def make_evans(space: str, profile: Profile, profile_deriv: Profile, *,
               mass: float = 1.0, b_tilde, kappa: float = 0.0) -> HamiltonianSpec:
    """Central potential F(r_t^2) plus N centrifugal barriers.

    The caller supplies the radial profile and its derivative; the argument
    is the squared tangent-distance (plain q^2 in the flat case).
    """
    desc = SystemDescriptor("evans", space, {"mass": mass, "kappa": kappa}, b_tilde)
    return _radial_spec(desc, profile, profile_deriv)


def make_sw(space: str = EUCLIDEAN, *, mass: float = 1.0, omega: float = 1.0,
            b_tilde, kappa: float = 0.0) -> HamiltonianSpec:
    """Isotropic oscillator (Higgs oscillator when curved) with barriers.

    Maximally superintegrable: every axis carries an extra integral I_i.
    """
    params = {"mass": mass, "omega": omega, "kappa": kappa}
    return _oscillator(SystemDescriptor("sw", space, params, b_tilde))


def make_garnier(space: str = EUCLIDEAN, *, mass: float = 1.0, omega: float = 1.0,
                 delta: float = 0.0, b_tilde, kappa: float = 0.0) -> HamiltonianSpec:
    """Quartic oscillator w^2 r_t^2 + delta r_t^4 with barriers (QMS)."""
    params = {"mass": mass, "omega": omega, "delta": delta, "kappa": kappa}
    return _garnier(SystemDescriptor("garnier", space, params, b_tilde))


def make_nonlinear_oscillator(space: str = EUCLIDEAN, *, mass: float = 1.0,
                              omega: float = 1.0, deltas=(), b_tilde,
                              kappa: float = 0.0) -> HamiltonianSpec:
    """Even-order oscillator w^2 r_t^2 + sum_k delta_k r_t^(2(k+1)) (QMS).

    `deltas` lists delta_1..delta_K; any finite truncation is admissible.
    """
    params = {"mass": mass, "omega": omega, "kappa": kappa}
    profiles = {"deltas": tuple(float(d) for d in deltas)}
    return _oscillator(SystemDescriptor("oscillator", space, params, b_tilde, profiles))


def make_kepler_coulomb(space: str = EUCLIDEAN, *, mass: float = 1.0, k: float = 1.0,
                        b_tilde, kappa: float = 0.0) -> HamiltonianSpec:
    """Attractive -k / r_t potential with barriers.

    Maximally superintegrable when at least one bt_i = 0; each such axis
    carries a Laplace-Runge-Lenz component L_i.
    """
    params = {"mass": mass, "k": k, "kappa": kappa}
    return _kepler_coulomb(SystemDescriptor("kepler_coulomb", space, params, b_tilde))


def make_electromagnetic(*, mass: float = 1.0, charge: float = 1.0,
                         scalar_profile: Profile, scalar_profile_deriv: Profile,
                         vector_profile: Profile, vector_profile_deriv: Profile,
                         b_tilde) -> HamiltonianSpec:
    """Flat momenta-dependent family J+/2m - (e/m) J3 G(J-) + e F(J-)."""
    desc = SystemDescriptor("electromagnetic", EUCLIDEAN,
                            {"mass": mass, "charge": charge}, b_tilde)
    return _electromagnetic(desc, scalar_profile, scalar_profile_deriv,
                            vector_profile, vector_profile_deriv)


def make_variable_mass(*, mass_profile: Profile, mass_profile_deriv: Profile,
                       potential: Profile, potential_deriv: Profile, b) -> HamiltonianSpec:
    """Coordinate-dependent mass family J+ / (2 M(J-)) + F(J-).

    `b` is given directly (not bt = b/m) since there is no constant mass.
    The chart kinetic energies are the special cases M = m/(1 + kappa s)^2
    (Poincare) of this form.
    """
    desc = SystemDescriptor("variable_mass", EUCLIDEAN, {}, _as_vector(b, "b"))
    return _variable_mass(desc, mass_profile, mass_profile_deriv, potential, potential_deriv)


# ---------------------------------------------------------------------------
# Electromagnetic field data (N = 3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EMFields:
    E: np.ndarray
    H: np.ndarray
    psi: float
    A: np.ndarray


def em_fields(q, *, mass: float = 1.0, charge: float = 1.0,
              scalar_profile: Profile, scalar_profile_deriv: Profile,
              vector_profile: Profile, vector_profile_deriv: Profile,
              b_tilde) -> EMFields:
    """Static fields of the electromagnetic family at a position in R^3.

    psi = F(q^2) - (e/2m) q^2 G(q^2)^2 + sum bt_i / (2 e q_i^2),
    A = q G(q^2); the magnetic field of this radial A vanishes identically
    and E = -grad psi in closed form.
    """
    q = _as_vector(q, "q")
    desc = SystemDescriptor("electromagnetic", EUCLIDEAN,
                            {"mass": mass, "charge": charge}, b_tilde)
    bt, m, e = desc.b_tilde, desc.params["mass"], desc.params["charge"]
    if q.size != 3 or bt.size != 3:
        raise DimensionMismatch("the electromagnetic reading needs N = 3")
    if e == 0.0:
        raise ConfigError("charge must be nonzero to form the potentials")
    q2 = float(q @ q)
    g = vector_profile(q2)
    gp = vector_profile_deriv(q2)
    fp = scalar_profile_deriv(q2)
    psi = scalar_profile(q2) - (e / (2.0 * m)) * q2 * g * g
    barrier = np.zeros(3)
    active = bt != 0.0
    if np.any(active):
        if np.any(np.abs(q[active]) < 1e-12):
            raise DomainError("q_i = 0 on an axis with bt_i != 0")
        psi += float(np.sum(bt[active] / (2.0 * e * q[active] ** 2)))
        barrier[active] = bt[active] / q[active] ** 3
    efield = ((e / m) * g * g + (2.0 * e / m) * q2 * g * gp - 2.0 * fp) * q
    efield = efield + barrier / e
    return EMFields(E=efield, H=np.zeros(3), psi=float(psi), A=q * g)


# ---------------------------------------------------------------------------
# The family registry
# ---------------------------------------------------------------------------

def poly_profile(coeffs) -> tuple[Profile, Profile]:
    """Polynomial profile (value, derivative) from ascending coefficients."""
    poly = np.polynomial.Polynomial(list(coeffs))
    der = poly.deriv()
    return poly, der


def _poly(descriptor: SystemDescriptor, *keys: str) -> tuple[Profile, ...]:
    """(value, derivative) of each named polynomial profile, in order."""
    out: list[Profile] = []
    for key in keys:
        coeffs = descriptor.profiles.get(key)
        if not coeffs:
            raise ConfigError(f"family {descriptor.family!r} needs profile {key!r}")
        out.extend(poly_profile(coeffs))
    return tuple(out)


@dataclass(frozen=True)
class Family:
    """What a family is and how to build it.

    `params` maps each parameter to its default; `profiles` names the
    polynomial profiles a config gives; `ms` says what the family is known
    to be.  `spec` builds a descriptor's HamiltonianSpec; the maximally
    superintegrable families also give `extra`, the extra integral on one
    axis, and `extra_axes`, the axes that carry one given b_tilde.
    """

    params: Mapping[str, float]
    profiles: tuple[str, ...]
    spaces: tuple[str, ...]
    ms: str
    spec: Callable[[SystemDescriptor], HamiltonianSpec]
    extra: Optional[Callable[[SystemDescriptor, int], ConservedQuantity]] = None
    extra_axes: Optional[Callable[[np.ndarray], Iterable[int]]] = None


# The extras name integrals.sw_extra_integral / kc_extra_integral at call
# time, so a replacement installed on that module is the one called.
FAMILIES: dict[str, Family] = {
    "evans": Family(
        {"mass": 1.0}, ("potential",), SPACES,
        "generic radial profile: quasi-maximally superintegrable only",
        spec=lambda d: _radial_spec(d, *_poly(d, "potential")),
    ),
    "sw": Family(
        {"mass": 1.0, "omega": 1.0}, (), SPACES,
        "maximally superintegrable; N extra integrals I_1..I_N, one per axis",
        spec=_oscillator,
        extra=lambda d, axis: integrals.sw_extra_integral(
            axis, mass=d.params["mass"], omega=d.params["omega"], b_tilde=d.b_tilde,
            kappa=d.kappa, space=d.space),
        extra_axes=lambda bt: range(bt.size),
    ),
    "garnier": Family(
        {"mass": 1.0, "omega": 1.0, "delta": 0.0}, (), SPACES,
        "quasi-maximally superintegrable for any delta",
        spec=_garnier,
    ),
    "oscillator": Family(
        {"mass": 1.0, "omega": 1.0}, ("deltas",), SPACES,
        "quasi-maximally superintegrable for any delta_k truncation",
        spec=_oscillator,
    ),
    "kepler_coulomb": Family(
        {"mass": 1.0, "k": 1.0}, (), SPACES,
        "maximally superintegrable when at least one bt_i = 0; "
        "extra integral L_i for every axis with bt_i = 0",
        spec=_kepler_coulomb,
        extra=lambda d, axis: integrals.kc_extra_integral(
            axis, mass=d.params["mass"], k=d.params["k"], b_tilde=d.b_tilde,
            kappa=d.kappa, space=d.space),
        extra_axes=lambda bt: np.flatnonzero(bt == 0.0),
    ),
    "electromagnetic": Family(
        {"mass": 1.0, "charge": 1.0}, ("potential", "vector"), (EUCLIDEAN,),
        "quasi-maximally superintegrable (momenta-dependent potential)",
        spec=lambda d: _electromagnetic(d, *_poly(d, "potential", "vector")),
    ),
    "variable_mass": Family(
        {}, ("mass_profile", "potential"), (EUCLIDEAN,),
        "quasi-maximally superintegrable; chart kinetic energies are "
        "special cases of the mass profile",
        spec=lambda d: _variable_mass(d, *_poly(d, "mass_profile", "potential")),
    ),
}


def build(descriptor: SystemDescriptor) -> HamiltonianSpec:
    """Construct the HamiltonianSpec a descriptor names.

    Profile-bearing families read ascending polynomial coefficients from
    `descriptor.profiles`.
    """
    return FAMILIES[descriptor.family].spec(descriptor)


def extra_integral(descriptor: SystemDescriptor, axis: int) -> ConservedQuantity:
    """The extra ("lost") integral of an MS family on one axis.

    Raises ConfigError for families without extras or when the axis fails
    the validity condition.
    """
    extra = FAMILIES[descriptor.family].extra
    if extra is None:
        raise ConfigError(f"family {descriptor.family!r} has no extra integrals")
    return extra(descriptor, axis)
