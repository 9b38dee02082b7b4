"""The named Hamiltonian families and the registry that builds them.

Every family is a smooth function of the generators (J-, J+, J3) over a
realization with centrifugal coefficients b_i = m * bt_i, evaluated on one
of three spaces: Euclidean canonical coordinates, or Poincare / Beltrami
chart coordinates on the constant-curvature space of curvature kappa.

Central potentials are given as radial profiles F of the squared
tangent-distance, which is J- itself in the flat and Beltrami cases and
4 J- / (1 - kappa J-)^2 in the Poincare chart.  Each `h` is one formula,
pure arithmetic in the generators: it takes stacked generators, real or
complex, and H's partials are derived from it (`tape`), so no family writes
a partial by hand.  Its domain conditions (the stereographic equator, the
attractive center, a positive mass profile) are `Domain`s that h passes its
quantities through: each is one test, checked over a whole stack by the
real part, and recorded once for the partials, which raise the same error.
Profiles are plain functions of one argument under the same rule; a config
gives them as polynomial coefficients (`poly_profile`).

`FAMILIES` holds one `Family` record per family: its parameter defaults,
profiles, spaces, builder and, where it has them, extra integrals.  `build`
and `extra_integral` are lookups in it; each `make_*` constructor makes one
descriptor and calls its family's builder with the caller's profiles.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import integrals
from .core import (COMPLEX_STEP, ConservedQuantity, Guard, HamiltonianSpec, SL2Realization,
                   _as_vector)
from .errors import ConfigError, DimensionMismatch, DomainError
from .geometry import BELTRAMI, EUCLIDEAN, POINCARE, SPACES, check_space, squared_chart_radius
from .records import Record, setfield
from .tape import Domain

Profile = Callable[[float], float]


class SystemDescriptor(Record):
    """What a catalog system is: family, space, parameters, barriers.

    Construction validates it against FAMILIES: a known family on one of
    its spaces, no parameter the family lacks (kappa aside), kappa = 0 on
    flat space, finite parameters and profile coefficients, and a positive
    mass where the family has one.  Parameters left out take the family
    default (kappa 0.0); all are stored as floats.  With no `profiles`
    given, each descriptor gets its own empty dict.
    """

    __slots__ = ("family", "space", "params", "b_tilde", "profiles")

    def __init__(self, family: str, space: str, params: Mapping[str, float],
                 b_tilde: np.ndarray, profiles: Optional[Mapping[str, tuple[float, ...]]] = None):
        b_tilde = _as_vector(b_tilde, "b_tilde")
        profiles = {} if profiles is None else profiles
        info = FAMILIES.get(family)
        if info is None:
            raise ConfigError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
        defaults = {**info.params, "kappa": 0.0}
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise ConfigError(f"family {family!r} has no parameters {unknown}; "
                              f"known: {sorted(defaults)}")
        values = {}
        for key, default in defaults.items():
            value = params.get(key, default)
            try:
                values[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a number, got {value!r}") from None
            if not math.isfinite(values[key]):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        try:  # the oscillators and their extras are built on omega ** 2
            values.get("omega", 0.0) ** 2
        except OverflowError:
            raise ConfigError(f"omega ** 2 overflows, got omega = {values['omega']!r}") from None
        for key, coeffs in profiles.items():
            if not all(map(math.isfinite, coeffs)):
                raise ConfigError(f"{key} must be finite, got {coeffs!r}")
        check_space(space, values["kappa"])
        if space not in info.spaces:
            raise ConfigError(f"family {family!r} is not defined on space {space!r}")
        if values.get("mass", 1.0) <= 0.0:
            raise ConfigError(f"mass must be positive, got {values['mass']}")
        setfield(self, "family", family)
        setfield(self, "space", space)
        setfield(self, "params", values)
        setfield(self, "b_tilde", b_tilde)
        setfield(self, "profiles", profiles)

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
    """Kinetic part T(J-, J+, J3) for the given space."""
    inv2m = 1.0 / (2.0 * mass)
    if space == EUCLIDEAN:
        return lambda jm, jp, j3: jp * inv2m
    if space == POINCARE:

        def kinetic(jm, jp, j3):
            one = 1.0 + kappa * jm
            return one * one * jp * inv2m

        return kinetic
    return lambda jm, jp, j3: (1.0 + kappa * jm) * (jp + kappa * (j3 * j3)) * inv2m


# The domain conditions of the families, shared by h's value and its partials.
EQUATOR = Domain("kappa q^2 = 1: stereographic equator image", 1e-12, absolute=True)
CENTER = Domain("attractive center reached (q^2 = 0)")
POSITIVE_MASS = Domain("mass profile must stay positive, got {low}")


def _radial_argument(space: str, kappa: float):
    """Map J- to the squared tangent-distance argument s of radial profiles."""
    if space != POINCARE:
        return lambda jm: jm

    def radial(jm):
        denom = EQUATOR(1.0 - kappa * jm)
        return 4.0 * jm / (denom * denom)

    return radial


def _guards(space: str, kappa: float, *, origin: bool = False) -> tuple[Guard, ...]:
    """The guards of a system, as functions of J-."""
    guards = []
    if origin:
        guards.append(Guard("origin", math.sqrt))
    if squared_chart_radius(space, kappa) is not None:
        guards.append(Guard("chart_boundary", lambda jm: 1.0 - abs(kappa) * jm))
    elif space == BELTRAMI and kappa > 0.0:
        # the equator sits at |z| -> inf; clearance is the ambient height x0^2
        guards.append(Guard("chart_boundary", lambda jm: 1.0 / (1.0 + kappa * jm)))
    return tuple(guards)


# ---------------------------------------------------------------------------
# Family builders: each takes the validated descriptor and, where the
# family's profiles are functions, those functions
# ---------------------------------------------------------------------------

def _radial_spec(desc: SystemDescriptor, profile: Profile, *,
                 origin_guard: bool = False) -> HamiltonianSpec:
    """Kinetic term plus a radial profile of the tangent-distance squared
    (the evans builder, and the common form of the other radial families)."""
    space, kappa = desc.space, desc.kappa
    kinetic = _kinetic(space, kappa, desc.params["mass"])
    radial = _radial_argument(space, kappa)

    def h(jm, jp, j3):
        return kinetic(jm, jp, j3) + profile(radial(jm))

    return HamiltonianSpec(f"{desc.family}.{space}", _realization(desc), h, desc,
                           _guards(space, kappa, origin=origin_guard))


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

    return _radial_spec(desc, f)


def _garnier(desc: SystemDescriptor) -> HamiltonianSpec:
    w2, d = desc.params["omega"] ** 2, desc.params["delta"]
    return _radial_spec(desc, lambda s: w2 * s + d * s * s)


def _kepler_coulomb(desc: SystemDescriptor) -> HamiltonianSpec:
    kc = desc.params["k"]
    return _radial_spec(desc, lambda s: -kc / CENTER(s) ** 0.5, origin_guard=True)


def _electromagnetic(desc: SystemDescriptor, f: Profile, g: Profile) -> HamiltonianSpec:
    mass, e = desc.params["mass"], desc.params["charge"]
    inv2m = 1.0 / (2.0 * mass)

    def h(jm, jp, j3):
        return jp * inv2m - (e / mass) * j3 * g(jm) + e * f(jm)

    return HamiltonianSpec("electromagnetic.euclidean", _realization(desc), h, desc)


def _variable_mass(desc: SystemDescriptor, mpro: Profile, f: Profile) -> HamiltonianSpec:
    def h(jm, jp, j3):
        return jp / (2.0 * POSITIVE_MASS(mpro(jm))) + f(jm)

    return HamiltonianSpec("variable_mass.euclidean", SL2Realization(desc.b_tilde), h, desc)


# ---------------------------------------------------------------------------
# Keyword constructors
# ---------------------------------------------------------------------------

def make_evans(space: str, profile: Profile, *, mass: float = 1.0, b_tilde,
               kappa: float = 0.0) -> HamiltonianSpec:
    """Central potential F(r_t^2) plus N centrifugal barriers.

    The caller supplies the radial profile, pure arithmetic in its argument
    (its derivative is derived from it); the argument is the squared
    tangent-distance (plain q^2 in the flat case).
    """
    desc = SystemDescriptor("evans", space, {"mass": mass, "kappa": kappa}, b_tilde)
    return _radial_spec(desc, profile)


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
                         scalar_profile: Profile, vector_profile: Profile,
                         b_tilde) -> HamiltonianSpec:
    """Flat momenta-dependent family J+/2m - (e/m) J3 G(J-) + e F(J-).

    The profiles F and G are pure arithmetic in their argument.
    """
    desc = SystemDescriptor("electromagnetic", EUCLIDEAN,
                            {"mass": mass, "charge": charge}, b_tilde)
    return _electromagnetic(desc, scalar_profile, vector_profile)


def make_variable_mass(*, mass_profile: Profile, potential: Profile, b) -> HamiltonianSpec:
    """Coordinate-dependent mass family J+ / (2 M(J-)) + F(J-).

    The profiles M and F are pure arithmetic in their argument; M must stay
    positive.  `b` is given directly (not bt = b/m) since there is no
    constant mass.  The chart kinetic energies are the special cases
    M = m/(1 + kappa s)^2 (Poincare) of this form.
    """
    desc = SystemDescriptor("variable_mass", EUCLIDEAN, {}, _as_vector(b, "b"))
    return _variable_mass(desc, mass_profile, potential)


# ---------------------------------------------------------------------------
# Electromagnetic field data (N = 3)
# ---------------------------------------------------------------------------

class EMFields(Record):
    __slots__ = ("E", "H", "psi", "A")

    def __init__(self, E: np.ndarray, H: np.ndarray, psi: float, A: np.ndarray):
        setfield(self, "E", E)
        setfield(self, "H", H)
        setfield(self, "psi", psi)
        setfield(self, "A", A)


def em_fields(q, *, mass: float = 1.0, charge: float = 1.0,
              scalar_profile: Profile, vector_profile: Profile, b_tilde) -> EMFields:
    """Static fields of the electromagnetic family at a position in R^3.

    psi = F(q^2) - (e/2m) q^2 G(q^2)^2 + sum bt_i / (2 e q_i^2),
    A = q G(q^2); the magnetic field of this radial A vanishes identically
    and E = -grad psi in closed form, the profiles' derivatives taken by
    complex step.
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
    gp, fp = (f(complex(q2, COMPLEX_STEP)).imag / COMPLEX_STEP
              for f in (vector_profile, scalar_profile))
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

def poly_profile(coeffs) -> Profile:
    """Polynomial profile from ascending coefficients c_0, c_1, ..., by
    Horner's rule c_0 + x (c_1 + x (c_2 + ...)), innermost first, as
    numpy's polyval evaluates it."""
    *rest, top = (float(c) for c in coeffs)

    def profile(x):
        value = top
        for c in reversed(rest):
            value = c + value * x
        return value

    return profile


def _poly(descriptor: SystemDescriptor, *keys: str) -> tuple[Profile, ...]:
    """Each named polynomial profile, in order."""
    out: list[Profile] = []
    for key in keys:
        coeffs = descriptor.profiles.get(key)
        if not coeffs:
            raise ConfigError(f"family {descriptor.family!r} needs profile {key!r}")
        out.append(poly_profile(coeffs))
    return tuple(out)


class Family(Record):
    """What a family is and how to build it.

    `params` maps each parameter to its default; `profiles` names the
    polynomial profiles a config gives; `ms` says what the family is known
    to be.  `spec` builds a descriptor's HamiltonianSpec; the maximally
    superintegrable families also give `extra`, the extra integral on one
    axis, and `extra_axes`, the axes that carry one given b_tilde.
    """

    __slots__ = ("params", "profiles", "spaces", "ms", "spec", "extra", "extra_axes")

    def __init__(self, params: Mapping[str, float], profiles: tuple[str, ...],
                 spaces: tuple[str, ...], ms: str,
                 spec: Callable[[SystemDescriptor], HamiltonianSpec],
                 extra: Optional[Callable[[SystemDescriptor, int], ConservedQuantity]] = None,
                 extra_axes: Optional[Callable[[np.ndarray], Iterable[int]]] = None):
        setfield(self, "params", params)
        setfield(self, "profiles", profiles)
        setfield(self, "spaces", spaces)
        setfield(self, "ms", ms)
        setfield(self, "spec", spec)
        setfield(self, "extra", extra)
        setfield(self, "extra_axes", extra_axes)


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
