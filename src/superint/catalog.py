"""Constructors for the named Hamiltonian families.

Every family is a smooth function of the generators (J-, J+, J3) over a
realization with centrifugal coefficients b_i = m * bt_i, evaluated on one
of three spaces: Euclidean canonical coordinates, or Poincare / Beltrami
chart coordinates on the constant-curvature space of curvature kappa.

Central potentials are given as radial profiles F of the squared
tangent-distance, which is J- itself in the flat and Beltrami cases and
4 J- / (1 - kappa J-)^2 in the Poincare chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .core import Guard, HamiltonianSpec, SL2Realization, _as_vector
from .errors import ConfigError, DimensionMismatch, DomainError
from .geometry import BELTRAMI, CHARTS, EUCLIDEAN, POINCARE, SPACES, check_space

Profile = Callable[[float], float]


@dataclass(frozen=True)
class SystemDescriptor:
    """What a catalog system is: family, space, parameters, barriers.

    Construction validates it against FAMILIES: a known family on one of
    its spaces, kappa = 0 on flat space, finite parameters and profile
    coefficients, and a positive mass where the family has one.
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
        for key, value in self.params.items():
            _check_finite(key, value)
        for key, coeffs in self.profiles.items():
            if not all(map(math.isfinite, coeffs)):
                raise ConfigError(f"{key} must be finite, got {coeffs!r}")
        check_space(self.space, self.kappa)
        if self.space not in info["spaces"]:
            raise ConfigError(f"family {self.family!r} is not defined on space {self.space!r}")
        if "mass" in info["params"]:
            _check_mass(self.params["mass"])

    @property
    def n(self) -> int:
        return self.b_tilde.size

    @property
    def kappa(self) -> float:
        return float(self.params.get("kappa", 0.0))

    @property
    def ms_axes(self) -> tuple[int, ...]:
        """The axes that carry an extra integral (none outside sw and kepler_coulomb)."""
        rule = FAMILIES[self.family].get("extra_axes")
        return () if rule is None else tuple(int(i) for i in rule(self.b_tilde))


def _check_finite(key: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")


def _check_mass(mass: float) -> float:
    mass = float(mass)
    if mass <= 0.0:
        raise ConfigError(f"mass must be positive, got {mass}")
    return mass


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
            return (1.0 + kappa * jm) ** 2 * jp * inv2m

        def t_par(jm, jp, j3):
            one = 1.0 + kappa * jm
            return (kappa / mass) * one * jp, one ** 2 * inv2m, 0.0

        return t_val, t_par

    def t_val(jm, jp, j3):
        return (1.0 + kappa * jm) * (jp + kappa * j3 ** 2) * inv2m

    def t_par(jm, jp, j3):
        one = 1.0 + kappa * jm
        return (
            kappa * (jp + kappa * j3 ** 2) * inv2m,
            one * inv2m,
            kappa * j3 * one / mass,
        )

    return t_val, t_par


def _radial_argument(space: str, kappa: float):
    """Map J- to the squared tangent-distance argument of radial profiles."""
    if space != POINCARE:
        return (lambda jm: jm), (lambda jm: 1.0)

    def s_val(jm):
        denom = 1.0 - kappa * jm
        if abs(denom) < 1e-12:
            raise DomainError("kappa q^2 = 1: stereographic equator image")
        return 4.0 * jm / denom ** 2

    def s_der(jm):
        denom = 1.0 - kappa * jm
        if abs(denom) < 1e-12:
            raise DomainError("kappa q^2 = 1: stereographic equator image")
        return 4.0 * (1.0 + kappa * jm) / denom ** 3

    return s_val, s_der


def _guards(space: str, kappa: float, *, origin: bool = False) -> tuple[Guard, ...]:
    guards = []
    if origin:
        guards.append(Guard("origin", lambda q: float(np.sqrt(q @ q))))
    if space == POINCARE and kappa > 0.0:
        guards.append(Guard("chart_boundary", lambda q: 1.0 - kappa * float(q @ q)))
    if space == BELTRAMI and kappa > 0.0:
        # the equator sits at |z| -> inf; clearance is the ambient height x0^2
        guards.append(Guard("chart_boundary", lambda q: 1.0 / (1.0 + kappa * float(q @ q))))
    if space in CHARTS and kappa < 0.0:
        guards.append(Guard("chart_boundary", lambda q: 1.0 + kappa * float(q @ q)))
    return tuple(guards)


def _radial_spec(
    desc: SystemDescriptor,
    profile: Profile,
    profile_deriv: Profile,
    *,
    origin_guard: bool = False,
) -> HamiltonianSpec:
    """Kinetic term plus a radial profile of the tangent-distance squared."""
    space, kappa = desc.space, desc.kappa
    realization = _realization(desc)
    t_val, t_par = _kinetic(space, kappa, desc.params["mass"])
    s_val, s_der = _radial_argument(space, kappa)

    def h(jm, jp, j3):
        return t_val(jm, jp, j3) + profile(s_val(jm))

    def h_partials(jm, jp, j3):
        tm, tp, t3 = t_par(jm, jp, j3)
        return tm + profile_deriv(s_val(jm)) * s_der(jm), tp, t3

    return HamiltonianSpec(
        name=f"{desc.family}.{space}",
        realization=realization,
        h=h,
        h_partials=h_partials,
        descriptor=desc,
        guards=_guards(space, kappa, origin=origin_guard),
    )


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def make_evans(
    space: str,
    profile: Profile,
    profile_deriv: Profile,
    *,
    mass: float = 1.0,
    b_tilde,
    kappa: float = 0.0,
) -> HamiltonianSpec:
    """Central potential F(r_t^2) plus N centrifugal barriers.

    The caller supplies the radial profile and its derivative; the argument
    is the squared tangent-distance (plain q^2 in the flat case).
    """
    desc = SystemDescriptor("evans", space, {"mass": float(mass), "kappa": kappa}, b_tilde)
    return _radial_spec(desc, profile, profile_deriv)


def make_sw(
    space: str = EUCLIDEAN,
    *,
    mass: float = 1.0,
    omega: float = 1.0,
    b_tilde,
    kappa: float = 0.0,
) -> HamiltonianSpec:
    """Isotropic oscillator (Higgs oscillator when curved) with barriers.

    Maximally superintegrable: every axis carries an extra integral I_i.
    """
    desc = SystemDescriptor(
        "sw", space, {"mass": float(mass), "omega": float(omega), "kappa": kappa}, b_tilde
    )
    w2 = desc.params["omega"] ** 2
    return _radial_spec(desc, lambda s: w2 * s, lambda s: w2)


def make_garnier(
    space: str = EUCLIDEAN,
    *,
    mass: float = 1.0,
    omega: float = 1.0,
    delta: float = 0.0,
    b_tilde,
    kappa: float = 0.0,
) -> HamiltonianSpec:
    """Quartic oscillator w^2 r_t^2 + delta r_t^4 with barriers (QMS)."""
    desc = SystemDescriptor(
        "garnier", space,
        {"mass": float(mass), "omega": float(omega), "delta": float(delta), "kappa": kappa},
        b_tilde,
    )
    w2, d = desc.params["omega"] ** 2, desc.params["delta"]
    return _radial_spec(desc, lambda s: w2 * s + d * s * s, lambda s: w2 + 2.0 * d * s)


def make_nonlinear_oscillator(
    space: str = EUCLIDEAN,
    *,
    mass: float = 1.0,
    omega: float = 1.0,
    deltas=(),
    b_tilde,
    kappa: float = 0.0,
) -> HamiltonianSpec:
    """Even-order oscillator w^2 r_t^2 + sum_k delta_k r_t^(2(k+1)) (QMS).

    `deltas` lists delta_1..delta_K; any finite truncation is admissible.
    """
    desc = SystemDescriptor(
        "oscillator", space, {"mass": float(mass), "omega": float(omega), "kappa": kappa},
        b_tilde, profiles={"deltas": tuple(float(d) for d in deltas)},
    )
    w2 = desc.params["omega"] ** 2
    ds = desc.profiles["deltas"]

    def f(s):
        val = w2 * s
        sk = s
        for d in ds:
            sk *= s
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


def make_kepler_coulomb(
    space: str = EUCLIDEAN,
    *,
    mass: float = 1.0,
    k: float = 1.0,
    b_tilde,
    kappa: float = 0.0,
) -> HamiltonianSpec:
    """Attractive -k / r_t potential with barriers.

    Maximally superintegrable when at least one bt_i = 0; each such axis
    carries a Laplace-Runge-Lenz component L_i.
    """
    desc = SystemDescriptor(
        "kepler_coulomb", space, {"mass": float(mass), "k": float(k), "kappa": kappa}, b_tilde
    )
    kc = desc.params["k"]

    def f(s):
        if s <= 0.0:
            raise DomainError("attractive center reached (q^2 = 0)")
        return -kc / math.sqrt(s)

    def fp(s):
        if s <= 0.0:
            raise DomainError("attractive center reached (q^2 = 0)")
        return 0.5 * kc * s ** -1.5

    return _radial_spec(desc, f, fp, origin_guard=True)


def make_electromagnetic(
    *,
    mass: float = 1.0,
    charge: float = 1.0,
    scalar_profile: Profile,
    scalar_profile_deriv: Profile,
    vector_profile: Profile,
    vector_profile_deriv: Profile,
    b_tilde,
) -> HamiltonianSpec:
    """Flat momenta-dependent family J+/2m - (e/m) J3 G(J-) + e F(J-)."""
    desc = SystemDescriptor(
        "electromagnetic", EUCLIDEAN,
        {"mass": float(mass), "charge": float(charge), "kappa": 0.0}, b_tilde,
    )
    mass, e = desc.params["mass"], desc.params["charge"]
    realization = _realization(desc)
    inv2m = 1.0 / (2.0 * mass)

    def h(jm, jp, j3):
        return jp * inv2m - (e / mass) * j3 * vector_profile(jm) + e * scalar_profile(jm)

    def h_partials(jm, jp, j3):
        return (
            -(e / mass) * j3 * vector_profile_deriv(jm) + e * scalar_profile_deriv(jm),
            inv2m,
            -(e / mass) * vector_profile(jm),
        )

    return HamiltonianSpec(
        name="electromagnetic.euclidean",
        realization=realization,
        h=h,
        h_partials=h_partials,
        descriptor=desc,
    )


def make_variable_mass(
    *,
    mass_profile: Profile,
    mass_profile_deriv: Profile,
    potential: Profile,
    potential_deriv: Profile,
    b,
) -> HamiltonianSpec:
    """Coordinate-dependent mass family J+ / (2 M(J-)) + F(J-).

    `b` is given directly (not bt = b/m) since there is no constant mass.
    The chart kinetic energies are the special cases M = m/(1 + kappa s)^2
    (Poincare) of this form.
    """
    desc = SystemDescriptor("variable_mass", EUCLIDEAN, {"kappa": 0.0}, _as_vector(b, "b"))
    realization = SL2Realization(desc.b_tilde)

    def h(jm, jp, j3):
        mval = mass_profile(jm)
        if mval <= 0.0:
            raise DomainError(f"mass profile must stay positive, got {mval}")
        return jp / (2.0 * mval) + potential(jm)

    def h_partials(jm, jp, j3):
        mval = mass_profile(jm)
        if mval <= 0.0:
            raise DomainError(f"mass profile must stay positive, got {mval}")
        return (
            -jp * mass_profile_deriv(jm) / (2.0 * mval ** 2) + potential_deriv(jm),
            1.0 / (2.0 * mval),
            0.0,
        )

    return HamiltonianSpec(
        name="variable_mass.euclidean",
        realization=realization,
        h=h,
        h_partials=h_partials,
        descriptor=desc,
    )


# ---------------------------------------------------------------------------
# Electromagnetic field data (N = 3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EMFields:
    E: np.ndarray
    H: np.ndarray
    psi: float
    A: np.ndarray


def em_fields(
    q,
    *,
    mass: float = 1.0,
    charge: float = 1.0,
    scalar_profile: Profile,
    scalar_profile_deriv: Profile,
    vector_profile: Profile,
    vector_profile_deriv: Profile,
    b_tilde,
) -> EMFields:
    """Static fields of the electromagnetic family at a position in R^3.

    psi = F(q^2) - (e/2m) q^2 G(q^2)^2 + sum bt_i / (2 e q_i^2),
    A = q G(q^2); the magnetic field of this radial A vanishes identically
    and E = -grad psi in closed form.
    """
    q = _as_vector(q, "q")
    bt = _as_vector(b_tilde, "b_tilde")
    if q.size != 3 or bt.size != 3:
        raise DimensionMismatch("the electromagnetic reading needs N = 3")
    _check_finite("mass", mass)
    _check_finite("charge", charge)
    e = float(charge)
    if e == 0.0:
        raise ConfigError("charge must be nonzero to form the potentials")
    m = _check_mass(mass)
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
# Config-driven construction
# ---------------------------------------------------------------------------

# Per family: the parameters and polynomial profiles a config gives, the
# spaces it is defined on, what it is known to be, and, for the two maximally
# superintegrable families, which axes carry an extra integral given b_tilde.
FAMILIES: dict[str, dict] = {
    "evans": {
        "params": ("mass",),
        "profiles": ("potential",),
        "spaces": SPACES,
        "ms": "generic radial profile: quasi-maximally superintegrable only",
    },
    "sw": {
        "params": ("mass", "omega"),
        "profiles": (),
        "spaces": SPACES,
        "ms": "maximally superintegrable; N extra integrals I_1..I_N, one per axis",
        "extra_axes": lambda bt: range(bt.size),
    },
    "garnier": {
        "params": ("mass", "omega", "delta"),
        "profiles": (),
        "spaces": SPACES,
        "ms": "quasi-maximally superintegrable for any delta",
    },
    "oscillator": {
        "params": ("mass", "omega"),
        "profiles": ("deltas",),
        "spaces": SPACES,
        "ms": "quasi-maximally superintegrable for any delta_k truncation",
    },
    "kepler_coulomb": {
        "params": ("mass", "k"),
        "profiles": (),
        "spaces": SPACES,
        "ms": "maximally superintegrable when at least one bt_i = 0; "
        "extra integral L_i for every axis with bt_i = 0",
        "extra_axes": lambda bt: np.flatnonzero(bt == 0.0),
    },
    "electromagnetic": {
        "params": ("mass", "charge"),
        "profiles": ("potential", "vector"),
        "spaces": (EUCLIDEAN,),
        "ms": "quasi-maximally superintegrable (momenta-dependent potential)",
    },
    "variable_mass": {
        "params": (),
        "profiles": ("mass_profile", "potential"),
        "spaces": (EUCLIDEAN,),
        "ms": "quasi-maximally superintegrable; chart kinetic energies are "
        "special cases of the mass profile",
    },
}


def poly_profile(coeffs) -> tuple[Profile, Profile]:
    """Polynomial profile (value, derivative) from ascending coefficients."""
    poly = np.polynomial.Polynomial(list(coeffs))
    der = poly.deriv()
    return (lambda s: float(poly(s))), (lambda s: float(der(s)))


def build(descriptor: SystemDescriptor) -> HamiltonianSpec:
    """Construct the HamiltonianSpec a descriptor names.

    Profile-bearing families read ascending polynomial coefficients from
    `descriptor.profiles`.
    """
    family = descriptor.family
    space = descriptor.space
    params = descriptor.params
    kappa = descriptor.kappa
    bt = descriptor.b_tilde

    if family == "sw":
        return make_sw(space, mass=params["mass"], omega=params["omega"],
                       b_tilde=bt, kappa=kappa)
    if family == "garnier":
        return make_garnier(space, mass=params["mass"], omega=params["omega"],
                            delta=params.get("delta", 0.0), b_tilde=bt, kappa=kappa)
    if family == "oscillator":
        return make_nonlinear_oscillator(
            space, mass=params["mass"], omega=params["omega"],
            deltas=descriptor.profiles.get("deltas", ()), b_tilde=bt, kappa=kappa)
    if family == "kepler_coulomb":
        return make_kepler_coulomb(space, mass=params["mass"], k=params["k"],
                                   b_tilde=bt, kappa=kappa)
    if family == "evans":
        f, fp = poly_profile(_profile_coeffs(descriptor, "potential"))
        return make_evans(space, f, fp, mass=params["mass"], b_tilde=bt, kappa=kappa)
    if family == "electromagnetic":
        f, fp = poly_profile(_profile_coeffs(descriptor, "potential"))
        g, gp = poly_profile(_profile_coeffs(descriptor, "vector"))
        return make_electromagnetic(
            mass=params["mass"], charge=params["charge"],
            scalar_profile=f, scalar_profile_deriv=fp,
            vector_profile=g, vector_profile_deriv=gp, b_tilde=bt)
    # variable_mass
    mpro, mder = poly_profile(_profile_coeffs(descriptor, "mass_profile"))
    f, fp = poly_profile(_profile_coeffs(descriptor, "potential"))
    return make_variable_mass(
        mass_profile=mpro, mass_profile_deriv=mder,
        potential=f, potential_deriv=fp, b=bt)


def _profile_coeffs(descriptor: SystemDescriptor, key: str) -> tuple[float, ...]:
    coeffs = descriptor.profiles.get(key)
    if not coeffs:
        raise ConfigError(f"family {descriptor.family!r} needs profile {key!r}")
    return coeffs


def extra_integral(descriptor: SystemDescriptor, axis: int):
    """The extra ("lost") integral of an MS family on one axis.

    Raises ConfigError for families without extras or when the axis fails
    the validity condition.
    """
    from . import integrals

    params, bt = descriptor.params, descriptor.b_tilde
    kappa, space = descriptor.kappa, descriptor.space
    if descriptor.family == "sw":
        return integrals.sw_extra_integral(
            axis, mass=params["mass"], omega=params["omega"], b_tilde=bt,
            kappa=kappa, space=space)
    if descriptor.family == "kepler_coulomb":
        return integrals.kc_extra_integral(
            axis, mass=params["mass"], k=params["k"], b_tilde=bt, kappa=kappa, space=space)
    raise ConfigError(f"family {descriptor.family!r} has no extra integrals")
