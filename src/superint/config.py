"""Experiment configuration: a small INI schema, strictly validated.

Sections and keys (see README for the full reference):

    [run]           seed
    [system]        family, space, n, mass, kappa, omega, delta, deltas,
                    k, charge, b_tilde (or b for variable_mass),
                    potential / vector / mass_profile (ascending polynomial
                    coefficients), extra_integrals (1-based axes)
    [verification]  sample_points, bracket_tol, rank_tol
    [simulation]    x0 (2N floats), t_final, step, method, monitors,
                    output_stride, closure_tol, fixed_point_tol

Values are read as written: `%` is a literal character, not interpolation.
Unknown sections or keys are rejected so typos fail loudly.  [system]
reads only the parameters and profiles its family's `FAMILIES` entry
names; parameters left out take that entry's defaults.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import FAMILIES, SystemDescriptor
from .dynamics import METHODS, whole_steps
from .errors import ConfigError
from .geometry import EUCLIDEAN
from .records import Record, setfield

_SECTIONS = {"run", "system", "verification", "simulation"}
_RUN_KEYS = {"seed"}
_SYSTEM_KEYS = {
    "family", "space", "n", "kappa", "b_tilde", "b", "extra_integrals",
    *(key for info in FAMILIES.values() for key in (*info.params, *info.profiles)),
}
_VERIFICATION_KEYS = {"sample_points", "bracket_tol", "rank_tol"}
_SIMULATION_KEYS = {
    "x0", "t_final", "step", "method", "monitors", "output_stride",
    "closure_tol", "fixed_point_tol",
}
_MONITOR_TOKENS = {"energy", "universal", "extras"}


class VerificationSettings(Record):
    __slots__ = ("sample_points", "bracket_tol", "rank_tol")

    def __init__(self, sample_points: int = 20, bracket_tol: float = 1e-9,
                 rank_tol: float = 1e-8):
        setfield(self, "sample_points", sample_points)
        setfield(self, "bracket_tol", bracket_tol)
        setfield(self, "rank_tol", rank_tol)


class SimulationSettings(Record):
    __slots__ = ("x0", "t_final", "step", "method", "monitors", "output_stride", "closure_tol",
                 "fixed_point_tol")

    def __init__(self, x0: np.ndarray, t_final: float, step: float, method: str = "gl2",
                 monitors: tuple[str, ...] = ("energy", "universal"), output_stride: int = 1,
                 closure_tol: Optional[float] = None, fixed_point_tol: float = 1e-13):
        setfield(self, "x0", x0)
        setfield(self, "t_final", t_final)
        setfield(self, "step", step)
        setfield(self, "method", method)
        setfield(self, "monitors", monitors)
        setfield(self, "output_stride", output_stride)
        setfield(self, "closure_tol", closure_tol)
        setfield(self, "fixed_point_tol", fixed_point_tol)


class ExperimentConfig(Record):
    """A parsed config; with no `verification` given, the default settings."""

    __slots__ = ("descriptor", "seed", "extra_axes", "verification", "simulation")

    def __init__(self, descriptor: SystemDescriptor, seed: int = 0,
                 extra_axes: tuple[int, ...] = (),
                 verification: Optional[VerificationSettings] = None,
                 simulation: Optional[SimulationSettings] = None):
        setfield(self, "descriptor", descriptor)
        setfield(self, "seed", seed)
        setfield(self, "extra_axes", extra_axes)
        setfield(self, "verification",
                 VerificationSettings() if verification is None else verification)
        setfield(self, "simulation", simulation)

    @property
    def n(self) -> int:
        return self.descriptor.n


def _floats(raw: str, key: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected floats, got {raw!r}") from exc
    if not all(map(math.isfinite, vals)):
        # inf and nan would pass the range checks below (nan compares false)
        raise ConfigError(f"{key}: expected finite numbers, got {raw!r}")
    return vals


def _one_float(raw: str, key: str) -> float:
    vals = _floats(raw, key)
    if len(vals) != 1:
        raise ConfigError(f"{key}: expected a single number, got {raw!r}")
    return vals[0]


def _one_int(raw: str, key: str) -> int:
    val = _one_float(raw, key)
    if val != int(val):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    return int(val)


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    unknown = set(parser.sections()) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}; allowed {sorted(_SECTIONS)}")
    if "system" not in parser:
        raise ConfigError("a [system] section is required")

    for section, allowed in (
        ("run", _RUN_KEYS),
        ("system", _SYSTEM_KEYS),
        ("verification", _VERIFICATION_KEYS),
        ("simulation", _SIMULATION_KEYS),
    ):
        if section in parser:
            bad = set(parser[section]) - allowed
            if bad:
                raise ConfigError(f"unknown [{section}] keys {sorted(bad)}")

    seed = 0
    if "run" in parser and "seed" in parser["run"]:
        seed = _one_int(parser["run"]["seed"], "seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")

    descriptor, extra_axes = _system(parser["system"])
    verification = _verification(parser["verification"]) if "verification" in parser \
        else VerificationSettings()
    simulation = _simulation(parser["simulation"], descriptor.n) \
        if "simulation" in parser else None
    return ExperimentConfig(descriptor, seed, extra_axes, verification, simulation)


def _system(sec) -> tuple[SystemDescriptor, tuple[int, ...]]:
    family = sec.get("family")
    info = FAMILIES.get(family)
    # SystemDescriptor rejects an unknown family; it has no keys to read here
    names, profile_keys = (info.params, info.profiles) if info else ((), ())

    if "n" not in sec:
        raise ConfigError("[system] n is required")
    n = _one_int(sec["n"], "n")
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")

    barrier_key = "b" if family == "variable_mass" else "b_tilde"
    wrong_key = "b_tilde" if family == "variable_mass" else "b"
    if wrong_key in sec:
        raise ConfigError(f"family {family!r} takes {barrier_key!r}, not {wrong_key!r}")
    bt = np.array(_floats(sec[barrier_key], barrier_key)) if barrier_key in sec \
        else np.zeros(n)
    if bt.size != n:
        raise ConfigError(f"{barrier_key} must list n = {n} values, got {bt.size}")

    params = {key: _one_float(sec[key], key) for key in ("kappa", *names) if key in sec}
    profiles: dict[str, tuple[float, ...]] = {}
    for key in profile_keys:
        if key == "deltas":
            profiles["deltas"] = _floats(sec["deltas"], "deltas") if "deltas" in sec else ()
            continue
        if key not in sec:
            raise ConfigError(f"family {family!r} needs polynomial coefficients {key!r}")
        profiles[key] = _floats(sec[key], key)
    descriptor = SystemDescriptor(family, sec.get("space", EUCLIDEAN), params, bt, profiles)

    extra_axes: tuple[int, ...] = ()
    if "extra_integrals" in sec:
        sites = [_one_int(tok, "extra_integrals") for tok in sec["extra_integrals"].split()]
        if len(set(sites)) != len(sites) or any(not 1 <= s <= n for s in sites):
            raise ConfigError(f"extra_integrals sites must be distinct and in [1, {n}], "
                              f"got {sites}")
        extra_axes = tuple(s - 1 for s in sites)
        if info.extra is None:
            raise ConfigError(f"family {family!r} has no extra integrals")
        ms_axes = descriptor.ms_axes
        invalid = [a + 1 for a in extra_axes if a not in ms_axes]
        if invalid:
            raise ConfigError(
                f"extra integrals requested on axes {invalid} where the validity "
                f"condition fails (kepler_coulomb needs b_tilde = 0 on the axis)"
            )
    return descriptor, extra_axes


def _verification(sec) -> VerificationSettings:
    parsers = {"sample_points": _one_int, "bracket_tol": _one_float, "rank_tol": _one_float}
    settings = VerificationSettings(
        **{key: parse(sec[key], key) for key, parse in parsers.items() if key in sec}
    )
    if settings.sample_points < 1 or settings.bracket_tol <= 0.0 or settings.rank_tol <= 0.0:
        raise ConfigError("verification settings must be positive")
    return settings


def _simulation(sec, n: int) -> SimulationSettings:
    for key in ("x0", "t_final", "step"):
        if key not in sec:
            raise ConfigError(f"[simulation] {key} is required")
    x0 = np.array(_floats(sec["x0"], "x0"))
    if x0.size != 2 * n:
        raise ConfigError(f"x0 must list 2n = {2 * n} values (q then p), got {x0.size}")
    t_final = _one_float(sec["t_final"], "t_final")
    if t_final < 0.0:
        raise ConfigError("t_final must be nonnegative")
    step = _one_float(sec["step"], "step")
    if step <= 0.0:
        raise ConfigError("step must be positive")
    if whole_steps(t_final, step) is None:
        # The integrator takes whole steps only, so the grid would end past t_final.
        raise ConfigError(
            f"t_final / step must be a whole number of steps, got "
            f"{t_final!r} / {step!r} = {t_final / step!r}"
        )
    parsers = {
        "method": lambda raw, key: raw,
        "monitors": lambda raw, key: tuple(raw.split()),
        "output_stride": _one_int,
        "closure_tol": _one_float,
        "fixed_point_tol": _one_float,
    }
    # keys left out take the SimulationSettings defaults
    settings = SimulationSettings(
        x0, t_final, step,
        **{key: parse(sec[key], key) for key, parse in parsers.items() if key in sec},
    )
    if settings.method not in METHODS:
        raise ConfigError(f"method must be {' or '.join(METHODS)}, got {settings.method!r}")
    bad = set(settings.monitors) - _MONITOR_TOKENS
    if bad:
        raise ConfigError(f"unknown monitors {sorted(bad)}; allowed {sorted(_MONITOR_TOKENS)}")
    if settings.output_stride < 1:
        raise ConfigError("output_stride must be >= 1")
    if settings.closure_tol is not None and settings.closure_tol <= 0.0:
        raise ConfigError("closure_tol must be positive")
    if settings.fixed_point_tol <= 0.0:
        raise ConfigError("fixed_point_tol must be positive")
    return settings
