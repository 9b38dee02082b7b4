"""Seeded inputs, one operation and its correctness gate per workload.

certify   in-process ``superint.cli.main(["--out", d, "verify", cfg])``
orbits    in-process ``superint.integrate`` + ``superint.detect_closure``
cold_cli  one fresh interpreter per ``superint verify|simulate`` run

Each workload is a fixed cycle of (family, space, N[, method]) slots. The seed
draws every number in a slot (curvature and its sign, barriers, masses,
couplings, profiles, extra axes, initial conditions, sampling seed), so all
seeds exercise the same mix of families and sizes and cost about the same;
coverage of the numeric space comes from running many seeds.

The gate uses the paper's acceptance bounds, not the thresholds a config
carries, so a program that loosened its own thresholds would still fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BRACKET_TOL = 1e-9      # normalized Poisson-bracket residual
IDENTITY_TOL = 1e-12    # flat oscillator identity sum_i I_i = 2 m H
DRIFT_TOL = 1e-8        # normalized drift of every monitor
# Closure verdict at the benchmark's step sizes. Curved maximally
# superintegrable orbits return between grid points and the sub-stride
# parabolic refinement leaves up to 6.3e-4; generic quartic (garnier)
# orbits stayed at least 2.8e-2 away over the window (seed sweeps).
CLOSURE_TOL = 3e-3

# (family, space, n). Fourteen slots with N in 2..6, most at N = 4 so the
# median sits on a plateau of similar jobs, and two with N = 14 that carry
# the O(N^2) bracket table and SVD into the tail.
CERTIFY_CYCLE = (
    ("sw", "euclidean", 2),
    ("kepler_coulomb", "beltrami", 3),
    ("garnier", "poincare", 4),
    ("evans", "euclidean", 4),
    ("oscillator", "beltrami", 4),
    ("electromagnetic", "euclidean", 4),
    ("variable_mass", "euclidean", 4),
    ("sw", "poincare", 4),
    ("kepler_coulomb", "euclidean", 4),
    ("garnier", "beltrami", 4),
    ("evans", "poincare", 4),
    ("oscillator", "euclidean", 5),
    ("sw", "beltrami", 6),
    ("kepler_coulomb", "poincare", 6),
    ("sw", "beltrami", 14),
    ("kepler_coulomb", "euclidean", 14),
)
CERTIFY_SMOKE = CERTIFY_CYCLE[:4]

# (family, space, n, method). sw and kepler_coulomb are maximally
# superintegrable (their orbits must close), garnier is only
# quasi-maximally superintegrable (its orbits must not). The GL2 slots share
# N = 3, so median and tail are order statistics of one population.
ORBIT_CYCLE = (
    ("sw", "euclidean", 3, "gl2"),
    ("sw", "beltrami", 3, "gl2"),
    ("sw", "poincare", 3, "gl2"),
    ("kepler_coulomb", "euclidean", 3, "gl2"),
    ("kepler_coulomb", "beltrami", 3, "gl2"),
    ("kepler_coulomb", "poincare", 3, "gl2"),
    ("garnier", "euclidean", 3, "gl2"),
    ("garnier", "beltrami", 3, "gl2"),
    ("garnier", "poincare", 3, "gl2"),
    ("kepler_coulomb", "beltrami", 2, "rk4"),
    ("sw", "euclidean", 4, "rk4"),
)
ORBIT_SMOKE = (("sw", "euclidean", 2, "gl2"), ("garnier", "euclidean", 2, "gl2"))

# Steps per orbit over a window of 1.35 estimated periods. The worst drift
# in sweeps of about 700 seeded orbits was 2.9e-9, against the 1e-8 bound.
# RK4 is not symplectic (its error grows with time) but costs a third of a
# GL2 step.
STEPS = {"gl2": 700, "rk4": 1000}
WINDOW_PERIODS = 1.35

# Cycle: verify, verify, simulate, twice. The simulate runs are short (300
# GL2 steps, no closure footer) and alike, so the tail falls inside one
# population and the integration does not drown the per-process costs.
COLD_VERIFY = (
    ("sw", "euclidean", 3),
    ("kepler_coulomb", "beltrami", 3),
    ("garnier", "poincare", 3),
    ("evans", "euclidean", 3),
)
COLD_SIMULATE = (
    ("sw", "beltrami", 3, "gl2", 300),
    ("sw", "poincare", 3, "gl2", 300),
)

WORKLOADS = ("certify", "orbits", "cold_cli")


@dataclass
class Job:
    """One operation: a generated config plus what its output must show."""

    name: str
    kind: str                      # "verify" or "simulate"
    config: Path
    family: str
    space: str
    n: int
    extras: int
    method: str = ""
    steps: int = 0
    expect_closed: bool | None = None  # None: no closure verdict asked
    loaded: object = None          # ExperimentConfig, for in-process orbits


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digest: str = ""
    nbytes: int = 0
    extra: dict = field(default_factory=dict)   # how close the op came to a bound


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {_fmt(v)}" for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _kappa(rng, space: str, lo: float, hi: float) -> float:
    if space == "euclidean":
        return 0.0
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def _verify_system(rng, family: str, space: str, n: int, n_extras: int, zero_all: bool):
    """[system] keys for a certification job; returns (keys, extra count)."""
    sys_keys = {"family": family, "space": space, "n": n}
    if space != "euclidean":
        sys_keys["kappa"] = _kappa(rng, space, 0.2, 1.0)
    # Every slot has the same count of zero barriers on every seed (all of
    # them on slots with zero_all), so the cost of a slot does not depend
    # on the seed; which axes are zero does.
    bt = rng.uniform(0.05, 1.0, n)
    bt[rng.permutation(n)[: n if zero_all else max(2, n // 3)]] = 0.0
    if family != "variable_mass":
        sys_keys["mass"] = rng.uniform(0.8, 1.5)
    if family in ("sw", "garnier", "oscillator"):
        sys_keys["omega"] = rng.uniform(0.5, 1.5)
    if family == "garnier":
        sys_keys["delta"] = rng.uniform(0.05, 0.5)
    elif family == "oscillator":
        sys_keys["deltas"] = rng.uniform(0.02, 0.2, int(rng.integers(1, 3)))
    elif family == "kepler_coulomb":
        sys_keys["k"] = rng.uniform(0.5, 1.5)
    elif family == "evans":
        sys_keys["potential"] = [0.0, rng.uniform(0.2, 1.0), 0.0, rng.uniform(0.0, 0.2)]
    elif family == "electromagnetic":
        sys_keys["charge"] = rng.uniform(0.5, 1.5)
        sys_keys["potential"] = [0.0, 0.0, rng.uniform(0.5, 1.5)]
        sys_keys["vector"] = [0.0, rng.uniform(0.1, 0.5)]
    elif family == "variable_mass":
        sys_keys["mass_profile"] = [1.0, rng.uniform(0.1, 0.5)]
        sys_keys["potential"] = [0.0, rng.uniform(0.2, 0.6)]

    axes: list[int] = []
    if family == "sw":
        axes = sorted(rng.choice(n, size=n_extras, replace=False).tolist())
    elif family == "kepler_coulomb":
        # L_i exists only where bt_i = 0.
        axes = sorted(rng.choice(np.flatnonzero(bt == 0.0), size=n_extras,
                                 replace=False).tolist())
    sys_keys["b" if family == "variable_mass" else "b_tilde"] = bt
    if axes:
        sys_keys["extra_integrals"] = [a + 1 for a in axes]
    return sys_keys, len(axes)


def _verify_job(rng, out: Path, idx: int, family: str, space: str, n: int) -> Job:
    n_extras = 1 if n > 6 else 2
    sys_keys, extras = _verify_system(rng, family, space, n, n_extras, idx % 4 == 0)
    name = f"v{idx:02d}_{family}_{space}_{n}"
    path = _write_ini(out / f"{name}.ini", {
        "run": {"seed": int(rng.integers(0, 2**31 - 1))},
        "system": sys_keys,
        "verification": {"sample_points": 20, "bracket_tol": BRACKET_TOL, "rank_tol": 1e-8},
    })
    return Job(name, "verify", path, family, space, n, extras)


def _unit_pair(rng, n: int):
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    v = rng.normal(size=n)
    v -= (v @ u) * u
    return u, v / np.linalg.norm(v)


def _orbit_system(rng, family: str, space: str, n: int):
    """Bounded orbit: [system] keys, initial state (q, p), period estimate.

    The period is exact on flat space (oscillator: 2 pi / Omega; Kepler:
    from the energy), so a flat orbit returns exactly on a grid point.
    Curved periods are circular-orbit estimates, good to about 20 %; the
    window of 1.35 periods still holds a full return.
    """
    kappa = _kappa(rng, space, 0.2, 0.5)
    mass = float(rng.uniform(0.8, 1.25))
    sys_keys = {"family": family, "space": space, "n": n, "mass": mass}
    if space != "euclidean":
        sys_keys["kappa"] = kappa

    if family == "kepler_coulomb":
        k = float(rng.uniform(0.8, 1.25))
        r0 = float(rng.uniform(0.5, 0.7))
        u, v = _unit_pair(rng, n)
        kr = kappa * r0 * r0
        ang = math.sqrt(k * mass * r0 / (2.0 * (1.0 - kr))) if space == "poincare" \
            else math.sqrt(k * mass * r0)
        f = float(rng.uniform(0.94, 1.04))
        q, p = r0 * u, (ang / r0) * f * v
        # Flat: semi-major axis r0 / (2 - f^2), so Kepler's third law is exact.
        period = 2.0 * math.pi * math.sqrt(mass * r0 ** 3 / k) / (2.0 - f * f) ** 1.5
        if space == "beltrami":
            period /= 1.0 + kr
        elif space == "poincare":
            period *= math.sqrt(2.0 * (1.0 - kr)) / (1.0 + kr) ** 2
        sys_keys.update(k=k, b_tilde=np.zeros(n), extra_integrals=list(range(1, n + 1)))
        return sys_keys, q, p, period

    # Oscillators: barrier axes start near the bottom of their centrifugal
    # well, which keeps the orbit away from the coordinate plane.
    omega = float(rng.uniform(0.8, 1.25))
    delta = float(rng.uniform(1.0, 2.0)) if family == "garnier" else 0.0
    scale = 0.5 if space == "poincare" else 1.0   # stereographic radii are halved
    w2 = omega ** 2 * (4.0 if space == "poincare" else 1.0)
    bt = np.zeros(n)
    q = np.zeros(n)
    for i in rng.permutation(n)[: n // 2]:
        q_star = scale * rng.uniform(0.3, 0.45) / math.sqrt(n / 2.0)
        bt[i] = 2.0 * w2 * q_star ** 4
        q[i] = q_star * rng.uniform(0.85, 1.2) * rng.choice([-1.0, 1.0])
    free = bt == 0.0
    q[free] = scale * rng.choice([-1.0, 1.0], free.sum()) \
        * rng.uniform(0.15, 0.45, free.sum()) / math.sqrt(n / 2.0)
    r = float(np.linalg.norm(q))
    _, v = _unit_pair(rng, n)
    tangent = v - (v @ q) * q / r ** 2
    p = rng.uniform(0.15, 0.3) * rng.choice([-1.0, 1.0]) * tangent / np.linalg.norm(tangent) \
        + rng.uniform(0.1, 0.25) * rng.choice([-1.0, 1.0]) * q / r
    q2 = float(q @ q)
    s0 = 4.0 * q2 / (1.0 - kappa * q2) ** 2 if space == "poincare" else q2
    w_eff = math.sqrt(omega ** 2 + 2.0 * delta * s0)
    period = 2.0 * math.pi / (w_eff * math.sqrt(2.0 / mass))
    if space == "poincare":
        period /= 2.0
    sys_keys.update(omega=omega, b_tilde=bt)
    if family == "garnier":
        sys_keys["delta"] = delta
    else:
        sys_keys["extra_integrals"] = list(range(1, n + 1))
    return sys_keys, q, p, period


def _orbit_job(rng, out: Path, idx: int, family: str, space: str, n: int, method: str,
               steps: int | None = None) -> Job:
    """An orbit over the full window with a closure verdict, or, given
    `steps`, a shorter run at the same step size with no closure footer."""
    sys_keys, q, p, period = _orbit_system(rng, family, space, n)
    step = period / round(STEPS[method] / WINDOW_PERIODS)
    sim = {
        "x0": np.concatenate([q, p]),
        "t_final": (steps or STEPS[method]) * step,
        "step": step,
        "method": method,
        "monitors": "energy universal extras",
        "output_stride": 1,
    }
    if steps is None:
        sim["closure_tol"] = CLOSURE_TOL
    name = f"o{idx:02d}_{family}_{space}_{n}_{method}"
    path = _write_ini(out / f"{name}.ini", {
        "run": {"seed": int(rng.integers(0, 2**31 - 1))},
        "system": sys_keys,
        "simulation": sim,
    })
    extras = len(sys_keys.get("extra_integrals", ()))
    return Job(name, "simulate", path, family, space, n, extras, method,
               steps or STEPS[method],
               expect_closed=None if steps else family != "garnier")


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> list[Job]:
    """Write the workload's configs under `out` and return its job cycle."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([abs(seed), WORKLOADS.index(workload)])
    if workload == "certify":
        slots = CERTIFY_SMOKE if smoke else CERTIFY_CYCLE
        return [_verify_job(rng, out, i, *s) for i, s in enumerate(slots)]
    if workload == "orbits":
        import superint

        slots = ORBIT_SMOKE if smoke else ORBIT_CYCLE
        jobs = [_orbit_job(rng, out, i, *s) for i, s in enumerate(slots)]
        for job in jobs:
            job.loaded = superint.load_config(job.config)
        return jobs
    verify = COLD_VERIFY[:1] if smoke else COLD_VERIFY
    simulate = COLD_SIMULATE[:1] if smoke else COLD_SIMULATE
    jobs = [_verify_job(rng, out, i, *s) for i, s in enumerate(verify)]
    jobs += [_orbit_job(rng, out, len(jobs) + i, *s) for i, s in enumerate(simulate)]
    # Interleave as verify, verify, simulate, ... so every cycle has the same
    # 2:1 mix and the median stays inside the verify cluster.
    v, s = jobs[: len(verify)], jobs[len(verify):]
    cycle = []
    while v or s:
        cycle += v[:2] + s[:1]
        v, s = v[2:], s[1:]
    return cycle


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def take_output(out_dir: Path) -> bytes:
    """Read and remove the single file an operation wrote to `out_dir`."""
    files = [f for f in out_dir.iterdir() if f.is_file()]
    if len(files) != 1:
        raise RuntimeError(f"expected one output file, found {len(files)}")
    data = files[0].read_bytes()
    files[0].unlink()
    return data


def run_verify_inprocess(job: Job, out_dir: Path) -> int:
    import superint.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return superint.cli.main(["--out", str(out_dir), "verify", str(job.config)])


def run_orbit(job: Job):
    """Build, integrate and test closure through the public API."""
    import superint

    cfg = job.loaded
    sim = cfg.simulation
    desc = cfg.descriptor
    spec = superint.build(desc)
    monitors = [superint.energy_quantity(spec)]
    monitors += list(superint.universal_set(spec.realization).all)
    monitors += [superint.extra_integral(desc, a) for a in cfg.extra_axes]
    x0 = superint.PhasePoint(sim.x0[: job.n], sim.x0[job.n:])
    traj = superint.integrate(spec, x0, sim.t_final,
                              superint.IntegratorConfig(method=sim.method, step=sim.step),
                              monitors)
    closure = superint.detect_closure(traj, sim.closure_tol)
    return traj, closure


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sections(text: str) -> dict[str, list[tuple[str, str]]]:
    sections: dict[str, list[tuple[str, str]]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif "=" in line and current is not None:
            key, value = line.split("=", 1)
            current.append((key.strip(), value.strip()))
    return sections


def _values(sec, prefix: str) -> list[str]:
    return [v for k, v in sec if k == prefix or k.startswith(prefix + " ")]


def check_report(job: Job, rc: int, data: bytes) -> Outcome:
    """Involution, rank and extras of a verify report against the bounds."""
    out = Outcome(False, digest=_sha(data), nbytes=len(data))
    n = job.n
    secs = _sections(data.decode())
    inv = secs.get("involution", [])
    residuals = [float(v.split()[1]) for v in _values(inv, "residual")]
    ranks = _values(secs.get("independence", []), "rank")
    extras = secs.get("extras", [])
    brackets = [float(v.split()[1]) for v in _values(extras, "bracket")]
    ranks_with = [int(v.split()[0]) for v in _values(extras, "rank_with")]
    identity = _values(extras, "oscillator_sum_identity_residual")
    result = _values(secs.get("result", []), "pass")
    if len(residuals) != 2 * n - 3 + (n - 1) * (n - 2):
        out.reason = f"{len(residuals)} bracket pairs, expected {2 * n - 3 + (n - 1) * (n - 2)}"
    elif max(residuals) >= BRACKET_TOL:
        out.reason = f"bracket residual {max(residuals):.3e}"
    elif ranks != [str(2 * n - 2)]:
        out.reason = f"rank {ranks}, expected {2 * n - 2}"
    elif len(brackets) != job.extras or len(ranks_with) != job.extras:
        out.reason = f"{len(brackets)} extras reported, expected {job.extras}"
    elif brackets and max(brackets) >= BRACKET_TOL:
        out.reason = f"extra bracket residual {max(brackets):.3e}"
    elif any(r != 2 * n - 1 for r in ranks_with):
        out.reason = f"ranks with extras {ranks_with}, expected {2 * n - 1}"
    elif identity and float(identity[0]) >= IDENTITY_TOL:
        out.reason = f"oscillator sum identity {identity[0]}"
    elif (job.family, job.space) == ("sw", "euclidean") and not identity:
        out.reason = "oscillator sum identity missing"
    elif rc != 0:
        out.reason = f"exit code {rc}"
    elif result != ["true"]:
        out.reason = f"result pass = {result}"
    else:
        out.ok = True
    out.extra = {"worst_bracket": max(residuals + brackets, default=0.0)}
    return out


def _verdict(job: Job, drifts: list[float], n_states: int, closed) -> str:
    if n_states != job.steps + 1:
        return f"{n_states} states, expected {job.steps + 1}"
    if not drifts:
        return "no drift reported"
    if max(drifts) >= DRIFT_TOL:
        return f"drift {max(drifts):.3e}"
    if job.expect_closed is not None and closed is not job.expect_closed:
        return f"closure is_closed = {closed}, expected {job.expect_closed}"
    return ""


def _monitor_count(job: Job) -> int:
    return 1 + (2 * job.n - 3) + job.extras


def check_orbit(job: Job, traj, closure) -> Outcome:
    h = hashlib.sha256()
    for arr in (traj.times, traj.q, traj.p, *traj.monitors.values()):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(sorted(traj.drift.items())).encode())
    h.update(repr((closure.is_closed, closure.closure_distance,
                   closure.period_estimate)).encode())
    out = Outcome(False, digest=h.hexdigest())
    drifts = list(traj.drift.values())
    if len(drifts) != _monitor_count(job):
        out.reason = f"{len(drifts)} monitors, expected {_monitor_count(job)}"
    else:
        out.reason = _verdict(job, drifts, traj.n_states, bool(closure.is_closed))
    out.ok = not out.reason
    kind = "ms" if job.expect_closed else "qms"
    out.extra = {"max_drift": max(drifts, default=0.0),
                 f"{kind}_closure_distance": float(closure.closure_distance)}
    return out


_DRIFT = re.compile(r"^# drift (\S+) = (\S+)$")


def check_trajectory(job: Job, rc: int, data: bytes) -> Outcome:
    """A `simulate` trajectory file: rows, drift footer, closure footer."""
    out = Outcome(False, digest=_sha(data), nbytes=len(data))
    lines = data.decode().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    drifts = [float(m.group(2)) for m in map(_DRIFT.match, lines) if m]
    closed = [ln.split("=")[1].strip() for ln in lines if ln.startswith("# closure is_closed")]
    width = 1 + 2 * job.n + _monitor_count(job)
    if rc != 0:
        out.reason = f"exit code {rc}"
    elif len(drifts) != _monitor_count(job):
        out.reason = f"{len(drifts)} drift lines, expected {_monitor_count(job)}"
    elif any(len(r.split()) != width for r in rows):
        out.reason = f"row width differs from {width}"
    elif closed not in ((["true"], ["false"]) if job.expect_closed is not None else ([],)):
        out.reason = f"closure footer {closed}"
    else:
        out.reason = _verdict(job, drifts, len(rows), closed == ["true"])
    out.ok = not out.reason
    out.extra = {"max_drift": max(drifts, default=0.0)}
    return out


def child_env(src: Path) -> dict:
    """Environment of a cold CLI child: sources on the path, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env
