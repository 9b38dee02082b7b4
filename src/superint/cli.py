"""Command-line front end: verify, simulate, catalog.

Exit codes: 0 all asserted properties pass, 1 verification/simulation
failure (a simulation halted by a singular approach or a stage iteration
that does not converge still writes its trajectory up to the halt), 2
configuration or usage error (a size out of range included, such as more
steps than a trajectory can store), or output that cannot be written (e.g.
--out below a regular file).  Reports and trajectories are plain text
with round-trip-safe floats (shortest repr by default, hexadecimal with
--hex-floats), so identical config + seed gives byte identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .brackets import certify
from .catalog import FAMILIES, build, extra_integral
from .config import ExperimentConfig, load_config
from .core import PhasePoint, energy_quantity
from .dynamics import IntegratorConfig, detect_closure, integrate
from .errors import (
    ConfigError,
    InsufficientData,
    NonConvergence,
    RangeError,
    SingularApproach,
    SuperintError,
)
from .integrals import universal_set


def _fmt(value: float, hex_floats: bool) -> str:
    return float(value).hex() if hex_floats else repr(float(value))


def _classification(cfg: ExperimentConfig, ms_established: bool) -> str:
    n = cfg.n
    if n == 2:
        base = "integrable (single universal integral)"
    elif n == 3:
        base = "minimally ('weak') superintegrable"
    else:
        base = "quasi-maximally superintegrable"
    if ms_established:
        return base + "; maximally superintegrable with the verified extra integrals"
    return base


def cmd_verify(config_path: Path, out_dir: Path, seed_override, hex_floats: bool) -> int:
    cfg = load_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    cert = certify(cfg.descriptor, cfg.verification, extra_axes=cfg.extra_axes, rng=seed)
    table, rank = cert.table, cert.independence
    n = cfg.n

    passed = cert.passed
    lines = ["[meta]"]
    lines.append(f"tool = superint {__version__} verify")
    lines.append(f"config = {config_path.name}")
    lines.append(f"seed = {seed}")
    lines.append(f"family = {cfg.descriptor.family}")
    lines.append(f"space = {cfg.descriptor.space}")
    lines.append(f"n = {n}")
    lines.append(f"universal_integrals = {cert.universal_count}")
    lines.append(
        f"classification = {_classification(cfg, cert.extras_passed and bool(cert.extras))}"
    )
    lines.append("")
    lines.append("[involution]")
    lines.append(f"samples = {table.samples}")
    lines.append(f"tolerance = {_fmt(table.tolerance, hex_floats)}")
    for pair in table.pairs:
        lines.append(
            f"residual {pair.name_a} {pair.name_b} = "
            f"{_fmt(pair.max_raw, hex_floats)} {_fmt(pair.max_normalized, hex_floats)}"
        )
    worst = table.worst
    lines.append(f"worst_pair = {worst.name_a} {worst.name_b}")
    lines.append(f"pass = {str(table.passed).lower()}")
    lines.append("")
    lines.append("[independence]")
    lines.append(f"functions = {' '.join(rank.functions)}")
    lines.append(f"rank = {rank.numerical_rank}")
    lines.append(f"expected = {cert.expected_rank}")
    lines.append(f"rank_tolerance = {_fmt(rank.rank_tolerance, hex_floats)}")
    lines.append(f"pass = {str(cert.rank_passed).lower()}")
    if cert.extras or cert.identity_residual is not None:
        lines.append("")
        lines.append("[extras]")
        for extra in cert.extras:
            lines.append(
                f"bracket {extra.name} = {_fmt(extra.max_raw, hex_floats)} "
                f"{_fmt(extra.max_normalized, hex_floats)}"
            )
            lines.append(f"rank_with {extra.name} = {extra.rank} (ceiling {2 * n - 1})")
            lines.append(f"pass {extra.name} = {str(extra.passed).lower()}")
        if cert.identity_residual is not None:
            lines.append(
                "oscillator_sum_identity_residual = "
                f"{_fmt(cert.identity_residual, hex_floats)}"
            )
    lines.append("")
    lines.append("[result]")
    lines.append(f"pass = {str(passed).lower()}")

    report_path = out_dir / f"{config_path.stem}.report.txt"
    report_path.write_text("\n".join(lines) + "\n")
    print(f"{'PASS' if passed else 'FAIL'}: report written to {report_path}")
    return 0 if passed else 1


def _build_monitors(cfg: ExperimentConfig, spec, uni):
    monitors = []
    tokens = cfg.simulation.monitors
    if "energy" in tokens:
        monitors.append(energy_quantity(spec))
    if "universal" in tokens:
        monitors.extend(uni.all)
    if "extras" in tokens:
        monitors.extend(extra_integral(cfg.descriptor, a) for a in cfg.extra_axes)
    return monitors


def cmd_simulate(config_path: Path, out_dir: Path, seed_override, hex_floats: bool) -> int:
    cfg = load_config(config_path)
    if cfg.simulation is None:
        raise ConfigError("a [simulation] section is required for simulate")
    seed = cfg.seed if seed_override is None else seed_override
    sim = cfg.simulation
    spec = build(cfg.descriptor)
    uni = universal_set(spec.realization)
    monitors = _build_monitors(cfg, spec, uni)
    n = cfg.n
    x0 = PhasePoint(sim.x0[:n], sim.x0[n:])
    icfg = IntegratorConfig(
        method=sim.method, step=sim.step, fixed_point_tol=sim.fixed_point_tol
    )
    halted = None
    try:
        traj = integrate(spec, x0, sim.t_final, icfg, monitors)
    except (SingularApproach, NonConvergence) as err:
        traj, halted = err.trajectory, err

    cols = ["t"] + [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    cols += [m.name for m in monitors]
    lines = [
        f"# superint {__version__} trajectory",
        f"# config = {config_path.name}",
        f"# seed = {seed}",
        f"# system = {cfg.descriptor.family} {cfg.descriptor.space} n={n}",
        f"# method = {sim.method} step = {_fmt(sim.step, hex_floats)}",
        "# columns: " + " ".join(cols),
    ]
    stride = sim.output_stride
    for i in range(traj.n_states):
        if i % stride and i != traj.n_states - 1:
            continue
        row = [_fmt(traj.times[i], hex_floats)]
        row += [_fmt(v, hex_floats) for v in traj.q[i]]
        row += [_fmt(v, hex_floats) for v in traj.p[i]]
        row += [_fmt(traj.monitors[m.name][i], hex_floats) for m in monitors]
        lines.append(" ".join(row))
    for name, value in traj.drift.items():
        lines.append(f"# drift {name} = {_fmt(value, hex_floats)}")
    if traj.drift:
        lines.append(
            f"# max_normalized_drift = {_fmt(max(traj.drift.values()), hex_floats)}"
        )
    if halted is not None:
        lines.append(f"# halted = {halted}")
    elif sim.closure_tol is not None:
        try:
            report = detect_closure(traj, sim.closure_tol)
            lines.append(f"# closure is_closed = {str(report.is_closed).lower()}")
            lines.append(
                f"# closure distance = {_fmt(report.closure_distance, hex_floats)}"
            )
            if report.period_estimate is not None:
                lines.append(
                    f"# closure period_estimate = {_fmt(report.period_estimate, hex_floats)}"
                )
        except InsufficientData as exc:
            lines.append(f"# closure unavailable = {exc}")

    traj_path = out_dir / f"{config_path.stem}.traj.txt"
    traj_path.write_text("\n".join(lines) + "\n")
    if halted is not None:
        print(f"HALTED: {halted}; partial trajectory written to {traj_path}",
              file=sys.stderr)
        return 1
    print(f"trajectory written to {traj_path}")
    return 0


def cmd_catalog() -> int:
    print("Hamiltonian families (central construction: H = h(J-, J+, J3))")
    print()
    for name, info in FAMILIES.items():
        print(f"{name}")
        params = ", ".join(info.params) if info.params else "none"
        print(f"  parameters : {params} + barrier coefficients")
        if info.profiles:
            print(f"  profiles   : {', '.join(info.profiles)} "
                  "(polynomial coefficients in configs)")
        print(f"  spaces     : {', '.join(info.spaces)}")
        print(f"  integrals  : {info.ms}")
        print()
    print("Every family shares the universal integrals C^2..C^N and C_2..C_N")
    print("(2N-3 distinct functions; the two N-member sets are in involution).")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building it costs about as much as parsing a config."""
    parser = argparse.ArgumentParser(
        prog="superint",
        description="Construct and numerically certify superintegrable "
        "Hamiltonians on flat and curved spaces.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: $SUPERINT_OUT or the "
                        "current directory)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--hex-floats", action="store_true",
                       help="write floats as hexadecimal literals")
    sub.add_parser("catalog")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    if args.out is not None:
        out_dir = args.out
    elif os.environ.get("SUPERINT_OUT"):
        out_dir = Path(os.environ["SUPERINT_OUT"])
    else:
        out_dir = Path.cwd()
    try:
        if args.command == "catalog":
            return cmd_catalog()
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "verify":
            return cmd_verify(args.config, out_dir, args.seed, args.hex_floats)
        return cmd_simulate(args.config, out_dir, args.seed, args.hex_floats)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SuperintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
