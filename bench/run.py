"""superint benchmark: certify, orbits and cold_cli workloads.

    python3 bench/run.py --workload certify --seed 7 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory and nothing is installed. Every workload is a closed loop
with one client and one process, with OpenBLAS/OpenMP pinned to one thread.
The seed generates the configs and initial conditions (bench/workloads.py);
each operation is checked against the paper's acceptance bounds.

--trace 0  repeats the workload's job cycle for --seconds and reports the
           end-to-end metrics, each timing scaled by the host's speed at
           the time (HostSpeed).
--trace 1  runs every operation twice, untraced then traced (bench/spans.py),
           over whole cycles of the workload's jobs, and reports per-layer
           metrics per cycle plus the tracing overhead.
--smoke    small inputs and one set-up probe, for bench/test_smoke.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
environment, input sizes, sample counts and output digests. Traced spans go
to .bench_out/spans-<workload>-s<seed>.tsv.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "orbits", "cold_cli")
MIN_CYCLES = 3          # repetitions of every job in a timed run
MIN_OPS = 20            # op_tail_ms needs ten samples beyond its percentile
REF_LOOP = 12000        # iterations of one host-speed block
REF_BLOCK_S = 0.7e-3    # its time on the reference VM at that VM's best speed
REF_SHARE = 0.15        # host-speed blocks after an op, as a share of its time
WINDOW_S = 4.0          # span of host-speed blocks that scales one op
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, one set-up probe")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the left window Casimirs' gradients (gate self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, cfg_dir: Path):
    """Import the program and generate the inputs: what `setup_s` times."""
    start = time.perf_counter()
    import superint.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    jobs = workloads.generate(args.workload, args.seed, cfg_dir, args.smoke)
    return time.perf_counter() - start, import_s, jobs


class HostSpeed:
    """How fast the host runs at a given moment, from a fixed loop.

    The box is a VM on a shared host: for minutes at a time other tenants
    slow every op here by up to half, and the slowdown reaches the best
    latency of a job as well as its median. Between ops the benchmark runs a
    fixed pure-Python loop in blocks of about a millisecond, for REF_SHARE
    of the op's time. `factors` gives, for each moment, the mean block time
    within WINDOW_S around it over REF_BLOCK_S; a latency divided by it is
    the latency on a host where one block takes REF_BLOCK_S.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []

    @staticmethod
    def _block():
        s = 0
        for i in range(REF_LOOP):
            s += i * i % 7
        return s

    def sample(self, op_seconds: float):
        """Blocks for REF_SHARE of an op that just took `op_seconds`."""
        until = time.perf_counter() + REF_SHARE * op_seconds
        while True:
            start = time.perf_counter()
            self._block()
            end = time.perf_counter()
            self.ends.append(end)
            self.times.append(end - start)
            if end >= until:
                return

    def factors(self, midpoints) -> list[float]:
        import numpy

        ends = numpy.asarray(self.ends)
        cums = numpy.concatenate([[0.0], numpy.cumsum(self.times)])
        out = []
        for t in midpoints:
            lo = int(numpy.searchsorted(ends, t - WINDOW_S / 2))
            hi = max(int(numpy.searchsorted(ends, t + WINDOW_S / 2)), lo + 1)
            out.append(float(cums[hi] - cums[lo]) / (hi - lo) / REF_BLOCK_S)
        return out


def probe_setup(args, n: int, host: HostSpeed):
    """Set-up time of `n` fresh interpreters, one after another; returns
    the times and the midpoint of each probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times, midpoints = [], []
    for _ in range(n):
        start = time.perf_counter()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             cwd=ROOT)
        end = time.perf_counter()
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-400:]}")
        times.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
        midpoints.append((start + end) / 2)
        host.sample(end - start)
    return times, midpoints


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def corrupt_universal_gradients():
    """Scale dC/dq of every left window Casimir C^m by (1 + 1e-6), so the
    brackets with H no longer vanish and the gate must fail."""
    import dataclasses

    import superint.integrals as integrals

    original = integrals.left_integral

    def left_integral(realization, m):
        q = original(realization, m)
        grad = q.gradient_fn

        def gradient_fn(qv, pv):
            dq, dp = grad(qv, pv)
            return dq * (1.0 + 1e-6), dp

        return dataclasses.replace(q, gradient_fn=gradient_fn)

    integrals.left_integral = left_integral


class Runner:
    """Executes one job and checks its output."""

    def __init__(self, workload: str, run_dir: Path):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.out_dir = run_dir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.child_trace = run_dir / "child-trace.json"
        self.child_rss_mb = 0.0
        self.child_stderr = ""

    def execute(self, job, tracer=None):
        """Run one op; return (latency in seconds, Outcome)."""
        self.child_stderr = ""
        latency, outcome = self._execute(job, tracer)
        if not outcome.ok:
            outcome.reason = f"{job.name}: {outcome.reason} {self.child_stderr}".rstrip()
        return latency, outcome

    def _execute(self, job, tracer):
        wl = self.wl
        start = time.perf_counter()
        try:
            if self.workload == "certify":
                rc = wl.run_verify_inprocess(job, self.out_dir)
                latency = time.perf_counter() - start
                return latency, wl.check_report(job, rc, wl.take_output(self.out_dir))
            if self.workload == "orbits":
                traj, closure = wl.run_orbit(job)
                latency = time.perf_counter() - start
                return latency, wl.check_orbit(job, traj, closure)
            rc = self._child(job, tracer)
            latency = time.perf_counter() - start
            data = wl.take_output(self.out_dir)
            check = wl.check_report if job.kind == "verify" else wl.check_trajectory
            return latency, check(job, rc, data)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latency = time.perf_counter() - start
            for f in self.out_dir.iterdir():
                f.unlink()
            return latency, wl.Outcome(False, f"{type(exc).__name__}: {exc}")

    def _child(self, job, tracer) -> int:
        cmd = [sys.executable, str(BENCH / "cli_child.py")]
        if tracer is not None:
            cmd += ["--trace-to", str(self.child_trace)]
        cmd += ["--out", str(self.out_dir), job.kind, str(job.config)]
        err_path = self.out_dir.parent / "child-stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, env=self.wl.child_env(SRC), cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            self.child_stderr = err_path.read_text(errors="replace").strip()[-300:]
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        if tracer is not None:
            data = json.loads(self.child_trace.read_text())
            tracer.merge(data["summary"], data["spans"])
            self.child_trace.unlink()
        return proc.returncode


def fail_ratio(failed: int, attempted: int) -> float:
    """Posterior mean of the per-op failure probability under a Beta(1, 999)
    prior (one failure in a thousand ops): never 0, nearly independent of
    how many ops a run fits in, and doubled by a single failure. The raw
    counts are the result's `failed` and `attempted`."""
    return (failed + 1) / (attempted + 1000)


def tail(latencies: list[float]):
    """(percentile, value): the highest order statistic with >= 10 samples
    beyond it."""
    n = len(latencies)
    k = n - 11
    return 100.0 * k / (n - 1), sorted(latencies)[k]


def run_plain(args, runner, jobs, host):
    """Whole cycles of the jobs, at least MIN_CYCLES and MIN_OPS, while the
    next cycle is expected to end within --seconds, so every run times the
    same mix. Host-speed blocks follow every op. Returns the latencies and
    the midpoint of each op."""
    latencies, midpoints, outcomes, first = [], [], [], {}
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for job in jobs:
            op_start = time.perf_counter()
            latency, outcome = runner.execute(job)
            host.sample(latency)
            latencies.append(latency)
            midpoints.append(op_start + latency / 2)
            outcomes.append(outcome)
            first.setdefault(job.name, outcome.digest)
        cycles += 1
        now = time.perf_counter()
        if cycles >= MIN_CYCLES and len(latencies) >= MIN_OPS \
                and now - start + (now - cycle_start) > args.seconds:
            return latencies, midpoints, outcomes, first, cycles


def run_traced(args, runner, jobs, tracer):
    """The whole cycles that fit in --seconds (at least one); each job runs
    untraced, then traced, and the two outputs must agree."""
    plain, traced, outcomes, first = [], [], [], {}
    cycles = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for job in jobs:
            lat_u, out_u = runner.execute(job)
            tracer.install()
            tracer.begin_op(len(outcomes), f"op.{args.workload}")
            try:
                lat_t, out_t = runner.execute(job, tracer)
            finally:
                tracer.end_op()
                tracer.uninstall()
            if out_t.ok and out_t.digest != out_u.digest:
                out_t.ok, out_t.reason = False, "traced output differs from untraced"
            plain.append(lat_u)
            traced.append(lat_t)
            outcomes += [out_u, out_t]
            first.setdefault(job.name, out_u.digest)
        cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > args.seconds:
            return plain, traced, outcomes, first, cycles


def layer_metrics(tracer, cycles: int, overhead: float, import_s: float,
                  bytes_written: int) -> dict:
    calls, busy, own, c = tracer.calls, tracer.busy, tracer.self_time, tracer.counts

    def per(x):
        return x / cycles

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("core.h_grad", "core.h_value", "integrals.grad", "integrals.value"):
        m[f"{layer}.calls"] = (per(calls[layer]), "count")
        m[f"{layer}.self_s"] = (per(own[layer]), "s")
        if layer != "core.h_value":
            m[f"{layer}.us_per_call"] = (1e6 * ratio(own[layer], calls[layer]), "us")
    for layer in ("brackets.involution", "brackets.rank", "brackets.residual",
                  "brackets.sample", "dynamics.integrate", "dynamics.closure",
                  "catalog.build", "catalog.extra", "config.load"):
        m[f"{layer}.calls"] = (per(calls[layer]), "count")
        m[f"{layer}.busy_s"] = (per(busy[layer]), "s")
    for layer in ("brackets.involution", "brackets.rank", "dynamics.integrate"):
        m[f"{layer}.self_s"] = (per(own[layer]), "s")
    m["brackets.involution.pairs"] = (per(c["brackets.involution.pairs"]), "count")
    m["brackets.rank.points"] = (per(c["brackets.rank.points"]), "count")
    m["brackets.sample.points"] = (per(c["brackets.sample.points"]), "count")
    m["brackets.grad_unique_ratio"] = (
        ratio(c["brackets.grad_unique"], c["brackets.grad_evals"]), "ratio")
    m["dynamics.steps"] = (per(c["dynamics.steps"]), "count")
    m["dynamics.us_per_step"] = (1e6 * ratio(c["dynamics.gl2_step_s"], c["dynamics.gl2_steps"]), "us")
    m["dynamics.grad_evals_per_step"] = (
        ratio(c["dynamics.gl2_grad_evals"], c["dynamics.gl2_steps"]), "ratio")
    m["dynamics.monitor_evals"] = (per(c["dynamics.monitor_evals"]), "count")
    m["dynamics.monitor_share"] = (ratio(c["dynamics.monitor_s"], busy["dynamics.integrate"]), "ratio")
    m["cli.verify.self_s"] = (per(own["cli.verify"]), "s")
    m["cli.simulate.self_s"] = (per(own["cli.simulate"]), "s")
    m["cli.bytes_written"] = (per(bytes_written), "bytes")
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run(args, run_dir: Path) -> int:
    # One CPU for the benchmark and every child it starts, so the host-speed
    # blocks time the CPU the ops ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = HostSpeed()
    setup_probes, probe_midpoints = [], []
    if args.trace == 0:
        setup_probes, probe_midpoints = probe_setup(args, 1 if args.smoke else SETUP_PROBES,
                                                    host)
    setup_s, import_s, jobs = setup(args, run_dir / "configs")
    if args.corrupt:
        corrupt_universal_gradients()
    runner = Runner(args.workload, run_dir)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(),
        "inputs": [{"job": j.name, "command": j.kind, "family": j.family, "space": j.space,
                    "n": j.n, "extras": j.extras, **({"method": j.method, "steps": j.steps}
                                                    if j.method else {})} for j in jobs],
        "setup_s_inprocess": setup_s,
        "setup_s_probes": setup_probes,
    }

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced, outcomes, first, cycles = run_traced(args, runner, jobs, tracer)
        latencies = plain
    else:
        latencies, midpoints, outcomes, first, cycles = run_plain(args, runner, jobs, host)

    # Determinism: the first two jobs again, byte for byte.
    for job in jobs[:2]:
        _, again = runner.execute(job)
        if again.ok and again.digest != first[job.name]:
            again.ok, again.reason = False, f"{job.name}: output differs on rerun"
        outcomes.append(again)

    failed = [o for o in outcomes if not o.ok]
    attempted = len(outcomes)
    detail["digests"] = first
    detail["digest_of_first_cycle"] = hashlib.sha256(
        "".join(first[j.name] for j in jobs).encode()).hexdigest()
    detail["failures"] = sorted({o.reason for o in failed})[:10]
    closest = {}
    for o in outcomes:
        for key, value in o.extra.items():
            pick = min if key == "qms_closure_distance" else max
            closest[key] = pick(closest.get(key, value), value)
    detail["closest_to_bounds"] = closest
    detail["ops_timed"] = len(latencies)

    if args.trace:
        overhead = sum(plain) / sum(traced)
        bytes_written = sum(o.nbytes for o in outcomes[1:2 * len(traced):2])
        child_imports = tracer.counts["cli.imports"]
        imp = tracer.counts["cli.import_s"] / child_imports if child_imports else import_s
        metrics = layer_metrics(tracer, cycles, overhead, imp, bytes_written)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-s{args.seed}.tsv", tracer.s_start[0])
        op_name = f"op.{args.workload}"
        detail["cycles"] = cycles
        detail["trace"] = {
            "op_s": tracer.busy[op_name],
            "self_s": {k: v for k, v in tracer.self_time.items() if k != op_name},
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    else:
        factors = host.factors(midpoints)
        scaled = [lat / f for lat, f in zip(latencies, factors)]
        setup_scaled = [t / f for t, f in zip(setup_probes, host.factors(probe_midpoints))]
        pct, tail_s = tail(scaled)
        if runner.child_rss_mb:
            rss = runner.child_rss_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "fail_ratio": {"value": fail_ratio(len(failed), attempted), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        detail["op_tail_percentile"] = pct
        detail["samples"] = len(scaled)
        detail["cycles"] = cycles
        detail["host_speed"] = {"blocks": len(host.times),
                                "best_block_ms": 1e3 * min(host.times),
                                "op_factor_min": min(factors),
                                "op_factor_p50": statistics.median(factors),
                                "op_factor_max": max(factors)}
        detail["unscaled"] = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail(latencies)[1],
            "setup_s": statistics.median(setup_probes),
        }
        detail["job_p50_ms"] = {j.name: 1e3 * statistics.median(scaled[i::len(jobs)])
                                for i, j in enumerate(jobs)}

    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "superint" / "__init__.py").is_file():
        print(f"bench: no superint sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_s, _, _ = setup(args, run_dir / "configs")
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
