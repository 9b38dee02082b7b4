"""Layer spans recorded from outside the program.

`Tracer.install()` replaces public functions of `superint.core`,
`integrals`, `brackets`, `catalog`, `dynamics`, `config` and `cli` with
timing wrappers, in every `superint` module namespace that holds them, and
`uninstall()` puts the originals back. No source file is touched.

A span has a name, start, end, parent span and op id. Spans are kept in
memory and written out when the run ends. A layer's self time is its span
time minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (layer span, module, public function). Factories of conserved quantities
# are listed separately: their products get value/gradient spans.
SPANNED = (
    ("config.load", "superint.config", "load_config"),
    ("catalog.build", "superint.catalog", "build"),
    ("catalog.extra", "superint.catalog", "extra_integral"),
    ("brackets.involution", "superint.brackets", "involution_table"),
    ("brackets.rank", "superint.brackets", "independence_rank"),
    ("brackets.residual", "superint.brackets", "max_bracket_residual"),
    ("brackets.sample", "superint.brackets", "sample_regular_points"),
    ("dynamics.integrate", "superint.dynamics", "integrate"),
    ("dynamics.closure", "superint.dynamics", "detect_closure"),
    ("cli.verify", "superint.cli", "cmd_verify"),
    ("cli.simulate", "superint.cli", "cmd_simulate"),
)
QUANTITY_FACTORIES = (
    ("superint.integrals", "left_integral"),
    ("superint.integrals", "right_integral"),
    ("superint.integrals", "universal_set"),
    ("superint.integrals", "sw_extra_integral"),
    ("superint.integrals", "curved_sw_extra_integral"),
    ("superint.integrals", "kc_extra_integral"),
    ("superint.integrals", "curved_kc_extra_integral"),
)
HAMILTONIAN_METHODS = (("core.h_grad", "gradient_qp"), ("core.h_value", "value_qp"))
# Work done per call, read off the result.
COUNTED = {
    "brackets.involution": ("brackets.involution.pairs", lambda table: len(table.pairs)),
    "brackets.rank": ("brackets.rank.points", lambda cert: cert.num_points),
    "brackets.sample": ("brackets.sample.points", len),
}


class Tracer:
    """Spans, per-layer call/busy/self totals and work counters of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self._stack: list[list] = []         # [span index, name, child time]
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._brackets_depth = 0
        self._grad_keys: set = set()
        self._quantity_ids = itertools.count()
        self._integrate: dict | None = None
        self._patches: list = []
        self._built = False

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_op.append(self.op)
        self.s_end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self.s_start.append(time.perf_counter())

    def close(self) -> float:
        end = time.perf_counter()
        idx, name, child = self._stack.pop()
        self.s_end[idx] = end
        dur = end - self.s_start[idx]
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def begin_op(self, op: int, label: str) -> None:
        self.op = op
        self.open(label)

    def end_op(self) -> float:
        return self.close()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, count=None):
        """Span around `fn`; `count` = (counter, result -> work done)."""
        tracer = self
        brackets = name.startswith("brackets.")

        def wrapper(*args, **kwargs):
            tracer._brackets_depth += brackets
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
                tracer._brackets_depth -= brackets
            if count is not None:
                tracer.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def _grad_span(self, name, fn, key=None):
        """Gradient span. Inside a brackets span it also records the
        (quantity, point) pair, to count repeated evaluations; `key` names
        the quantity, or None when the first argument (a HamiltonianSpec)
        does."""
        tracer = self

        def wrapper(*args):
            if tracer._brackets_depth:
                q, p = args[-2:]
                who = key if key is not None else ("h", id(args[0]))
                tracer.counts["brackets.grad_evals"] += 1
                tracer._grad_keys.add((who, q.tobytes(), p.tobytes()))
            ctx = tracer._integrate
            if ctx is not None:
                ctx["grad"] += 1
            tracer.open(name)
            try:
                return fn(*args)
            finally:
                tracer.close()

        return wrapper

    def _value_span(self, name, fn):
        tracer = self

        def wrapper(*args):
            ctx = tracer._integrate
            tracer.open(name)
            try:
                return fn(*args)
            finally:
                dur = tracer.close()
                if ctx is not None:
                    ctx["values"] += 1
                    ctx["value_s"] += dur

        wrapper.bench_layer = name
        return wrapper

    def _wrap_quantity(self, quantity):
        if getattr(quantity.value_fn, "bench_layer", None):  # wrapped already
            return quantity
        return dataclasses.replace(
            quantity,
            value_fn=self._value_span("integrals.value", quantity.value_fn),
            gradient_fn=self._grad_span("integrals.grad", quantity.gradient_fn,
                                        ("q", next(self._quantity_ids))),
        )

    def _wrap_product(self, result):
        if hasattr(result, "value_fn"):
            return self._wrap_quantity(result)
        if hasattr(result, "left") and hasattr(result, "right"):
            return dataclasses.replace(
                result,
                left=tuple(self._wrap_quantity(q) for q in result.left),
                right=tuple(self._wrap_quantity(q) for q in result.right),
            )
        return result

    def _factory(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._wrap_product(fn(*args, **kwargs))

        return wrapper

    def _integrate_span(self, fn):
        inner = self._span("dynamics.integrate", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            outer = tracer._integrate
            ctx = tracer._integrate = {"grad": 0, "values": 0, "value_s": 0.0}
            start = time.perf_counter()
            try:
                traj = inner(*args, **kwargs)
            finally:
                tracer._integrate = outer
            busy = time.perf_counter() - start
            steps = traj.n_states - 1
            c = tracer.counts
            c["dynamics.steps"] += steps
            c["dynamics.monitor_evals"] += ctx["values"]
            c["dynamics.monitor_s"] += ctx["value_s"]
            if getattr(cfg, "method", None) == "gl2":
                c["dynamics.gl2_steps"] += steps
                c["dynamics.gl2_grad_evals"] += ctx["grad"]
                c["dynamics.gl2_step_s"] += busy - ctx["value_s"]
            return traj

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _build(self) -> None:
        """Work out, once, which module attributes to replace and with what."""
        import superint  # noqa: F401  (loads every submodule)
        from superint.core import HamiltonianSpec

        replace: dict[int, tuple] = {}
        for name, module, attr in SPANNED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            if name == "dynamics.integrate":
                new = self._integrate_span(fn)
            else:
                inner = self._factory(fn) if name == "catalog.extra" else fn
                new = self._span(name, inner, COUNTED.get(name))
            replace[id(fn)] = (fn, new)
        for module, attr in QUANTITY_FACTORIES:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None:
                replace[id(fn)] = (fn, self._factory(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "superint" or mod_name.startswith("superint.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))
        for name, method in HAMILTONIAN_METHODS:
            fn = HamiltonianSpec.__dict__.get(method)
            if fn is None:
                continue
            if name == "core.h_grad":
                new = self._grad_span(name, fn)
            else:
                new = self._value_span(name, fn)
            self._patches.append((HamiltonianSpec, method, fn, new))
        self._built = True

    def install(self) -> None:
        if not self._built:
            self._build()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)
        self.counts["brackets.grad_unique"] += len(self._grad_keys)
        self._grad_keys.clear()

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }

    def merge(self, summary: dict, spans: list) -> None:
        """Fold in a child process's summary and spans under the current op."""
        self.calls.update(summary["calls"])
        self.busy.update(summary["busy_s"])
        self.self_time.update(summary["self_s"])
        self.counts.update(summary["counts"])
        base = len(self.s_name)
        parent = self._stack[-1][0] if self._stack else -1
        for name, start, end, par in spans:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            self.s_name.append(nid)
            self.s_start.append(start)
            self.s_end.append(end)
            self.s_parent.append(parent if par < 0 else base + par)
            self.s_op.append(self.op)

    def span_rows(self) -> list:
        return [(self.names[self.s_name[i]], self.s_start[i], self.s_end[i], self.s_parent[i])
                for i in range(len(self.s_name))]

    def write_spans(self, path: Path, origin: float) -> None:
        with open(path, "w") as fh:
            fh.write("span\top\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.s_name)):
                fh.write(f"{i}\t{self.s_op[i]}\t{self.s_parent[i]}\t{self.names[self.s_name[i]]}"
                         f"\t{(self.s_start[i] - origin) * 1e6:.3f}"
                         f"\t{(self.s_end[i] - origin) * 1e6:.3f}\n")
