"""The benchmark's tracer finds the functions it times by name, with
getattr(..., None), so a renamed or deleted function would silently drop
its layer from every traced run; and its workloads call the library by
its public names, so a renamed one would fail every op.  These checks keep
the names both read resolvable in the library."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from superint import sample_regular_points
from superint.core import HamiltonianSpec

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_SPEC = importlib.util.spec_from_file_location("bench_spans", _BENCH / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _superint_names(path):
    """The dotted names the code of `path` reads off the superint package
    (superint.cli.main gives "cli.main", not also "cli")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "superint":
            names.add(".".join(reversed(chain)))
    return sorted(n for n in names if not any(m.startswith(n + ".") for m in names))


WORKLOAD_NAMES = _superint_names(_BENCH / "workloads.py")


@pytest.mark.parametrize("layer,module,attr", spans.SPANNED)
def test_every_spanned_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), layer


@pytest.mark.parametrize("layer,method", spans.HAMILTONIAN_METHODS)
def test_every_traced_hamiltonian_method_resolves(layer, method):
    assert callable(HamiltonianSpec.__dict__.get(method)), layer


def test_sample_points_counter_reads_the_sample_size():
    """`brackets.sample.points` counts len() of each sample drawn."""
    count = spans.COUNTED["brackets.sample"][1]
    for n_points, ndim, seed in ((1, 1, 0), (20, 4, 931), (7, 14, 3)):
        sample = sample_regular_points(n_points, ndim, np.random.default_rng(seed))
        assert count(sample) == len(sample) == n_points


def test_workload_names_are_read_from_the_workloads():
    assert set(WORKLOAD_NAMES) >= {
        "load_config", "build", "universal_set", "energy_quantity", "extra_integral",
        "PhasePoint", "IntegratorConfig", "integrate", "detect_closure", "cli.main"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_public_name_the_workloads_use_resolves(name):
    module, _, attr = f"superint.{name}".rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr, None)), name
