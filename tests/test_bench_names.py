"""The benchmark's tracer finds the functions it times by name, with
getattr(..., None), so a renamed or deleted function would silently drop
its layer from every traced run.  These checks keep the names it reads
resolvable in the library."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from superint import sample_regular_points
from superint.core import HamiltonianSpec

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


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
