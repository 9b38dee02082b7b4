"""The library's records are plain read-only classes, made without generated
code: importing the CLI runs the dataclass decorator only for the two
classes that `dataclasses.replace` rebuilds, ConservedQuantity and
IntegralSet."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superint import (IntegratorConfig, PhasePoint, SystemDescriptor, Trajectory, build,
                      certify, core, detect_closure, em_fields, integrate, load_config,
                      make_kepler_coulomb)
from superint.brackets import PairResidual
from superint.catalog import FAMILIES
from superint.config import ExperimentConfig
from superint.records import Record

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """
[run]
seed = 5

[system]
family = sw
space = euclidean
n = 3
b_tilde = 0.5 0.25 0.0

[simulation]
x0 = 0.7 0.8 0.9  0.1 -0.2 0.3
t_final = 0.1
step = 0.01
"""


def test_importing_the_cli_makes_only_the_two_replaceable_dataclasses():
    probe = "\n".join([
        "import dataclasses, sys",
        "made, real = [], dataclasses.dataclass",
        "def counted(*args, **kwargs):",
        "    made.append(sys._getframe(1).f_globals['__name__'])",
        "    return real(*args, **kwargs)",
        "dataclasses.dataclass = counted",
        "import superint.cli",
        "print(' '.join(made))",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["superint.core", "superint.integrals"]


def every_record(tmp_path):
    """One instance of each record class, made as the library makes them."""
    cfg_path = tmp_path / "sw.cfg"
    cfg_path.write_text(CONFIG)
    cfg = load_config(cfg_path)
    spec = build(cfg.descriptor)
    cert = certify(cfg.descriptor, cfg.verification, extra_axes=[0], rng=1)
    sim = cfg.simulation
    x0 = PhasePoint(sim.x0[:3], sim.x0[3:])
    traj = integrate(spec, x0, 6.0, IntegratorConfig(step=0.01))
    kc = make_kepler_coulomb("euclidean", mass=1.0, k=1.0, b_tilde=[0.5, 0.25, 0.0])
    fields = em_fields([0.3, -0.5, 0.8], scalar_profile=lambda x: x, vector_profile=lambda x: x,
                       b_tilde=[0.0, 0.0, 0.0])
    return [cfg, cfg.verification, sim, cfg.descriptor, spec, spec.realization, cert,
            cert.table, cert.table.pairs[0], cert.independence, cert.extras[0], x0, traj,
            IntegratorConfig(), detect_closure(traj, 1e-3), kc.guards[0], FAMILIES["sw"],
            fields]


def test_records_are_read_only_and_keep_no_instance_dict(tmp_path):
    records = every_record(tmp_path)
    assert len({type(r) for r in records}) == len(records) == 18
    for record in records:
        assert isinstance(record, Record)
        for name in type(record).__slots__:
            if name == "__dict__":
                continue
            value = getattr(record, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.unknown = 1
        # only HamiltonianSpec has an instance dict, for its cached kernel
        assert hasattr(record, "__dict__") == (type(record) is core.HamiltonianSpec)


def test_records_compare_hash_and_print_their_shown_fields(tmp_path):
    a, b = PairResidual("H", "C^2", 1.5, 2e-16), PairResidual("H", "C^2", 1.5, 2e-16)
    assert a == b and hash(a) == hash(b) and a != PairResidual("H", "C^3", 1.5, 2e-16)
    assert a != ("H", "C^2", 1.5, 2e-16)
    assert repr(a) == "PairResidual(name_a='H', name_b='C^2', max_raw=1.5, max_normalized=2e-16)"
    realization = core.SL2Realization([0.5, 0.0])
    assert repr(realization) == "SL2Realization(b=array([0.5, 0. ]))"
    # a table's sample and tensor are neither compared nor shown
    cert = every_record(tmp_path)[6]
    table = cert.table
    other = type(table)(table.pairs, table.samples, table.tolerance)
    assert table == other and hash(table) == hash(other)
    assert "points" not in repr(table) and "gradients" not in repr(table)


def test_mutable_defaults_are_not_shared():
    t = np.zeros(2)
    one, two = Trajectory(t, t, t), Trajectory(t, t, t)
    assert one.monitors == two.monitors == {} and one.monitors is not two.monitors
    assert one.drift == two.drift == {} and one.drift is not two.drift
    d1 = SystemDescriptor("sw", "euclidean", {}, [0.5])
    d2 = SystemDescriptor("sw", "euclidean", {}, [0.5])
    assert d1.profiles == {} and d1.profiles is not d2.profiles
    c1, c2 = ExperimentConfig(d1), ExperimentConfig(d2)
    assert c1.verification == c2.verification and c1.verification is not c2.verification


def test_a_spec_derives_its_gradient_kernel_once(monkeypatch):
    taped = []
    derive = core.derive
    monkeypatch.setattr(core, "derive", lambda h: taped.append(h) or derive(h))
    spec = make_kepler_coulomb("beltrami", mass=1.0, k=1.0, b_tilde=[0.5, 0.25, 0.0], kappa=0.3)
    q, p = [0.3, -0.2, 0.25], [0.1, 0.4, -0.3]
    first = spec.gradient_qp(q, p)
    assert spec.gradient_qp(q, p) == first
    spec.gradient_qp(np.array([q, q]), np.array([p, p]))
    assert taped == [spec.h] and spec._gradient_at is spec._gradient_at
    assert "_gradient_at" in vars(spec)
