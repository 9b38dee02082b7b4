import numpy as np
import pytest

from superint.cli import main

SW_N4 = """
[run]
seed = 77

[system]
family = sw
space = euclidean
n = 4
mass = 1.0
omega = 1.0
b_tilde = 0.5 0.25 1.0 0.0
extra_integrals = 1

[verification]
sample_points = 20

[simulation]
x0 = 0.7 0.8 0.9 1.0  0.1 -0.2 0.3 -0.4
t_final = 1.0
step = 0.001
monitors = energy universal extras
output_stride = 50
"""

GARNIER_N3 = """
[system]
family = garnier
space = beltrami
n = 3
mass = 1.0
omega = 0.9
delta = 0.2
kappa = -0.5
b_tilde = 0.4 0.1 0.3
"""

KC_BAD = """
[system]
family = kepler_coulomb
space = euclidean
n = 3
mass = 1.0
k = 1.0
b_tilde = 0.5 0.0 0.2
extra_integrals = 1
"""

KC_CLOSED = """
[run]
seed = 3

[system]
family = kepler_coulomb
space = beltrami
n = 2
mass = 1.0
k = 1.0
kappa = -0.5
b_tilde = 0.0 0.0

[simulation]
x0 = 0.5 0.0 0.0 0.8
t_final = 6.0
step = 0.002
monitors = energy
closure_tol = 1e-5
output_stride = 10
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_verify_oscillator_passes(tmp_path, capsys):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    code = main(["--out", str(tmp_path), "verify", str(cfg)])
    assert code == 0
    report = (tmp_path / "sw_n4.report.txt").read_text()
    assert "rank = 6" in report
    assert "rank_with I_1 = 7 (ceiling 7)" in report
    assert "maximally superintegrable" in report
    assert "pass = true" in report


def test_verify_is_deterministic(tmp_path):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out_a), "verify", str(cfg)]) == 0
    assert main(["--out", str(out_b), "verify", str(cfg)]) == 0
    assert (out_a / "sw_n4.report.txt").read_bytes() \
        == (out_b / "sw_n4.report.txt").read_bytes()


def test_verify_sample_size_is_not_capped(tmp_path):
    cfg = write(tmp_path, "sw_n4.cfg",
                SW_N4.replace("sample_points = 20", "sample_points = 1001"))
    assert main(["--out", str(tmp_path), "verify", str(cfg)]) == 0
    report = (tmp_path / "sw_n4.report.txt").read_text()
    assert "samples = 1001" in report and "pass = true" in report


def test_verify_weak_superintegrable_label(tmp_path):
    cfg = write(tmp_path, "garnier_n3.cfg", GARNIER_N3)
    assert main(["--out", str(tmp_path), "verify", str(cfg)]) == 0
    report = (tmp_path / "garnier_n3.report.txt").read_text()
    assert "universal_integrals = 3" in report
    assert "weak" in report


def test_verify_rejects_invalid_extra_request(tmp_path, capsys):
    cfg = write(tmp_path, "kc_bad.cfg", KC_BAD)
    code = main(["--out", str(tmp_path), "verify", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_repeated_extra_sites_are_a_config_error(tmp_path, capsys):
    # trajectory series are keyed by name: I_1 twice would print one drift line
    cfg = write(tmp_path, "sw_twice.cfg",
                SW_N4.replace("extra_integrals = 1", "extra_integrals = 1 1"))
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 2
    assert "sites must be distinct and in [1, 4], got [1, 1]" in capsys.readouterr().err


def test_verify_missing_config(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "verify", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_verify_unknown_key_rejected(tmp_path):
    cfg = write(tmp_path, "bad.cfg", SW_N4 + "\n[system]\nturbo = 1\n")
    assert main(["--out", str(tmp_path), "verify", str(cfg)]) == 2


def test_simulate_emits_drift_footer(tmp_path):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 0
    lines = (tmp_path / "sw_n4.traj.txt").read_text().splitlines()
    header = [l for l in lines if l.startswith("# columns:")]
    assert header and header[0].split()[2:] == (
        ["t"] + [f"q{i}" for i in range(1, 5)] + [f"p{i}" for i in range(1, 5)]
        + ["H", "C^2", "C^3", "C^4", "C_2", "C_3", "I_1"]
    )
    drift = [l for l in lines if l.startswith("# max_normalized_drift")]
    assert drift and float(drift[0].split("=")[1]) < 1e-8


@pytest.mark.parametrize("method", ["gl2", "rk4"])
def test_simulate_prints_the_run_statistics(tmp_path, method):
    # the stage evaluations and (GL2) the most sweeps of a step, as the
    # library's trajectory counts them, follow the drift footer
    from superint import IntegratorConfig, PhasePoint, build, integrate
    from superint.config import load_config

    text = SW_N4 + f"method = {method}\n"
    cfg = write(tmp_path, "stats.cfg", text)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 0
    lines = (tmp_path / "stats.traj.txt").read_text().splitlines()
    loaded = load_config(cfg)
    x0 = np.array(loaded.simulation.x0)
    traj = integrate(build(loaded.descriptor), PhasePoint(x0[:4], x0[4:]), 1.0,
                     IntegratorConfig(method=method, step=0.001))
    stats = [f"# stage_evaluations = {traj.stage_evaluations}"]
    if method == "gl2":
        stats.append(f"# max_sweeps = {traj.max_sweeps}")
    else:
        assert traj.stage_evaluations == 4000
    start = next(i for i, line in enumerate(lines) if line.startswith("# max_normalized_drift"))
    assert lines[start + 1:] == stats


def test_trajectory_rows_round_trip(tmp_path):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 0
    for line in (tmp_path / "sw_n4.traj.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        for token in line.split():
            assert repr(float(token)) == token


def test_hex_floats_round_trip(tmp_path):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    assert main(["--out", str(tmp_path), "simulate", str(cfg), "--hex-floats"]) == 0
    rows = [l for l in (tmp_path / "sw_n4.traj.txt").read_text().splitlines()
            if not l.startswith("#")]
    for token in rows[0].split():
        assert float.fromhex(token.strip()) == float.fromhex(token)


def test_simulate_zero_length(tmp_path):
    text = SW_N4.replace("t_final = 1.0", "t_final = 0.0")
    cfg = write(tmp_path, "zero.cfg", text)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 0
    rows = [l for l in (tmp_path / "zero.traj.txt").read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) == 1
    assert rows[0].split()[0] == "0.0"


def test_simulate_reports_closure(tmp_path):
    cfg = write(tmp_path, "kc_closed.cfg", KC_CLOSED)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 0
    text = (tmp_path / "kc_closed.traj.txt").read_text()
    assert "# closure is_closed = true" in text
    assert "# closure period_estimate" in text


def test_simulate_requires_simulation_section(tmp_path):
    cfg = write(tmp_path, "garnier_n3.cfg", GARNIER_N3)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 2


def test_simulate_halts_on_singularity(tmp_path, capsys):
    text = KC_CLOSED.replace("x0 = 0.5 0.0 0.0 0.8", "x0 = 0.5 0.0 -2.0 0.0") \
        .replace("step = 0.002", "step = 0.0001")
    cfg = write(tmp_path, "infall.cfg", text)
    code = main(["--out", str(tmp_path), "simulate", str(cfg)])
    assert code == 1
    assert "halted" in (tmp_path / "infall.traj.txt").read_text()


def test_simulate_start_inside_the_guard_radius_writes_one_row(tmp_path, capsys):
    text = """
[system]
family = sw
n = 2
b_tilde = 0.4 0.0

[simulation]
x0 = 5e-7 0.8 0.3 -0.2
t_final = 1.0
step = 0.001
"""
    cfg = write(tmp_path, "at_barrier.cfg", text)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 1
    assert "HALTED: coordinate-plane barrier reached at t = 0" in capsys.readouterr().err
    lines = (tmp_path / "at_barrier.traj.txt").read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) == 1 and rows[0].startswith("0.0 5e-07 0.8 0.3 -0.2 ")
    assert "# halted = coordinate-plane barrier reached at t = 0" in lines


def test_simulate_rejects_partial_last_step(tmp_path, capsys):
    # 1.0 / 0.3 steps would end the grid at t = 1.2.
    text = SW_N4.replace("step = 0.001", "step = 0.3")
    cfg = write(tmp_path, "overrun.cfg", text)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not (tmp_path / "overrun.traj.txt").exists()


def test_simulate_keeps_partial_run_on_nonconvergence(tmp_path, capsys):
    # a step of 10 is far too large for the stage fixed point to converge
    text = SW_N4.replace("step = 0.001", "step = 10.0").replace(
        "t_final = 1.0", "t_final = 100.0")
    cfg = write(tmp_path, "diverge.cfg", text)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 1
    assert "HALTED: stage fixed point did not reach" in capsys.readouterr().err
    lines = (tmp_path / "diverge.traj.txt").read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) == 1 and rows[0].startswith("0.0 0.7 0.8 0.9 1.0 ")
    assert "# halted = stage fixed point did not reach 1e-13 in 100 iterations" in lines
    assert "# stage_evaluations = 201" in lines and "# max_sweeps = 0" in lines


def test_simulate_keeps_partial_run_on_overflowing_stages(tmp_path, capsys):
    text = """
[system]
family = evans
space = poincare
n = 3
mass = 1.1
kappa = 0.5
b_tilde = 0.4 0.0 0.3
potential = 0.0 0.3 -0.05

[simulation]
x0 = -0.40236939 0.45487338 -0.71516123 2.17675398 -1.3716822 -1.51551398
t_final = 0.2
step = 0.002
"""
    cfg = write(tmp_path, "overflow.cfg", text)
    with np.errstate(all="ignore"):
        assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 1
    assert "HALTED: stage evaluation overflowed" in capsys.readouterr().err
    lines = (tmp_path / "overflow.traj.txt").read_text().splitlines()
    assert any(line.startswith("# halted = stage evaluation overflowed") for line in lines)


def test_simulate_rejects_more_steps_than_a_trajectory_can_store(tmp_path, capsys):
    # 1e21 steps: numpy refuses the array's shape without allocating it
    cfg = write(tmp_path, "long.cfg", SW_N4.replace("t_final = 1.0", "t_final = 1e18"))
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 1000000000000000000000 steps of 0.001 are more than")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "long.traj.txt").exists()


def test_verify_rejects_a_sample_too_large_to_store(tmp_path, capsys):
    # 1e30 points: numpy refuses the sample's shape without allocating it
    cfg = write(tmp_path, "huge.cfg", SW_N4.replace("sample_points = 20", "sample_points = 1e30"))
    assert main(["--out", str(tmp_path), "verify", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: 1000000000000000019884624838656 points are more sample points "
                   "than can be stored\n")
    assert not (tmp_path / "huge.report.txt").exists()


@pytest.mark.parametrize("value", ["50%", "5%%0"])
def test_percent_in_a_value_is_literal(tmp_path, capsys, value):
    """A `%` is not interpolation: each value is read as written and fails as
    a number."""
    cfg = write(tmp_path, "pct.cfg", SW_N4.replace("omega = 1.0", f"omega = {value}"))
    assert main(["--out", str(tmp_path), "verify", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: omega: expected floats, got {value!r}\n"
    assert not (tmp_path / "pct.report.txt").exists()


@pytest.mark.parametrize("old, new", [
    ("step = 0.001", "step = inf"),
    ("step = 0.001", "step = nan"),
    ("output_stride = 50", "output_stride = 50\nfixed_point_tol = inf"),
    ("output_stride = 50", "output_stride = 50\nfixed_point_tol = nan"),
    ("output_stride = 50", "output_stride = 50\nclosure_tol = nan"),
    ("omega = 1.0", "omega = inf"),
    ("n = 4", "n = inf"),
    ("seed = 77", "seed = nan"),
    ("x0 = 0.7", "x0 = nan"),
])
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, old, new):
    cfg = write(tmp_path, "bad.cfg", SW_N4.replace(old, new))
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 2
    key = new.splitlines()[-1].split(" = ")[0]
    assert f"config error: {key}: expected finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "bad.traj.txt").exists()


@pytest.mark.parametrize("key", ["step", "fixed_point_tol"])
def test_simulate_rejects_non_positive_step_and_tolerance(tmp_path, capsys, key):
    if key == "step":
        text = SW_N4.replace("step = 0.001", "step = 0.0")
    else:
        text = SW_N4 + "fixed_point_tol = -1e-13\n"
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["--out", str(tmp_path), "simulate", str(cfg)]) == 2
    assert f"{key} must be positive" in capsys.readouterr().err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["--out", str(blocker / "sub"), "verify", str(cfg)]) == 2
    assert "error: cannot write output:" in capsys.readouterr().err


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    target = tmp_path / "from_env"
    target.mkdir()
    monkeypatch.setenv("SUPERINT_OUT", str(target))
    assert main(["verify", str(cfg)]) == 0
    assert (target / "sw_n4.report.txt").is_file()


def test_seed_override_changes_report(tmp_path):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out_a), "verify", str(cfg)]) == 0
    assert main(["--out", str(out_b), "--seed", "99", "verify", str(cfg)]) == 0
    text_a = (out_a / "sw_n4.report.txt").read_text()
    text_b = (out_b / "sw_n4.report.txt").read_text()
    assert "seed = 77" in text_a
    assert "seed = 99" in text_b
    assert text_a != text_b


def test_negative_config_seed_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "neg.cfg", SW_N4.replace("seed = 77", "seed = -3"))
    assert main(["--out", str(tmp_path), "verify", str(cfg)]) == 2
    assert "config error: seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "neg.report.txt").exists()


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--seed", "-1", "verify", str(cfg)])
    assert exc.value.code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "sw_n4.report.txt").exists()


def test_successive_in_process_calls_parse_independently(tmp_path, capsys):
    # the parser is built once per process; no flag of one call leaks into
    # the next, and a usage error in between changes nothing
    from superint.cli import _parser

    cfg = write(tmp_path, "sw_n4.cfg", SW_N4)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["--out", str(out_a), "--seed", "99", "verify", "--hex-floats", str(cfg)]) == 0
    assert main(["--out", str(out_b), "simulate", str(cfg)]) == 0
    assert _parser() is _parser()
    report = (out_a / "sw_n4.report.txt").read_text()
    assert "seed = 99" in report and "tolerance = 0x" in report
    traj = (out_b / "sw_n4.traj.txt").read_text()
    assert "# seed = 77" in traj and "0x" not in traj
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out_c), "--seed", "-1", "verify", str(cfg)])
    assert exc.value.code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert main(["--out", str(out_c), "verify", str(cfg)]) == 0
    assert "seed = 77" in (out_c / "sw_n4.report.txt").read_text()
    assert main(["catalog"]) == 0


def test_catalog_lists_all_families(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for family in ("evans", "sw", "garnier", "oscillator", "kepler_coulomb",
                   "electromagnetic", "variable_mass"):
        assert f"\n{family}\n" in out or out.startswith(f"{family}\n")
    assert "at least one bt_i = 0" in out
    assert "N extra integrals I_1..I_N" in out
