"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS lines.
"""

import time

import numpy as np
import pytest

from superint import (
    PhasePoint,
    IntegratorConfig,
    SystemDescriptor,
    centrifugal_ambient,
    certify,
    chart_to_ambient,
    ambient_to_chart,
    conjugate_momenta,
    detect_closure,
    energy_quantity,
    extra_integral,
    geodesic_distance,
    independence_rank,
    integrate,
    involution_table,
    kc_extra_integral,
    make_electromagnetic,
    make_evans,
    make_garnier,
    make_kepler_coulomb,
    make_nonlinear_oscillator,
    make_sw,
    make_variable_mass,
    max_bracket_residual,
    poincare_to_beltrami,
    poly_profile,
    sample_for_spec,
    sample_regular_points,
    universal_set,
)
from superint.geometry import free_lagrangian
from conftest import split

SEED = 20240917


def report(num, ok, detail):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def catalog_instances(rng):
    """Twelve systems: flat and curved, N in {2, 3, 4, 6}, random barriers."""
    def bt(n):
        return rng.uniform(0.1, 1.0, n)

    f_pot = poly_profile([0.0, 0.3, 0.0, 0.1])
    f_sc = poly_profile([0.0, 0.0, 1.0])
    g_vec = poly_profile([0.0, 0.3])
    return [
        make_sw("euclidean", mass=1.2, omega=0.9, b_tilde=bt(2)),
        make_garnier("euclidean", mass=1.0, omega=1.1, delta=0.3, b_tilde=bt(3)),
        make_kepler_coulomb("euclidean", mass=1.0, k=0.8, b_tilde=bt(4)),
        make_electromagnetic(mass=1.1, charge=0.7,
                             scalar_profile=f_sc, vector_profile=g_vec, b_tilde=bt(6)),
        make_variable_mass(mass_profile=lambda s: 1.0 + 0.5 * s,
                           potential=lambda s: 0.4 * s,
                           b=bt(3)),
        make_evans("euclidean", f_pot, mass=1.3, b_tilde=bt(4)),
        make_sw("beltrami", mass=1.0, omega=0.8, b_tilde=bt(4), kappa=1.0),
        make_sw("poincare", mass=1.1, omega=1.0, b_tilde=bt(3), kappa=-0.5),
        make_kepler_coulomb("beltrami", mass=1.0, k=1.2, b_tilde=bt(6), kappa=-0.5),
        make_kepler_coulomb("poincare", mass=1.0, k=0.9, b_tilde=bt(2), kappa=1.0),
        make_garnier("beltrami", mass=0.9, omega=1.0, delta=0.2, b_tilde=bt(4),
                     kappa=0.7),
        make_nonlinear_oscillator("poincare", mass=1.0, omega=0.9,
                                  deltas=(0.2, 0.05), b_tilde=bt(3), kappa=-0.5),
    ]


@pytest.fixture(scope="module")
def involution_tables():
    rng = np.random.default_rng(SEED)
    specs = catalog_instances(rng)
    start = time.perf_counter()
    tables = [
        (spec, involution_table(spec, universal_set(spec.realization), 20,
                                rng=rng, tolerance=1e-9))
        for spec in specs
    ]
    elapsed = time.perf_counter() - start
    return tables, elapsed


def test_c01_universal_commutation(involution_tables):
    tables, elapsed = involution_tables
    worst = 0.0
    for spec, table in tables:
        for pair in table.pairs:
            if "H" in (pair.name_a, pair.name_b):
                worst = max(worst, pair.max_normalized)
    ok = worst < 1e-9 and len(tables) >= 10 and elapsed < 10.0
    report(1, ok,
           f"{len(tables)} systems, worst {{H, C}} residual {worst:.2e} "
           f"(tol 1e-9), runtime {elapsed:.2f}s (< 10s)")


def test_c02_family_involution(involution_tables):
    tables, _ = involution_tables
    worst = 0.0
    for spec, table in tables:
        for pair in table.pairs:
            if "H" not in (pair.name_a, pair.name_b):
                worst = max(worst, pair.max_normalized)
    report(2, worst < 1e-9,
           f"worst within-family residual {worst:.2e} (tol 1e-9)")


def test_c03_universal_independence():
    rng = np.random.default_rng(SEED + 3)
    ranks = {}
    for n in (3, 4, 6):
        spec = make_sw("euclidean", mass=1.0, omega=0.9,
                       b_tilde=rng.uniform(0.1, 1.0, n))
        functions = [energy_quantity(spec), *universal_set(spec.realization).all]
        cert = independence_rank(functions, sample_regular_points(20, n, rng),
                                 rank_tolerance=1e-8)
        ranks[n] = (cert.numerical_rank, 2 * n - 2)
    ok = all(got == want for got, want in ranks.values())
    report(3, ok, f"rank(H + universal) = {ranks} (want 2N-2)")


def test_c04_oscillator_maximal_superintegrability():
    rng = np.random.default_rng(SEED + 4)
    n = 3
    bt = rng.uniform(0.1, 0.8, n)
    mass, omega = 1.2, 0.9
    worst_bracket = 0.0
    rank_ok = True
    identity_worst = None
    for space, kappa in (("euclidean", 0.0), ("poincare", 1.0), ("beltrami", 1.0),
                         ("poincare", -0.5), ("beltrami", -0.5)):
        desc = SystemDescriptor("sw", space, {"mass": mass, "omega": omega, "kappa": kappa}, bt)
        cert = certify(desc, extra_axes=range(n), rng=rng)
        worst_bracket = max(worst_bracket, *(e.max_normalized for e in cert.extras))
        rank_ok &= [e.rank for e in cert.extras] == [2 * n - 1] * n
        if space == "euclidean":
            identity_worst = cert.identity_residual

    ok = worst_bracket < 1e-9 and rank_ok and identity_worst < 1e-12
    report(4, ok,
           f"rank rises to 2N-1: {rank_ok}; worst {{H, I}} residual "
           f"{worst_bracket:.2e} (tol 1e-9); sum identity (2mH) residual "
           f"{identity_worst:.2e} (tol 1e-12)")


def test_c05_coulomb_conditional_superintegrability():
    rng = np.random.default_rng(SEED + 5)
    n = 3
    bt_good = np.array([0.0, 0.6, 0.4])
    bt_bad = np.array([0.5, 0.6, 0.4])
    mass, k = 1.0, 1.1
    conserved_worst = 0.0

    flat = make_kepler_coulomb("euclidean", mass=mass, k=k, b_tilde=bt_good)
    pts = sample_for_spec(flat, 20, rng)
    _, norm = max_bracket_residual(
        energy_quantity(flat),
        kc_extra_integral(0, mass=mass, k=k, b_tilde=bt_good), pts)
    conserved_worst = max(conserved_worst, norm)
    for chart in ("poincare", "beltrami"):
        for kappa in (0.5, -0.5):
            spec = make_kepler_coulomb(chart, mass=mass, k=k, b_tilde=bt_good,
                                       kappa=kappa)
            pts_c = sample_for_spec(spec, 20, rng)
            extra = kc_extra_integral(0, mass=mass, k=k, b_tilde=bt_good,
                                      kappa=kappa, space=chart)
            _, norm = max_bracket_residual(energy_quantity(spec), extra, pts_c)
            conserved_worst = max(conserved_worst, norm)

    bad_spec = make_kepler_coulomb("euclidean", mass=mass, k=k, b_tilde=bt_bad)
    # L_1 never reads bt_1, so with bt_1 zeroed it is the mutant's L_1
    bad_quantity = kc_extra_integral(0, mass=mass, k=k, b_tilde=[0.0, *bt_bad[1:]])
    _, mutation = max_bracket_residual(
        energy_quantity(bad_spec), bad_quantity, sample_for_spec(bad_spec, 20, rng))

    ok = conserved_worst < 1e-9 and mutation > 1e-3
    report(5, ok,
           f"conserved residual {conserved_worst:.2e} (tol 1e-9) with bt_1 = 0; "
           f"mutation residual {mutation:.2e} (> 1e-3) with bt_1 != 0")


def test_c06_geometry_coherence():
    rng = np.random.default_rng(SEED + 6)
    worst_constraint = worst_roundtrip = worst_distance = 0.0
    worst_centrifugal = 0.0
    bt = np.array([0.8, 0.0, 1.3])
    for kappa in (0.7, -0.7):
        count = 0
        while count < 100:
            coords = rng.uniform(-1.0, 1.0, 3)
            c2 = float(coords @ coords)
            if c2 > 0.6 / abs(kappa) or np.any(np.abs(coords[bt != 0.0]) < 0.05):
                continue
            count += 1
            for chart in ("poincare", "beltrami"):
                x0, x = chart_to_ambient(chart, kappa, coords)
                worst_constraint = max(
                    worst_constraint,
                    abs(x0 ** 2 + kappa * float(x @ x) - 1.0))
                back = ambient_to_chart(chart, kappa, x0, x)
                worst_roundtrip = max(
                    worst_roundtrip, float(np.max(np.abs(back - coords))))
                one = 1.0 + kappa * c2
                if chart == "poincare":
                    chart_sum = float(np.sum(
                        bt[bt != 0.0] * one ** 2 / (2.0 * coords[bt != 0.0] ** 2)))
                else:
                    chart_sum = float(np.sum(
                        bt[bt != 0.0] * one / (2.0 * coords[bt != 0.0] ** 2)))
                ambient_sum = centrifugal_ambient(bt, x, chart)
                worst_centrifugal = max(
                    worst_centrifugal,
                    abs(chart_sum - ambient_sum) / max(1.0, abs(chart_sum)))
            x0, x = chart_to_ambient("beltrami", kappa, coords)
            r_b = geodesic_distance(coords, kappa)
            r_a = geodesic_distance(ambient_to_chart("beltrami", kappa, x0, x), kappa)
            y = ambient_to_chart("poincare", kappa, x0, x)
            r_p = geodesic_distance(poincare_to_beltrami(y, kappa), kappa)
            worst_distance = max(worst_distance, abs(r_b - r_a), abs(r_b - r_p))
    ok = (worst_constraint < 1e-12 and worst_roundtrip < 1e-12
          and worst_distance < 1e-12 and worst_centrifugal < 1e-10)
    report(6, ok,
           f"constraint {worst_constraint:.1e}, round-trip {worst_roundtrip:.1e}, "
           f"distance {worst_distance:.1e} (tol 1e-12); "
           f"ambient centrifugal {worst_centrifugal:.1e} (tol 1e-10)")


def test_c07_legendre_consistency():
    rng = np.random.default_rng(SEED + 7)
    mass = 1.3
    worst = 0.0
    for kappa in (0.7, -0.7):
        for chart in ("poincare", "beltrami"):
            # the kinetic term every catalog Hamiltonian uses
            kinetic_spec = make_evans(chart, lambda s: 0.0, mass=mass,
                                      b_tilde=np.zeros(3), kappa=kappa)
            count = 0
            while count < 100:
                pos = rng.uniform(-1.0, 1.0, 3)
                if float(pos @ pos) > 0.6 / abs(kappa):
                    continue
                count += 1
                vel = rng.uniform(-1.5, 1.5, 3)
                momenta = conjugate_momenta(chart, kappa, mass, pos, vel)
                kinetic = kinetic_spec.value_qp(pos, momenta)
                lagrangian = free_lagrangian(chart, kappa, mass, pos, vel)
                worst = max(worst, abs(kinetic - lagrangian) / max(1.0, abs(lagrangian)))
    report(7, worst < 1e-10, f"worst Legendre mismatch {worst:.2e} (tol 1e-10)")


def test_c08_dynamics_conservation():
    runs = [
        ("flat oscillator",
         make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.5, 0.3, 0.0]),
         PhasePoint([0.8, 0.7, 0.6], [0.2, -0.3, 0.4])),
        ("curved oscillator k=+0.5",
         make_sw("beltrami", mass=1.0, omega=1.0, b_tilde=[0.4, 0.0, 0.3],
                 kappa=0.5),
         PhasePoint([0.6, 0.5, 0.4], [0.2, -0.4, 0.3])),
        ("curved oscillator k=-0.5",
         make_sw("beltrami", mass=1.0, omega=1.0, b_tilde=[0.15, 0.0, 0.1],
                 kappa=-0.5),
         PhasePoint([0.6, 0.5, 0.4], [0.2, -0.2, 0.2])),
        ("curved coulomb",
         make_kepler_coulomb("beltrami", mass=1.0, k=1.5,
                             b_tilde=[0.0, 0.15, 0.1], kappa=0.5),
         PhasePoint([0.5, 0.45, 0.4], [0.25, -0.25, 0.3])),
    ]
    drifts = {}
    for label, spec, x0 in runs:
        uni = universal_set(spec.realization)
        traj = integrate(spec, x0, 50.0, IntegratorConfig(step=1e-3),
                         monitors=list(uni.all))
        drifts[label] = max(traj.drift.values())
    worst = max(drifts.values())
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in drifts.items())
    report(8, worst < 1e-8, f"universal drift over t=50 (tol 1e-8): {detail}")


def test_c09_closure_separates_ms_from_qms():
    ms_distances = []
    sw = make_sw("euclidean", mass=1.0, omega=1.0, b_tilde=[0.5, 0.3, 0.0])
    traj = integrate(sw, PhasePoint([0.8, 0.7, 0.6], [0.2, -0.3, 0.4]), 10.0,
                     IntegratorConfig(step=2e-3))
    sw_report = detect_closure(traj, 1e-5)
    ms_distances.append(sw_report.closure_distance)
    for kappa in (0.5, -0.5):
        kc = make_kepler_coulomb("beltrami", mass=1.0, k=1.0,
                                 b_tilde=[0.0, 0.0], kappa=kappa)
        traj = integrate(kc, PhasePoint([0.5, 0.0], [0.0, 0.8]), 6.0,
                         IntegratorConfig(step=2e-3))
        kc_report = detect_closure(traj, 1e-5)
        ms_distances.append(kc_report.closure_distance)
        assert kc_report.is_closed

    garnier = make_garnier("euclidean", mass=1.0, omega=1.0, delta=0.25,
                           b_tilde=[0.3, 0.2])
    traj = integrate(garnier, PhasePoint([0.9, 0.4], [0.2, -0.6]), 200.0,
                     IntegratorConfig(step=5e-3))
    garnier_report = detect_closure(traj, 1e-5)

    ms_worst = max(ms_distances)
    ok = (sw_report.is_closed and not garnier_report.is_closed
          and ms_worst < 1e-2 * garnier_report.closure_distance)
    report(9, ok,
           f"MS closure distances <= {ms_worst:.1e} (closed at 1e-5); generic "
           f"quartic orbit min distance {garnier_report.closure_distance:.1e} "
           f"over t=200 (not closed)")


def test_c10_flat_limits():
    rng = np.random.default_rng(SEED + 10)
    bt = [0.5, 0.0, 0.8]
    f = poly_profile([0.0, 0.4, 0.1])
    pairs = [
        (make_sw("beltrami", mass=1.1, omega=0.9, b_tilde=bt, kappa=0.0),
         make_sw("euclidean", mass=1.1, omega=0.9, b_tilde=bt),
         make_sw("beltrami", mass=1.1, omega=0.9, b_tilde=bt, kappa=1e-6)),
        (make_garnier("beltrami", mass=1.0, omega=0.7, delta=0.4, b_tilde=bt,
                      kappa=0.0),
         make_garnier("euclidean", mass=1.0, omega=0.7, delta=0.4, b_tilde=bt),
         make_garnier("beltrami", mass=1.0, omega=0.7, delta=0.4, b_tilde=bt,
                      kappa=1e-6)),
        (make_kepler_coulomb("beltrami", mass=1.0, k=0.8, b_tilde=bt, kappa=0.0),
         make_kepler_coulomb("euclidean", mass=1.0, k=0.8, b_tilde=bt),
         make_kepler_coulomb("beltrami", mass=1.0, k=0.8, b_tilde=bt, kappa=1e-6)),
        (make_evans("beltrami", f, mass=1.2, b_tilde=bt, kappa=0.0),
         make_evans("euclidean", f, mass=1.2, b_tilde=bt),
         make_evans("beltrami", f, mass=1.2, b_tilde=bt, kappa=1e-6)),
    ]
    exact = True
    worst_near = 0.0
    q, p = split(sample_regular_points(20, 3, rng))
    for zero_kappa, flat, near_flat in pairs:
        v_flat = flat.value_qp(q, p)
        exact &= np.array_equal(zero_kappa.value_qp(q, p), v_flat)
        gq_a, gp_a = zero_kappa.gradient_qp(q, p)
        gq_b, gp_b = flat.gradient_qp(q, p)
        exact &= np.array_equal(gq_a, gq_b) and np.array_equal(gp_a, gp_b)
        near = np.abs(near_flat.value_qp(q, p) - v_flat) / np.maximum(1.0, np.abs(v_flat))
        worst_near = max(worst_near, float(near.max()))
    ok = exact and worst_near < 1e-4
    report(10, ok,
           f"kappa=0 equals flat exactly: {exact}; kappa=1e-6 relative "
           f"difference {worst_near:.1e} (tol 1e-4)")
