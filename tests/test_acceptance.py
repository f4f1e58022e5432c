"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest
from scipy.special import jv

from blochdyn import (
    BlockSpec,
    WavePacket,
    band_structure,
    build_operator,
    check_ballistic_limit,
    check_derivative_identity,
    corollary_probe,
    localization_diagnostic,
    moment_trajectory,
    q_norm,
    scalar_spec,
    transport_exponents,
)
from blochdyn.limitperiodic import dt_criterion, generic_builder, growth_certificate, thouless_check
from blochdyn.xychain import (
    SpinChain,
    XYChainSpec,
    free_fermion_residual,
    lr_velocity_bound,
    propagation_lower_bound,
    propagation_upper_bound,
    single_particle_matrix,
)

ANISO = XYChainSpec(mu=[1.0], gamma=[0.5], nu=[1.0])


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} [{name}] {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def free_laplacian():
    return build_operator(scalar_spec([0.0]))


def period2(v):
    return build_operator(scalar_spec([v, -v]))


def test_c01_free_ballistic_speed():
    v_free = q_norm(free_laplacian())
    doubled = build_operator(BlockSpec(m=1, q=2, a=np.ones((2, 1, 1)),
                                       b=np.zeros((2, 1, 1))))
    v_doubled = q_norm(doubled)
    ok = abs(v_free - 2.0) < 1e-9 and abs(v_doubled - v_free) < 1e-8
    report(1, "free-Laplacian speed", ok,
           f"q_norm={v_free:.12f}, period-2 deviation={abs(v_doubled - v_free):.2e}")


def test_c02_hellmann_feynman():
    # 4th-order central differences of the matched bands vs <v, A v>/q at
    # every interior point, the crossings on grid points of [0.3, -0.3] x 2
    # and [0] x 4 included
    specs = [free_laplacian(), period2(0.5), period2(1.0),
             single_particle_matrix(XYChainSpec(mu=[1.0], gamma=[0.0], nu=[0.0])),
             single_particle_matrix(ANISO),
             build_operator(scalar_spec([0.3, -0.3] * 2)),
             build_operator(scalar_spec([0.0] * 4))]
    grid = 1024
    h = 2 * np.pi / grid
    worst = 0.0
    for J in specs:
        bs = band_structure(J, grid)
        for g in range(2, grid - 2):
            fd = (-bs.bands[g + 2] + 8 * bs.bands[g + 1]
                  - 8 * bs.bands[g - 1] + bs.bands[g - 2]) / (12 * h)
            worst = max(worst, float(np.max(np.abs(fd - bs.velocities[g] / J.q) * J.q)))
    report(2, "Hellmann-Feynman", worst < 1e-6, f"worst deviation={worst:.2e}")


def test_c03_derivative_identity():
    psi = WavePacket.delta_scalar(0, 1)
    r_free = check_derivative_identity(free_laplacian(), psi, 1.0, 256)
    r_p2 = check_derivative_identity(period2(1.0), psi, 1.0, 256)
    r32 = check_derivative_identity(period2(1.0), psi, 1.0, 32)
    r64 = check_derivative_identity(period2(1.0), psi, 1.0, 64)
    r128 = check_derivative_identity(period2(1.0), psi, 1.0, 128)
    fourth_order = r32 / r64 > 10.0 and r64 / r128 > 10.0
    ok = r_free < 1e-6 and r_p2 < 1e-6 and fourth_order
    report(3, "derivative identity", ok,
           f"free={r_free:.2e}, period-2={r_p2:.2e}, "
           f"ratios={r32 / r64:.1f},{r64 / r128:.1f}")


def test_c04_ballistic_limit():
    psi = WavePacket.delta_scalar(0, 1)
    err_free = check_ballistic_limit(free_laplacian(), psi, [100.0], grid_size=64)[0]
    errs = check_ballistic_limit(period2(1.0), psi, [25.0, 50.0, 100.0, 200.0],
                                 grid_size=1024)
    ok = err_free < 0.05 and np.all(np.diff(errs) <= 0)
    report(4, "ballistic limit", ok,
           f"free@100={err_free:.3e}, period-2 errors={np.array2string(errs, precision=4)}")


def test_c05_transport_exponents():
    psi = WavePacket.delta_scalar(0, 1)
    times = [12.5, 25.0, 50.0, 100.0, 200.0]
    est_free = transport_exponents(free_laplacian(), psi, 2.0, times)
    est_p2 = transport_exponents(period2(1.0), psi, 2.0, times)
    traj = moment_trajectory(free_laplacian(), psi, 2.0, times)
    rel = np.max(np.abs(traj.values - 2.0 * traj.times**2) / (2.0 * traj.times**2))
    # independent oracle: direct Bessel summation at the largest time
    t_last = traj.times[-1]
    ns = np.arange(-600, 601)
    bessel = float(np.sum(ns**2 * jv(ns, 2 * t_last) ** 2))
    rel_bessel = abs(traj.values[-1] - bessel) / bessel
    ok = (0.9 <= est_free.beta_minus_hat <= est_free.beta_plus_hat <= 1.1
          and 0.9 <= est_p2.beta_minus_hat <= est_p2.beta_plus_hat <= 1.1
          and rel < 1e-6 and rel_bessel < 1e-6)
    report(5, "transport exponents", ok,
           f"free beta=[{est_free.beta_minus_hat:.3f},{est_free.beta_plus_hat:.3f}], "
           f"period-2 beta=[{est_p2.beta_minus_hat:.3f},{est_p2.beta_plus_hat:.3f}], "
           f"moment rel err={rel:.2e}")


def test_c06_corollary_probe():
    result = corollary_probe(free_laplacian(), 0.2, np.arange(20.0, 201.0, 20.0), 0)
    ok = result.c_tilde > 0 and result.all_ok
    report(6, "light-cone mass probe", ok,
           f"c_tilde={result.c_tilde:.4f}, all above c/(2T)={result.all_ok}")


XY_SPECS = [XYChainSpec(mu=[1.0], gamma=[0.0], nu=[0.0]),
            XYChainSpec(mu=[1.0], gamma=[0.5], nu=[1.0]),
            XYChainSpec(mu=[1.0], gamma=[-0.5], nu=[2.0])]


def test_c07_free_fermion_exactness():
    worst = 0.0
    for spec in XY_SPECS:
        for lam in [(1, 4), (1, 6)]:
            chain = SpinChain(spec, lam)
            for j in range(lam[0], lam[1] + 1):
                for t in (0.5, 1.0, 2.0):
                    worst = max(worst, free_fermion_residual(chain, j, t))
    report(7, "free-fermion exactness", worst < 1e-8, f"worst residual={worst:.2e}")


def test_c08_propagator_lower_bound():
    chain = SpinChain(ANISO, (1, 6))
    ok = True
    margin = np.inf
    for l, r in [(2, 4), (1, 5)]:
        for t in (0.5, 1.0, 2.0):
            for case in (1, 2, 3, 4):
                chk = propagation_lower_bound(chain, l, r, t, case)
                ok = ok and chk.ok
                margin = min(margin, chk.commutator - chk.entry_abs)
    report(8, "propagator lower bound", ok, f"min slack={margin:.3e}")


def test_c09_propagation_upper_bound():
    chain = SpinChain(ANISO, (1, 6))
    ok = True
    for s, r in [(2, 4), (1, 5)]:
        for t in (0.5, 1.0, 2.0):
            chk = propagation_upper_bound(chain, s, r, t)
            ok = ok and chk.ok
    report(9, "string-observable upper bound", ok)


def test_c10_xy_velocity():
    v_iso = lr_velocity_bound(XYChainSpec(mu=[0.5], gamma=[0.0], nu=[0.0]))
    base = lr_velocity_bound(ANISO)
    scaled = lr_velocity_bound(XYChainSpec(mu=[2.5], gamma=[0.5], nu=[2.5]))
    ok = abs(v_iso - 2.0) < 1e-6 and abs(scaled - 2.5 * base) < 1e-8
    report(10, "XY velocity bound", ok,
           f"isotropic={v_iso:.9f}, scaling deviation={abs(scaled - 2.5 * base):.2e}")


def test_c11_localization_dichotomy():
    # periodic operators are never localized
    periodic_ok = True
    for J, half in [(free_laplacian(), 80), (period2(1.0), 80)]:
        trunc = J.truncate(half)
        pairs = [(0, d) for d in range(4, 41, 4)]
        rep = localization_diagnostic(trunc, pairs, np.arange(0.0, 25.0, 0.2))
        periodic_ok = periodic_ok and not rep.localized

    # strong transverse-field disorder localizes the free-fermion matrix
    rng = np.random.default_rng(20240901)
    half = 100  # 201 block sites = 402 scalar rows, window of ~400 scalar sites
    hits = 0
    for _ in range(20):
        nu = rng.uniform(-5.0, 5.0, 2 * half + 1)
        spec = XYChainSpec(mu=[1.0], gamma=[0.0], nu=tuple(nu))
        trunc = single_particle_matrix(spec).truncate(half)
        # scalar index 0 is the annihilator row of the central block
        pairs = [(0, d) for d in range(2, 41, 2)]
        rep = localization_diagnostic(trunc, pairs, np.arange(0.0, 20.0, 0.04))
        if rep.slope < -0.1 and rep.r_squared > 0.9:
            hits += 1
    ok = periodic_ok and hits >= 16
    report(11, "localization dichotomy", ok,
           f"periodic not localized={periodic_ok}, disorder hits={hits}/20")


def test_c12_thouless():
    r1 = thouless_check(3.0j, [0.0], grid_size=2048)
    r2 = thouless_check(0.5 + 0.2j, [1.0, -1.0], grid_size=2048)
    ok = r1.gap < 1e-3 and r2.gap < 1e-3
    report(12, "Thouless cross-check", ok, f"gaps={r1.gap:.2e}, {r2.gap:.2e}")


def test_c13_dt_criterion_contrast():
    free_val = dt_criterion([0.0], 0.0, 2.0, 100.0, 1.0)
    gap_val = dt_criterion([3.0, -3.0], 1.0, 1.0, 100.0, 1.0)
    ok = free_val >= 0.1 and gap_val < 1e-3
    report(13, "transport criterion contrast", ok,
           f"free={free_val:.4f}, in-gap={gap_val:.2e}")


def test_c14_growth_certificates():
    cert = growth_certificate([0.0], 2.0, 1)
    # the exact free moment 2T^2 beats 2T^2/log T exactly when log T > 1,
    # so the smallest certifying dyadic time for the point mass is 4
    delta0_ok = (cert.packet_times["delta0"] == 4.0
                 and abs(cert.packet_moments["delta0"][4.0] - 32.0) < 1e-6
                 and cert.radius > 0.0)
    con = generic_builder(3, 2.0, 1)
    deltas = [rec.delta for rec in con.records]
    decreasing = deltas[1] < deltas[0] and deltas[2] < deltas[1]
    ok = delta0_ok and decreasing and con.all_ok
    report(14, "growth certificates", ok,
           f"delta0 time={cert.packet_times['delta0']}, deltas={deltas}, "
           f"verification={con.all_ok}")
