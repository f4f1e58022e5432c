import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdyn import WavePacket, limitperiodic
from blochdyn.errors import (
    NoCertificateFound,
    PsiEnvelopeViolated,
    QuadratureNotConverged,
    WindowTooShort,
)
from blochdyn.limitperiodic import (
    dt_criterion,
    envelope_packet,
    family_lyapunov,
    finite_lyapunov,
    generic_builder,
    growth_certificate,
    periodic_lyapunov,
    perturbation_stability,
    thouless_check,
    transfer_matrix,
)


# --- transfer matrices -----------------------------------------------------------


def test_one_step_matrix():
    E = 1.7 + 0.3j
    prod = transfer_matrix(1, E, [0.0])
    assert np.allclose(prod.matrix, [[E, -1.0], [1.0, 0.0]])


def test_rotation_power_is_identity():
    prod = transfer_matrix(4, 0.0, [0.0, 0.0, 0.0, 0.0])
    assert np.allclose(prod.matrix, np.eye(2), atol=1e-14)


def test_two_step_hand_product():
    # [[1,-1],[1,0]]^2 = [[0,-1],[1,-1]]
    prod = transfer_matrix(2, 1.0, [0.0, 0.0])
    assert np.allclose(prod.matrix, [[0.0, -1.0], [1.0, -1.0]])


def test_window_too_short():
    with pytest.raises(WindowTooShort):
        transfer_matrix(5, 1.0, [0.0, 0.0])


def test_determinant_invariant_long_products():
    rng = np.random.default_rng(8)
    for n in (10, 1000, 10000):
        E = complex(rng.uniform(-3, 3), rng.uniform(0, 1))
        w = rng.uniform(-2, 2, min(n, 64))
        prod = transfer_matrix(n, E, w, periodic=True)
        log_det, arg_det = prod.det_deviation()
        assert log_det < 1e-10
        assert arg_det < 1e-8
        assert prod.log_norm >= -1e-10


def reference_products(n, energy, w):
    """Phi(1), ..., Phi(n) at one energy by plain 2x2 products, w tiled."""
    mat = np.eye(2, dtype=complex)
    products = []
    for j in range(n):
        mat = np.array([[energy - w[j % len(w)], -1.0], [1.0, 0.0]]) @ mat
        products.append(mat)
    return products


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 150),
    w=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    energies=st.lists(st.complex_numbers(max_magnitude=6.0), min_size=1, max_size=6),
)
def test_batched_kernel_matches_reference(n, w, energies):
    E = np.array(energies).reshape(-1, 1)
    prod = transfer_matrix(n, E, w, periodic=True)
    assert prod.scaled.shape == E.shape + (2, 2)
    assert prod.log_scale.shape == prod.peak_log_norm.shape == E.shape
    log_norm = prod.log_norm
    for k, energy in enumerate(energies):
        products = reference_products(n, energy, w)
        ref = products[-1]
        got = prod.scaled[k, 0] * math.exp(prod.log_scale[k, 0])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        ref_log_norms = [math.log(np.linalg.norm(m, 2)) for m in products]
        assert log_norm[k, 0] == pytest.approx(ref_log_norms[-1], rel=1e-12, abs=1e-12)
        assert prod.peak_log_norm[k, 0] == pytest.approx(max(ref_log_norms),
                                                          rel=1e-12, abs=1e-12)
        log_det, arg_det = prod.det_deviation()
        assert log_det[k, 0] < 1e-10 and arg_det[k, 0] < 1e-8
        # the array call is bit-identical to a scalar call
        assert transfer_matrix(n, energy, w, periodic=True).log_norm == log_norm[k, 0]


def test_running_peak_of_log_norms():
    E, w = np.array([0.3 + 0.05j, 2.5, 4.0]), [0.7, -0.4, 1.1]
    peak = transfer_matrix(40, E, w, periodic=True).peak_log_norm
    per_n = [transfer_matrix(m, E, w, periodic=True).log_norm for m in range(1, 41)]
    np.testing.assert_allclose(peak, np.max(per_n, axis=0), rtol=1e-13, atol=1e-13)


def test_lyapunov_nonnegative_and_submultiplicative():
    rng = np.random.default_rng(13)
    w = rng.uniform(-1, 1, 64)
    for n, m in [(5, 9), (16, 16), (30, 11)]:
        E = complex(rng.uniform(-3, 3), rng.uniform(0, 0.5))
        ln = finite_lyapunov(n, E, w[:n])
        lm = finite_lyapunov(m, E, w[n:n + m])
        lnm = finite_lyapunov(n + m, E, w[:n + m])
        assert ln >= -1e-12 and lm >= -1e-12
        assert (n + m) * lnm <= n * ln + m * lm + 1e-10


def test_trivial_lyapunov_zero():
    assert finite_lyapunov(4, 0.0, [0.0] * 4) == pytest.approx(0.0, abs=1e-12)


def test_free_asymptotic_lyapunov():
    # one-step eigenvalue (3 + sqrt(5)) / 2 at E = 3
    target = np.log((3.0 + np.sqrt(5.0)) / 2.0)
    assert target == pytest.approx(0.9624236501192069)
    val = finite_lyapunov(1000, 3.0, [0.0], periodic=True)
    assert val == pytest.approx(target, abs=1e-2)
    assert periodic_lyapunov(3.0, [0.0]) == pytest.approx(target, abs=1e-12)


def test_periodic_lyapunov_batch_matches_single_energies():
    # one batched product and eigensolve reproduce the per-energy calls bit
    # for bit, on the real axis (inside and outside the spectrum) and off it
    rng = np.random.default_rng(7)
    w = rng.uniform(-1.5, 1.5, 5)
    zs = rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(0.0, 1.0, 200)
    zs[:40] = zs[:40].real
    batch = periodic_lyapunov(zs, w)
    assert batch.shape == (200,)
    assert np.array_equal(batch, [periodic_lyapunov(z, w) for z in zs])
    assert type(periodic_lyapunov(3.0, [0.0])) is float


def test_family_average():
    w = [0.3, -0.3]
    assert family_lyapunov(8, 2.5, [w], periodic=True) == finite_lyapunov(
        8, 2.5, w, periodic=True)
    both = family_lyapunov(8, 2.5, [w, [0.0, 0.0]], periodic=True)
    single = 0.5 * (finite_lyapunov(8, 2.5, w, periodic=True)
                    + finite_lyapunov(8, 2.5, [0.0], periodic=True))
    assert both == pytest.approx(single)


def test_potential_family_container():
    from blochdyn import PotentialFamily

    fam = PotentialFamily(members=([0.3, -0.3], [0.0, 0.0]), period=2)
    val = family_lyapunov(8, 2.5, fam)
    assert val == pytest.approx(family_lyapunov(8, 2.5, list(fam.members), periodic=True))
    with pytest.raises(WindowTooShort):
        PotentialFamily(members=([0.3, -0.3], [0.0]), period=2)
    with pytest.raises(WindowTooShort):
        PotentialFamily(members=(), period=2)


def test_off_spectrum_growth():
    for E, w in [(4.0, [0.0]), (3.5, [1.0, -1.0]), (-4.2, [0.5])]:
        bound = np.log((abs(E) - np.max(np.abs(w))) / 2.0)
        assert finite_lyapunov(1000, E, w, periodic=True) >= bound - 0.05


# --- Thouless cross-check -----------------------------------------------------------


def test_thouless_free():
    res = thouless_check(1, 3.0j, [0.0])
    assert res.gap < 1e-3
    # both routes hit log((3 + sqrt(13)) / 2)
    assert res.lhs == pytest.approx(np.log((3.0 + np.sqrt(13.0)) / 2.0), abs=1e-12)


def test_thouless_period2():
    res = thouless_check(2, 0.5 + 0.2j, [1.0, -1.0], grid_size=2048)
    assert res.gap < 1e-3


def test_thouless_shift_covariance():
    c = 0.8
    base = thouless_check(2, 0.5 + 0.3j, [1.0, -1.0], grid_size=512)
    shifted = thouless_check(2, 0.5 + c + 0.3j, [1.0 + c, -1.0 + c], grid_size=512)
    assert abs(base.gap - shifted.gap) < 1e-9
    assert abs(base.lhs - shifted.lhs) < 1e-12


def test_thouless_regularity_margin():
    with pytest.raises(ValueError):
        thouless_check(1, 3.0 + 0.01j, [0.0])


def test_thouless_points_match_single_calls():
    w = [1.0, -1.0]
    zs = np.array([[0.5 + 0.2j, -1.5 + 0.6j, 2.0 + 1.0j]])
    res = thouless_check(2, zs, w, grid_size=512)
    assert res.lhs.shape == res.rhs.shape == res.gap.shape == (1, 3)
    for i, z in enumerate(zs[0]):
        one = thouless_check(2, z, w, grid_size=512)
        assert (res.lhs[0, i], res.rhs[0, i], res.gap[0, i]) == (one.lhs, one.rhs, one.gap)


def test_thouless_one_transfer_product_for_all_points(monkeypatch):
    calls = []
    kernel = limitperiodic.transfer_matrix

    def counting(n, energy, *args, **kwargs):
        calls.append((n, np.shape(energy)))
        return kernel(n, energy, *args, **kwargs)

    monkeypatch.setattr(limitperiodic, "transfer_matrix", counting)
    thouless_check(2, [0.5 + 0.2j, -1.5 + 0.6j, 2.0 + 1.0j, 0.1 + 0.3j], [1.0, -1.0],
                   grid_size=512)
    assert calls == [(2, (4,))]


def test_thouless_half_grid_check():
    # far from the spectrum 32 fibers suffice, at Im z = 0.05 inside a band not
    with pytest.raises(QuadratureNotConverged):
        thouless_check(2, [3.0 + 1.0j, 1.5 + 0.05j], [1.0, -1.0], grid_size=32)
    thouless_check(2, 3.0 + 1.0j, [1.0, -1.0], grid_size=32)


# --- transport criterion integral ----------------------------------------------------


def test_dt_criterion_free_has_mass():
    val = dt_criterion([0.0], 0.0, 2.0, 100.0, 1.0)
    assert val >= 0.1
    assert val <= 2.0 * 2.0  # integrand is at most 1


def test_dt_criterion_gap_decay():
    val = dt_criterion([3.0, -3.0], 1.0, 1.0, 100.0, 1.0, p_period=2)
    assert val < 1e-3


def test_dt_criterion_validation():
    with pytest.raises(ValueError):
        dt_criterion([0.0], 1.0, -1.0, 100.0, 1.0)
    with pytest.raises(WindowTooShort):
        dt_criterion([0.0, 0.0], 1.0, 1.0, 10.0, 1.0, p_period=3)


def dense_simpson_reference(w, coupling, K, T, points=16385):
    """Composite Simpson of exp(-2 max_n log||Phi(n, E + i/T)||) on a fixed
    grid far finer than 1/T, with 2x2 products batched over the grid."""
    w = np.asarray(w, dtype=float) * coupling
    E = np.linspace(-K, K, points) + 1j / T
    mat = np.broadcast_to(np.eye(2, dtype=complex), (points, 2, 2))
    best = np.full(points, -np.inf)
    for j in range(max(1, math.floor(T))):
        step = np.zeros((points, 2, 2), dtype=complex)
        step[:, 0, 0] = E - w[j % len(w)]
        step[:, 0, 1], step[:, 1, 0] = -1.0, 1.0
        mat = step @ mat
        fro = np.sum(np.abs(mat) ** 2, axis=(1, 2))
        det = np.abs(mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0])
        smax2 = 0.5 * fro * (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * (det / fro) ** 2, 0.0)))
        best = np.maximum(best, 0.5 * np.log(smax2))
    f = np.exp(-2.0 * best)
    h = 2.0 * K / (points - 1)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


@pytest.mark.parametrize("w, K, T", [
    # these four exhausted the recursion depth of the former adaptive Simpson
    ([1.0, -1.0], 3.0, 50.0), ([1.0, -1.0], 3.0, 100.0),
    ([1.0, -1.0], 2.5, 50.0), ([1.0, -1.0], 2.5, 100.0),
    # stopping at the first agreement of two estimates misses rel_tol here
    ([0.5, -0.5], 1.5, 50.0),
])
def test_dt_criterion_ordinary_inputs(w, K, T):
    val = dt_criterion(w, 1.0, K, T)
    ref = dense_simpson_reference(w, 1.0, K, T)
    assert abs(val - ref) <= 1e-4 * ref


def test_dt_criterion_reuses_samples(monkeypatch):
    sizes = []
    kernel = limitperiodic.transfer_matrix

    def counting(n, energy, *args, **kwargs):
        sizes.append(np.size(energy))
        return kernel(n, energy, *args, **kwargs)

    monkeypatch.setattr(limitperiodic, "transfer_matrix", counting)
    dt_criterion([1.0, -1.0], 1.0, 3.0, 50.0)
    # the first grid has spacing 1/T on [-3, 3]; each halving evaluates
    # only the new midpoints
    assert sizes[0] == 301
    assert len(sizes) >= 3
    assert sizes[1:] == [300 * 2**k for k in range(len(sizes) - 1)]


@pytest.mark.parametrize("cap", [101, 1201])
def test_dt_criterion_point_cap(monkeypatch, cap):
    # K T = 150: the first grid has 301 points, and convergence needs 9601
    monkeypatch.setattr(limitperiodic, "DT_MAX_POINTS", cap)
    with pytest.raises(QuadratureNotConverged):
        dt_criterion([1.0, -1.0], 1.0, 3.0, 50.0)


# --- perturbation stability -----------------------------------------------------------


def test_stability_identical_potentials():
    psi = WavePacket.delta_scalar(0, 1)
    assert perturbation_stability([0.5], [0.5], psi, 3.0, 2.0, 1) == 0.0


def test_stability_envelope_guard():
    bad = WavePacket(3, np.array([[5.0]], dtype=complex))
    with pytest.raises(PsiEnvelopeViolated):
        perturbation_stability([0.0], [0.1], bad, 1.0, 2.0, 1)


def test_stability_small_perturbation_response():
    psi = WavePacket.delta_scalar(0, 1)
    diffs = [perturbation_stability([0.0], [d, -d], psi, 5.0, 2.0, 1)
             for d in (0.1, 0.05, 0.025)]
    assert diffs[1] <= 0.7 * diffs[0]
    assert diffs[2] <= 0.7 * diffs[1]


def test_stability_trivial_ceiling():
    psi = envelope_packet(1)
    t, p = 2.0, 2.0
    diff = perturbation_stability([0.0], [0.3, -0.3], psi, t, p, 1)
    n_window = 2 * (2 + 40 + 20) + 1  # generous bound on the shared window
    assert diff <= 2.0 * n_window**p * psi.norm() ** 2


# --- growth certificates ----------------------------------------------------------------


def test_envelope_packet_obeys_bound():
    psi = envelope_packet(2)
    sites = psi.sites
    assert np.all(np.abs(psi.coeffs[:, 0]) <= 2.0 * np.exp(-np.abs(sites) / 2.0) + 1e-15)
    assert psi.norm() == pytest.approx(1.0)


def test_growth_certificate_free():
    cert = growth_certificate([0.0], 2.0, 1)
    # the point-mass packet beats twice the threshold first at the smallest
    # dyadic time above e (exact moment 2 T^2 > 2 T^2 / log T iff log T > 1)
    assert cert.packet_times["delta0"] == 4.0
    assert cert.packet_moments["delta0"][4.0] == pytest.approx(32.0, rel=1e-8)
    # the envelope-boundary packet needs one more doubling
    assert cert.packet_times["envelope_exp"] == 8.0
    assert cert.time == 8.0
    assert cert.radius > 0.0
    assert set(cert.battery) == {"delta0", "envelope_exp"}


def test_growth_certificate_period2():
    cert = growth_certificate([1.0, -1.0], 1.0, 1)
    assert cert.time <= 64.0
    assert cert.radius > 0.0


def test_growth_certificate_budget_exhaustion():
    # strong disorder on a long period suppresses transport at small times
    rng = np.random.default_rng(3)
    w = rng.uniform(-8.0, 8.0, 32)
    with pytest.raises(NoCertificateFound):
        growth_certificate(w, 2.0, 1, time_budget=8.0)


# --- staged construction -----------------------------------------------------------------


def test_generic_builder_single_stage():
    con = generic_builder(1, 2.0, 1)
    assert len(con.records) == 1
    rec = con.records[0]
    assert rec.period == 1 and np.all(rec.potential == 0.0)
    assert con.all_ok


def test_generic_builder_three_stages():
    con = generic_builder(3, 2.0, 1)
    deltas = [rec.delta for rec in con.records]
    assert deltas[1] < 0.5 * deltas[0]
    assert deltas[2] < 0.5 * deltas[1]
    periods = [rec.period for rec in con.records]
    assert periods == [1, 2, 4]
    # the final potential sits inside every stage ball
    V = con.final_potential
    idx = np.arange(len(V))
    for rec in con.records:
        dist = np.max(np.abs(V - rec.potential[idx % len(rec.potential)]))
        assert dist < rec.delta
    assert con.all_ok
    assert len(con.verification) == 3
    for row in con.verification:
        assert row.worst_moment > row.threshold


def test_generic_builder_stage_guard():
    with pytest.raises(ValueError):
        generic_builder(7, 2.0, 1)
