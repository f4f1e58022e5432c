import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import blochdyn.floquet as floquet_module
import blochdyn.limitperiodic as limitperiodic
import reference
from blochdyn import (
    BlockSpec,
    WavePacket,
    apply_q,
    band_structure,
    build_operator,
    evolve,
    fiber_matrices,
    q_norm,
    scalar_spec,
    velocity_maximum,
)
from blochdyn.blockjacobi import CHEBYSHEV_TAIL, MAX_DENSE_DIM, chebyshev_order
from blochdyn.errors import GridTooCoarse, QuadratureNotConverged, SizeLimitExceeded
from blochdyn.xychain import XYChainSpec, single_particle_matrix


def free_laplacian():
    return build_operator(scalar_spec([0.0]))


def period2(v):
    return build_operator(scalar_spec([v, -v]))


def xy_operator(mu, gamma, nu):
    return single_particle_matrix(XYChainSpec(mu=[mu], gamma=[gamma], nu=[nu]))


# --- fibers ------------------------------------------------------------------


def test_fiber_free_theta0():
    jf, af = fiber_matrices(free_laplacian(), 0.0)
    assert jf[0, 0] == pytest.approx(2.0)
    assert af[0, 0] == pytest.approx(0.0)


def test_fiber_free_theta_half_pi():
    jf, af = fiber_matrices(free_laplacian(), np.pi / 2)
    assert jf[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert af[0, 0] == pytest.approx(-2.0)


def test_fiber_corner_blocks():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)) + 3 * np.eye(2)
    braw = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    b = 0.5 * (braw + np.conj(np.transpose(braw, (0, 2, 1))))
    J = build_operator(BlockSpec(m=2, q=3, a=a, b=b))
    theta = 0.7
    jf, af = fiber_matrices(J, theta)
    assert np.allclose(jf[0:2, 4:6], np.exp(-1j * theta) * a[2].conj().T)
    assert np.allclose(jf[4:6, 0:2], np.exp(1j * theta) * a[2])
    assert np.allclose(af[0:2, 4:6], -1j * np.exp(-1j * theta) * a[2].conj().T)
    assert np.allclose(af[4:6, 0:2], 1j * np.exp(1j * theta) * a[2])
    assert np.max(np.abs(jf - jf.conj().T)) < 1e-12
    assert np.max(np.abs(af - af.conj().T)) < 1e-12


def test_fiber_eigenvectors_unitary():
    _, v = np.linalg.eigh(fiber_matrices(xy_operator(1.0, 0.5, 1.0), 1.3)[0])
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-10


# --- band structure -------------------------------------------------------------


def test_bands_free():
    bs = band_structure(free_laplacian(), 64)
    assert bs.bands.shape == (64, 1)
    assert np.allclose(bs.bands[:, 0], 2.0 * np.cos(bs.thetas), atol=1e-12)
    assert np.allclose(bs.velocities[:, 0], -2.0 * np.sin(bs.thetas), atol=1e-10)
    assert not bs.degenerate.any()


def test_bands_period2_against_direct_solve():
    # independent oracle: eigenvalues of [[v, 1+e^{-i t}], [1+e^{i t}, -v]]
    v = 1.0
    bs = band_structure(period2(v), 128)
    for g, theta in enumerate(bs.thetas):
        jf = np.array([[v, 1 + np.exp(-1j * theta)], [1 + np.exp(1j * theta), -v]])
        lam = np.linalg.eigvalsh(jf)
        assert np.allclose(np.sort(bs.bands[g]), lam, atol=1e-10)
    root = np.sqrt(v * v + 2.0 + 2.0 * np.cos(bs.thetas))
    assert np.allclose(np.sort(bs.bands, axis=1), np.column_stack([-root, root]), atol=1e-10)
    # gap at theta = pi equals 2|v|
    gpi = np.argmin(np.abs(bs.thetas - np.pi))
    assert bs.bands[gpi].max() - bs.bands[gpi].min() == pytest.approx(2.0 * abs(v))
    assert not bs.degenerate.any()


def test_bands_period2_crossing_flagged():
    bs = band_structure(period2(0.0), 64)
    gpi = np.argmin(np.abs(bs.thetas - np.pi))
    assert bs.degenerate[gpi]
    assert bs.degenerate.sum() == 1


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        band_structure(free_laplacian(), 8)


def hf_deviation(J, grid=1024):
    """max over interior points, flagged ones included, of
    |q * 4th-order FD - velocity|; the stencil stays off the wrap-around."""
    bs = band_structure(J, grid)
    h = 2 * np.pi / grid
    b = bs.bands
    fd = (-b[4:] + 8 * b[3:-1] - 8 * b[1:-3] + b[:-4]) / (12 * h)
    return float(np.max(np.abs(J.q * fd - bs.velocities[2:-2])))


def test_hellmann_feynman_consistency():
    # [0.3, -0.3] x 2 and [0] x 4 cross on the grid points 0 and pi
    for J in (free_laplacian(), period2(0.5), period2(1.0),
              xy_operator(1.0, 0.0, 0.0), xy_operator(1.0, 0.5, 1.0),
              build_operator(scalar_spec([0.3, -0.3] * 2)),
              build_operator(scalar_spec([0.0] * 4))):
        assert hf_deviation(J) < 1e-6


@pytest.mark.parametrize("q, G", [(2, 64), (3, 48), (4, 16), (4, 64)])
def test_folded_laplacian_curves_are_analytic(q, G):
    # the free Laplacian written with period q: its fiber eigenvalues are
    # 2 cos((theta + 2 pi k) / q), k = 0..q-1, crossing on grid points. Each
    # matched curve follows one k through the crossings, with velocity
    # q dlambda/dtheta = -2 sin((theta + 2 pi k) / q), and continues at
    # theta = 2 pi into the curve of k + 1
    bs = band_structure(build_operator(scalar_spec([0.0] * q)), G)
    assert bs.degenerate.any()
    phase = (bs.thetas[:, None, None] + 2 * np.pi * np.arange(q)[None, None, :]) / q
    err = np.maximum(np.abs(bs.bands[:, :, None] - 2 * np.cos(phase)),
                     np.abs(bs.velocities[:, :, None] + 2 * np.sin(phase))).max(axis=0)
    k = np.argmin(err, axis=1)
    assert np.all(err[np.arange(q), k] < 1e-12)
    assert sorted(k) == list(range(q))
    assert np.array_equal(k[bs.closing_permutation], (k + 1) % q)


def test_identical_copies_velocities_exact_on_flagged_fibers():
    # two identical copies of the free Laplacian (m = 2): every fiber holds
    # the double eigenvalue 2 cos theta, with velocity -2 sin theta
    J = build_operator(BlockSpec(m=2, q=1, a=[np.eye(2)], b=np.zeros((1, 2, 2))))
    bs = band_structure(J, 64)
    assert bs.degenerate.all()
    assert np.allclose(bs.bands, 2 * np.cos(bs.thetas)[:, None], rtol=0, atol=1e-12)
    assert np.allclose(bs.velocities, -2 * np.sin(bs.thetas)[:, None], rtol=0, atol=1e-12)


def level_crossings(bs, lam):
    """Sign changes of the matched curves through the level lam around the
    circle: the last grid point continues into the first through the
    closing permutation."""
    signs = np.sign(bs.bands - lam)
    around = np.vstack([signs, signs[0, bs.closing_permutation]])
    return int(np.sum(around[1:] * around[:-1] < 0))


def test_level_crossing_count():
    # a level meets the fiber spectrum for at most 2m quasi-momenta
    rng = np.random.default_rng(5)
    for J in (free_laplacian(), period2(1.0), xy_operator(1.0, 0.5, 1.0)):
        bs = band_structure(J, 256)
        for _ in range(20):
            j = rng.integers(bs.bands.shape[1])
            g = rng.integers(bs.grid_size)
            lam = bs.bands[g, j] + 1e-3 * rng.standard_normal()
            if np.min(np.abs(bs.bands - lam)) < 1e-9:
                continue
            assert level_crossings(bs, lam) <= 2 * J.m


def test_spectrum_matches_truncation():
    # Hausdorff distance between band values and truncation spectrum
    for J in (free_laplacian(), period2(1.0)):
        bs = band_structure(J, 256)
        band_vals = np.sort(bs.bands.ravel())
        tr_vals = np.sort(J.truncate(256).eigensystem[0])
        d1 = np.max(np.min(np.abs(band_vals[:, None] - tr_vals[None, :]), axis=1))
        d2 = np.max(np.min(np.abs(tr_vals[:, None] - band_vals[None, :]), axis=1))
        assert max(d1, d2) < 0.05


# --- maximal band speed -----------------------------------------------------------


def test_q_norm_free():
    assert q_norm(free_laplacian()) == pytest.approx(2.0, abs=1e-9)


def test_q_norm_free_period2_representation():
    spec = BlockSpec(m=1, q=2, a=np.ones((2, 1, 1)), b=np.zeros((2, 1, 1)))
    assert q_norm(build_operator(spec)) == pytest.approx(2.0, abs=1e-8)


def test_q_norm_period2_brute_force_oracle():
    # 1e5-point scan of 2|sin t| / sqrt(3 + 2 cos t)
    thetas = np.linspace(0, 2 * np.pi, 100000, endpoint=False)
    oracle = np.max(2 * np.abs(np.sin(thetas)) / np.sqrt(3 + 2 * np.cos(thetas)))
    val = q_norm(period2(1.0))
    assert val == pytest.approx(oracle, abs=1e-8)
    assert val == pytest.approx(np.sqrt(5.0) - 1.0, abs=1e-10)


def test_q_norm_period_doubling_invariance():
    v = 1.0
    doubled = BlockSpec(m=1, q=4, a=np.ones((4, 1, 1)),
                        b=np.array([v, -v, v, -v]).reshape(4, 1, 1).astype(complex))
    assert q_norm(build_operator(doubled)) == pytest.approx(q_norm(period2(v)), abs=1e-8)


def test_velocity_maximum_detail():
    vm = velocity_maximum(free_laplacian())
    assert vm.value == pytest.approx(2.0, abs=1e-9)
    assert min(abs(vm.theta - np.pi / 2), abs(vm.theta - 3 * np.pi / 2)) < 1e-6


def test_velocity_maximum_is_one_grid_scan_and_one_stack_per_round(monkeypatch):
    # the grid scan and each zoom round assemble one stack of fibers
    calls = []
    assemble = floquet_module.fiber_matrices

    def counting(J, theta):
        calls.append(np.shape(theta))
        return assemble(J, theta)

    monkeypatch.setattr(floquet_module, "fiber_matrices", counting)
    velocity_maximum(xy_operator(1.0, 0.5, 1.0), grid_size=64)
    assert len(calls) <= floquet_module.ZOOM_ROUNDS + 1
    assert calls[0] == (64,)


@pytest.mark.parametrize("G", [16, 17, 64, 512, 2048])
@pytest.mark.parametrize("v", [0.1, 0.5, 1.0, 2.0, 3.7])
def test_q_norm_period2_closed_form(v, G):
    # bands lambda^2 = a + 2 cos theta, a = v^2 + 2, with velocities
    # -2 sin theta / lambda; the largest speed sits at cos theta = c, the
    # root of c^2 + a c + 1 = 0 in (-1, 0)
    a = v * v + 2.0
    c = (-a + np.sqrt(a * a - 4.0)) / 2.0
    exact = 2.0 * np.sqrt((1.0 - c * c) / (a + 2.0 * c))
    assert q_norm(period2(v), grid_size=G) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_q_norm_positive():
    for J in (free_laplacian(), period2(0.5), xy_operator(1.0, 0.5, 1.0)):
        assert q_norm(J, grid_size=128) > 0.0


# --- velocity operator on packets ----------------------------------------------


def test_apply_q_zero_packet():
    res = apply_q(free_laplacian(), WavePacket.zero(1), grid_size=32)
    assert res.packet.norm() == 0.0


def test_apply_q_free_delta_exact():
    res = apply_q(free_laplacian(), WavePacket.delta_scalar(0, 1), grid_size=64)
    p = res.packet
    assert p.support() == (-1, 1)
    assert reference.block(p, -1)[0] == pytest.approx(1j, abs=1e-12)
    assert reference.block(p, 1)[0] == pytest.approx(-1j, abs=1e-12)
    assert abs(reference.block(p, 0)[0]) < 1e-12
    assert res.quadrature_error < 1e-12


def test_apply_q_grid_too_coarse_reported():
    # period-2 packet needs more than the minimum grid at tight tolerance: a
    # quadrature miss, not a bad grid size
    J = period2(1.0)
    with pytest.raises(QuadratureNotConverged):
        apply_q(J, WavePacket.delta_scalar(0, 1), grid_size=16, tol=1e-13)


def test_degenerate_cluster_velocity_fibers():
    # the free Laplacian written with period 2: its two bands cross at
    # theta = pi, a grid point, where the fiber basis is turned onto the
    # current's eigenvectors; the operator, and hence Q, is the period-1 one
    J2 = build_operator(scalar_spec([0.0, 0.0]))
    assert band_structure(J2, 64).degenerate.any()
    psi = WavePacket.delta_scalar(0, 1)
    q2 = apply_q(J2, psi, grid_size=64).packet
    q1 = apply_q(free_laplacian(), psi, grid_size=64).packet
    assert np.max(np.abs(reference.subtract(q2, q1).coeffs)) < 1e-12


@pytest.mark.parametrize("G", [16, 17, 64, 101])
def test_apply_q_quadrature_error_is_the_packet_difference(G):
    # apply_q subtracts the half grid's coefficients in place; the estimate
    # is bit for bit the norm of the packet difference
    rng = np.random.default_rng(G)
    for J in (period2(1.0), xy_operator(1.0, 0.5, 1.0), build_operator(scalar_spec([0.0] * 4))):
        psi = WavePacket(int(rng.integers(-5, 5)), rng.standard_normal((3, J.m)))
        err = apply_q(J, psi, grid_size=G, tol=np.inf).quadrature_error
        assert err == reference.quadrature_error(J, psi, G)


def test_parseval_delta():
    J = free_laplacian()
    for G in (16, 64, 257):
        assert reference.parseval_gap(J, WavePacket.delta_scalar(0, 1), G) < 1e-12


def test_parseval_one_period_apart():
    J = period2(1.0)
    psi = reference.add(WavePacket.delta_scalar(0, 1), WavePacket.delta_scalar(2, 1))
    assert reference.parseval_gap(J, psi, 16) < 1e-10


def test_parseval_random_support():
    rng = np.random.default_rng(9)
    J = period2(0.5)
    c = rng.standard_normal((11, 1)) + 1j * rng.standard_normal((11, 1))
    psi = WavePacket(-5, c)
    res = reference.parseval_gap(J, psi, 256)
    assert res < 1e-8


def test_repeat_runs_are_bitwise_identical():
    J = xy_operator(1.0, 0.5, 1.0)
    b1 = band_structure(J, 64)
    b2 = band_structure(J, 64)
    assert np.array_equal(b1.bands, b2.bands)
    assert np.array_equal(b1.velocities, b2.velocities)
    assert q_norm(J, grid_size=64) == q_norm(J, grid_size=64)


def loop_fiber_matrices(J, theta):
    """Reference assembler: one slot coupling at a time, the wrap with its phase."""
    m, q = J.m, J.q
    jf = np.zeros((m * q, m * q), dtype=complex)
    af = np.zeros((m * q, m * q), dtype=complex)
    for k in range(q):
        sl = slice(k * m, (k + 1) * m)
        jf[sl, sl] += J.spec.b[k]
    for k in range(q):
        kn = (k + 1) % q
        ph = np.exp(1j * theta) if k == q - 1 else 1.0
        sl, sr = slice(k * m, (k + 1) * m), slice(kn * m, (kn + 1) * m)
        blk = J.spec.a[k]
        jf[sl, sr] += ph * blk
        jf[sr, sl] += np.conj(ph) * blk.conj().T
        af[sl, sr] += 1j * ph * blk
        af[sr, sl] += -1j * np.conj(ph) * blk.conj().T
    return jf, af


@st.composite
def block_operators(draw):
    m = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((q, m, m)) + 1j * rng.standard_normal((q, m, m)) + 3 * np.eye(m)
    braw = rng.standard_normal((q, m, m)) + 1j * rng.standard_normal((q, m, m))
    b = 0.5 * (braw + np.conj(np.transpose(braw, (0, 2, 1))))
    return build_operator(BlockSpec(m=m, q=q, a=a, b=b))


@settings(max_examples=40, deadline=None)
@given(J=block_operators(), seed=st.integers(0, 2**32 - 1))
def test_fiber_properties(J, seed):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (3, 4))
    jf, af = fiber_matrices(J, thetas)
    dim = J.m * J.q
    assert jf.shape == af.shape == (3, 4, dim, dim)
    # the stack is the per-theta calls and the slot-by-slot assembly,
    # including q <= 2 where the wrap block adds onto an occupied entry
    for idx in np.ndindex(thetas.shape):
        for j1, a1 in (fiber_matrices(J, thetas[idx]), loop_fiber_matrices(J, thetas[idx])):
            assert np.array_equal(jf[idx], j1) and np.array_equal(af[idx], a1)
    for mat in (jf, af):
        assert np.max(np.abs(mat - np.conj(np.swapaxes(mat, -1, -2)))) < 1e-12

    # Hellmann-Feynman: velocities are q * dlambda/dtheta away from crossings
    G, h = 64, 1e-5
    bs = band_structure(J, G)
    scale = 1.0 + np.max(np.abs(bs.velocities))
    shifted = bs.thetas[:, None] + np.array([-h, 0.0, h])
    lam = np.linalg.eigvalsh(fiber_matrices(J, shifted)[0])
    gaps = np.min(np.diff(lam, axis=-1), axis=(-2, -1)) if dim > 1 else np.ones(G)
    fd = J.q * (lam[:, 2] - lam[:, 0]) / (2.0 * h)
    for g in np.flatnonzero(gaps > 0.05):
        order = np.argsort(bs.bands[g])
        assert np.max(np.abs(bs.velocities[g][order] - fd[g])) < 1e-6 * scale


@settings(max_examples=40, deadline=None)
@given(J=block_operators(), G=st.integers(16, 64), cell=st.integers(-50, 50),
       data=st.data())
def test_parseval_random_packets(J, G, cell, data):
    # a packet whose sites lie in at most G consecutive cells meets every
    # cell index once mod G, so the G-point quadrature is exact
    cells = data.draw(st.integers(1, G))
    offset = data.draw(st.integers(0, J.q - 1))
    length = data.draw(st.integers(1, cells * J.q - offset))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((length, J.m)) + 1j * rng.standard_normal((length, J.m))
    psi = WavePacket(cell * J.q + offset, c)
    assert reference.parseval_gap(J, psi, G) <= 1e-12 * psi.norm() ** 2


@settings(max_examples=25, deadline=None)
@given(J=block_operators(), t=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_current_is_the_derivative_of_the_position(J, t, seed):
    # d/dt <psi(t), X psi(t)> = <psi(t), A psi(t)> with A = i[J, X], by a
    # central difference of step h = 1e-4 / s, s = norm_bound >= ||J||, ||A||.
    # Its truncation error is at most (h^2 / 6) ||[J, [J, A]]|| <= (2/3) s^3 h^2
    # = 6.7e-9 s per unit norm; the tolerance 2e-8 s leaves room for roundoff.
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3, J.m)) + 1j * rng.standard_normal((3, J.m))
    psi = WavePacket(-1, c)
    s = J.norm_bound
    h = 1e-4 / s
    before, after, p = evolve(J, psi, [t - h, t + h, t], trim=0.0)
    position = [np.sum(q.sites[:, None] * np.abs(q.coeffs) ** 2) for q in (before, after)]
    derivative = (position[1] - position[0]) / (2.0 * h)
    current = reference.inner(p, reference.apply_current(J, p))
    assert abs(current.imag) <= 1e-12 * s * psi.norm() ** 2
    assert abs(derivative - current.real) <= 2e-8 * s * psi.norm() ** 2


@settings(max_examples=40, deadline=None)
@given(J=block_operators(), t=st.floats(-8.0, 8.0), width=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_propagate_is_unitary_under_both_backends(J, t, width, seed):
    # The Chebyshev propagator against the spectral reference
    # u exp(-itw) u^* v from the window's eigensystem.
    # Tolerances per unit ||v||, with eps the double epsilon, s = norm_bound
    # >= ||J_window|| and dim the window's rows:
    # - Chebyshev: the neglected orders weigh at most CHEBYSHEV_TAIL. A
    #   rounding error e made at order j reaches order k multiplied by
    #   U_{k-j}(J / s), of norm at most k - j + 1, so each of the K + 1 orders
    #   carries at most (K + 1)^2 e / 2, with e <= (3m + 2) eps since a row of
    #   the block-tridiagonal matvec sums 3m products. The coefficients
    #   2 |J_k(s t)| sum to at most 2 sqrt(K + 1), as sum_k J_k^2 <= 1.
    # - eigensystem: eigh's eigenvectors are orthonormal to a small multiple
    #   of dim eps, and each of the two products with them adds dim eps, so
    #   8 dim eps bounds the change of norm. Its eigenpairs are exact for a
    #   matrix within 2 dim eps s of J_window, which moves exp(-itJ) by |t|
    #   times that.
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((width, J.m)) + 1j * rng.standard_normal((width, J.m))
    psi = WavePacket(-(width // 2), c)
    chebyshev, spectral = J.truncate(12), J.truncate(12)
    vec = chebyshev.embed(psi)
    eps, s, dim = np.finfo(float).eps, J.norm_bound, chebyshev.dim
    K = chebyshev_order(s * t)
    tol_chebyshev = CHEBYSHEV_TAIL + (K + 1) ** 2.5 * (3 * J.m + 2) * eps
    tol_spectral = 8 * dim * eps

    out_chebyshev = chebyshev.propagate(vec, t)
    assert "eigensystem" not in chebyshev.__dict__
    w, u = spectral.eigensystem
    out_spectral = u @ (np.exp(-1j * t * w) * (u.conj().T @ vec))
    norm = np.linalg.norm(vec)
    assert abs(np.linalg.norm(out_chebyshev) - norm) <= tol_chebyshev * norm
    assert abs(np.linalg.norm(out_spectral) - norm) <= tol_spectral * norm
    assert (np.linalg.norm(out_chebyshev - out_spectral)
            <= (tol_chebyshev + tol_spectral + 2 * abs(t) * s * dim * eps) * norm)


# --- band matching ---------------------------------------------------------------


def lsa_match(v_prev, v_next):
    """Reference matching: the optimal assignment on every pair of fibers."""
    rows, cols = linear_sum_assignment(-np.abs(v_prev.conj().T @ v_next))
    perm = np.empty(len(rows), dtype=int)
    perm[rows] = cols
    return perm


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def counted_assignments():
    """Patch scipy's linear_sum_assignment with a call-counting wrapper."""
    return mock.patch("scipy.optimize.linear_sum_assignment", wraps=linear_sum_assignment)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), near=st.booleans(), eps=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_match_order_matches_assignment(n, near, eps, seed):
    rng = np.random.default_rng(seed)
    v_prev = random_unitary(rng, n)
    if near:
        # a permuted, rephased rotation by at most eps: certified
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
        d, u = np.linalg.eigh(h / np.linalg.norm(h, 2))
        rot = (u * np.exp(1j * eps * d)) @ u.conj().T
        step = rot[:, rng.permutation(n)] * np.exp(2j * np.pi * rng.uniform(size=n))
    else:
        step = random_unitary(rng, n)
    v_next = v_prev @ step
    overlap = np.abs(v_prev.conj().T @ v_next)
    certified = bool(np.min(np.max(overlap, axis=1)) > 1.0 / np.sqrt(2.0) + 1e-9)
    assert certified or not near
    with counted_assignments() as lsa:
        perm = floquet_module._match_order(v_prev, v_next)
    assert lsa.call_count == (0 if certified else 1)
    assert np.array_equal(perm, lsa_match(v_prev, v_next))


def test_match_order_falls_back_on_random_unitary():
    rng = np.random.default_rng(7)
    v_prev, v_next = random_unitary(rng, 12), random_unitary(rng, 12)
    with counted_assignments() as lsa:
        perm = floquet_module._match_order(v_prev, v_next)
    assert lsa.call_count == 1
    assert np.array_equal(perm, lsa_match(v_prev, v_next))


def test_match_order_near_tie_falls_back():
    # a rotation by pi/4 + 1e-12 puts every overlap within 1e-12 of
    # 1/sqrt(2), where roundoff could decide the match: not certified
    t = np.pi / 4 + 1e-12
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    with counted_assignments() as lsa:
        perm = floquet_module._match_order(np.eye(2, dtype=complex), rot)
    assert lsa.call_count == 1
    assert np.array_equal(perm, [1, 0])


def test_folded_laplacian_bands_match_assignment_everywhere(monkeypatch):
    # q = 4 copies of the free Laplacian: double eigenvalues on the grid
    # points theta = 0 and pi. There the fiber basis continues the curves
    # through the crossing, so the greedy match is certified and scipy is
    # never called
    J = build_operator(scalar_spec([0.0] * 4))
    with counted_assignments() as lsa:
        bs = band_structure(J, 16)
    assert lsa.call_count == 0
    monkeypatch.setattr(floquet_module, "_match_order", lsa_match)
    ref = band_structure(J, 16)
    for field in ("bands", "velocities", "degenerate", "closing_permutation"):
        assert np.array_equal(getattr(bs, field), getattr(ref, field)), field


# --- scans in slices -------------------------------------------------------------


def bench_xy_operator():
    # periods 2, 3, 2 for mu, gamma, nu: m = 2, q = 6
    return single_particle_matrix(XYChainSpec(mu=[0.9, 0.4], gamma=[0.5, -0.2, 0.3],
                                              nu=[0.75, -0.35]))




def scan_results(J, w, G):
    psi = WavePacket(-3, np.linspace(0.5, -1.0, 7 * J.m).reshape(7, J.m))
    bs = band_structure(J, G)
    vm = velocity_maximum(J, grid_size=G)
    qa = apply_q(J, psi, grid_size=G, tol=np.inf)
    results = {field: getattr(bs, field) for field in
               ("thetas", "bands", "velocities", "degenerate", "closing_permutation")}
    results.update(vm_value=vm.value, vm_theta=vm.theta, vm_band=vm.band,
                   q_base=qa.packet.base, q_coeffs=qa.packet.coeffs,
                   q_error=qa.quadrature_error)
    if w is not None:
        th = limitperiodic.thouless_check([0.3 + 1.0j, -1.1 + 0.5j], w, grid_size=G)
        results.update(thouless_lhs=th.lhs, thouless_rhs=th.rhs)
    return results


@pytest.mark.parametrize("w, G", [
    # bands of [0]x4 and [0]x3 cross on grid points, so seams meet crossings
    ([0.0] * 4, 16),
    ([0.0] * 3, 48),
    ([0.3, -0.3] * 2, 64),
    ([1.5, -0.4, 0.9, -1.2, 0.3], 64),
    (None, 2048),  # the XY operator
])
def test_scan_slices_are_invisible(monkeypatch, w, G):
    # one fiber per slice and one slice per scan give the same arrays, bit
    # for bit, as the default slicing
    J = bench_xy_operator() if w is None else build_operator(scalar_spec(w))
    default = scan_results(J, w, G)
    stacks = []
    assemble = floquet_module.fiber_matrices

    def recording(J, theta):
        stacks.append(np.size(theta))
        return assemble(J, theta)

    monkeypatch.setattr(floquet_module, "fiber_matrices", recording)
    monkeypatch.setattr(limitperiodic, "fiber_matrices", recording)
    for entries, most in ((1, 1), (MAX_DENSE_DIM**2, max(G, floquet_module.ZOOM_POINTS))):
        monkeypatch.setattr(floquet_module, "SCAN_ENTRIES", entries)
        stacks.clear()
        sliced = scan_results(J, w, G)
        assert max(stacks) == most
        for key, value in default.items():
            assert np.array_equal(sliced[key], value), (entries, key)


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scans_on_the_bench_xy_operator_hold_bounded_memory():
    # G = 2048 fibers of 12x12: each whole stack (J_theta, A_theta, the
    # eigenvectors, the compressed current) would take 4.7 MB
    J = bench_xy_operator()
    assert traced_peak(band_structure, J, 2048) < 10e6
    assert traced_peak(velocity_maximum, J, grid_size=2048) < 10e6


@pytest.mark.parametrize("scan", [
    lambda J: band_structure(J, 32),
    lambda J: velocity_maximum(J, grid_size=32),
    lambda J: apply_q(J, WavePacket.delta_scalar(0, 1), grid_size=32),
])
def test_oversized_scans_are_refused_before_allocating(scan):
    # 32 fibers of 2048x2048 ask for 2^27 entries over the whole scan, past
    # MAX_DENSE_DIM^2, although one slice would hold a single fiber
    J = build_operator(scalar_spec([0.0] * 2048))

    def refused():
        with pytest.raises(SizeLimitExceeded, match="32 fibers of 2048x2048"):
            scan(J)

    assert traced_peak(refused) < 4e6
