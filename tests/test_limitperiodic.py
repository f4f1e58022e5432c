import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from blochdyn import WavePacket, dynamics, limitperiodic, moment_table
from blochdyn.errors import (
    GridTooCoarse,
    NoCertificateFound,
    PsiEnvelopeViolated,
    QuadratureNotConverged,
    SizeLimitExceeded,
    SpecError,
)
from blochdyn.limitperiodic import (
    dt_criterion,
    envelope_packet,
    finite_lyapunov,
    generic_builder,
    growth_certificate,
    periodic_lyapunov,
    perturbation_stability,
    schroedinger_operator,
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


def assert_unimodular(prod):
    """det Phi(n) = 1 on the returned product, normwise: det(scaled) =
    exp(-2 log_scale) to 1e-12 ||scaled||_F^2, the size of the rounding in a
    2x2 determinant."""
    s = prod.scaled
    det = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
    deviation = np.abs(det - np.exp(-2.0 * np.asarray(prod.log_scale)))
    assert np.all(deviation <= 1e-12 * np.sum(np.abs(s) ** 2, axis=(-2, -1)))


def test_determinant_invariant_long_products():
    rng = np.random.default_rng(8)
    for n in (10, 1000, 10000):
        E = complex(rng.uniform(-3, 3), rng.uniform(0, 1))
        w = rng.uniform(-2, 2, min(n, 64))
        prod = transfer_matrix(n, E, w)
        assert_unimodular(prod)
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
    prod = transfer_matrix(n, E, w)
    assert prod.scaled.shape == E.shape + (2, 2)
    assert prod.log_scale.shape == prod.peak_log_norm.shape == E.shape
    assert_unimodular(prod)
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
        # the array call is bit-identical to a scalar call
        assert transfer_matrix(n, energy, w).log_norm == log_norm[k, 0]


def test_running_peak_of_log_norms():
    E, w = np.array([0.3 + 0.05j, 2.5, 4.0]), [0.7, -0.4, 1.1]
    peak = transfer_matrix(40, E, w).peak_log_norm
    per_n = [transfer_matrix(m, E, w).log_norm for m in range(1, 41)]
    np.testing.assert_allclose(peak, np.max(per_n, axis=0), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [99, 100, 101, 10000, 10001])
def test_block_boundaries_match_reference(n):
    # the kernel cuts n steps into blocks of ceil(sqrt(n)): 100 and 10000 fill
    # the last block, 99 leaves it one step short, 101 and 10001 leave it two
    # steps long. The energies lie in the spectrum or just off it, so the
    # unscaled reference stays finite at n = 10^4.
    w = [0.7, -0.4, 1.1]
    energies = [0.3, 2.0, 0.3 + 0.01j, -1.5 + 0.005j]
    prod = transfer_matrix(n, np.array(energies), w)
    assert_unimodular(prod)
    log_norm = prod.log_norm
    for k, energy in enumerate(energies):
        products = reference_products(n, energy, w)
        ref = products[-1]
        got = prod.scaled[k] * math.exp(prod.log_scale[k])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        ref_log_norms = [math.log(np.linalg.norm(m, 2)) for m in products]
        assert log_norm[k] == pytest.approx(ref_log_norms[-1], rel=1e-12)
        assert prod.peak_log_norm[k] == pytest.approx(max(ref_log_norms), rel=1e-12)
        one = transfer_matrix(n, energy, w)
        assert one.log_norm == log_norm[k]
        assert np.array_equal(one.scaled, prod.scaled[k])
        assert (one.log_scale, one.peak_log_norm) == (prod.log_scale[k], prod.peak_log_norm[k])


def test_free_laplacian_million_steps():
    n = 10**6
    # E = 3 = 2 cosh a: U_k = sinh((k + 1) a) / sinh a, which equals
    # e^{(k+1) a} / (2 sinh a) to double precision at these k, so
    # log ||Phi(n)|| = (n + 1) a + log(1 + e^{-2a}) - log(2 sinh a)
    a = math.acosh(1.5)
    off_band = (n + 1) * a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0 * math.sinh(a))
    # E = s = fl(sqrt 3) = 2 cos theta in the band, theta = pi/6 + delta with
    # delta = sqrt(3) - s (to first order, delta ~ 1e-16), found exactly from
    # 3 - s^2; U_k = sin((k + 1) theta) / sin theta, with (k + 1) pi / 6
    # reduced mod 2 pi exactly
    s = math.sqrt(3.0)
    delta = float((3 - Fraction(s) ** 2) / Fraction(2.0 * s))
    theta = math.pi / 6.0 + delta

    def u(k):
        return math.sin((k + 1) % 12 * math.pi / 6.0 + (k + 1) * delta) / math.sin(theta)

    # Phi(n) = [[U_n, -U_{n-1}], [U_{n-1}, -U_{n-2}]] has determinant 1
    frob = u(n) ** 2 + 2.0 * u(n - 1) ** 2 + u(n - 2) ** 2
    in_band = 0.5 * math.log((frob + math.sqrt(frob * frob - 4.0)) / 2.0)
    prod = transfer_matrix(n, np.array([3.0, s]), [0.0])
    assert prod.log_norm[0] == pytest.approx(off_band, rel=1e-12)
    assert prod.log_norm[1] == pytest.approx(in_band, rel=1e-12)
    assert_unimodular(prod)


@pytest.mark.parametrize("w", [[1.0, -1.0], [0.5, -1.0, 0.3]])
def test_periodic_products_near_a_million_steps_bracket_the_spectral_radius(w):
    # n = k p steps of a p-periodic potential give Phi(n) = M^k, M the
    # one-period product with eigenvectors V, so rho(M)^k <= ||M^k|| <=
    # cond(V) rho(M)^k. Off the band log_norm is log_scale plus the log of
    # an O(1) norm, so this pins log_scale, which the determinant check
    # cannot reach once the product has been rescaled.
    k = (10**6 - 1) // len(w)
    energies = np.array([3.0, 3.0 + 0.5j, -2.9])
    prod = transfer_matrix(k * len(w), energies, w)
    for energy, log_norm in zip(energies, prod.log_norm):
        M = np.eye(2, dtype=complex)
        for wj in w:
            M = np.array([[energy - wj, -1.0], [1.0, 0.0]]) @ M
        lam, V = np.linalg.eig(M)
        offset = log_norm - k * math.log(np.max(np.abs(lam)))
        assert -1e-6 <= offset <= math.log(np.linalg.cond(V)) + 1e-6, (energy, offset)


def test_kernel_takes_order_sqrt_n_vectorized_steps(monkeypatch):
    steps = []
    kernel_step = limitperiodic._step

    def counting(m, d):
        steps.append(m.shape)
        kernel_step(m, d)

    monkeypatch.setattr(limitperiodic, "_step", counting)
    n = 10**4
    transfer_matrix(n, np.linspace(-3.0, 3.0, 21), [0.5, -0.5])
    # pass 1 steps the block products, pass 3 the replays
    assert len(steps) <= 2 * math.ceil(math.sqrt(n))


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
    val = finite_lyapunov(1000, 3.0, [0.0])
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


def test_off_spectrum_growth():
    for E, w in [(4.0, [0.0]), (3.5, [1.0, -1.0]), (-4.2, [0.5])]:
        bound = np.log((abs(E) - np.max(np.abs(w))) / 2.0)
        assert finite_lyapunov(1000, E, w) >= bound - 0.05


# --- Thouless cross-check -----------------------------------------------------------


def test_thouless_free():
    res = thouless_check(3.0j, [0.0])
    assert res.gap < 1e-3
    # both routes hit log((3 + sqrt(13)) / 2)
    assert res.lhs == pytest.approx(np.log((3.0 + np.sqrt(13.0)) / 2.0), abs=1e-12)


def test_thouless_period2():
    res = thouless_check(0.5 + 0.2j, [1.0, -1.0], grid_size=2048)
    assert res.gap < 1e-3


def test_thouless_shift_covariance():
    c = 0.8
    base = thouless_check(0.5 + 0.3j, [1.0, -1.0], grid_size=512)
    shifted = thouless_check(0.5 + c + 0.3j, [1.0 + c, -1.0 + c], grid_size=512)
    assert abs(base.gap - shifted.gap) < 1e-9
    assert abs(base.lhs - shifted.lhs) < 1e-12


def test_thouless_regularity_margin():
    with pytest.raises(SpecError):
        thouless_check(3.0 + 0.01j, [0.0])


@pytest.mark.parametrize("G", [16, 24])
def test_thouless_compares_the_grid_with_its_half(G):
    # at Im z = 0.05 the density-of-states route moves by more than
    # THOULESS_QUAD_TOL between G // 2 and G fibers (rhs 0.0810 against the
    # true 0.0253 at G = 16), so the check refuses rather than report it.
    # The free Laplacian's fiber eigenvalues are 2 cos theta.
    z = 0.3 + 0.05j

    def rhs(grid):
        return np.mean(np.log(np.abs(z - 2.0 * np.cos(2.0 * np.pi * np.arange(grid) / grid))))

    moved = abs(rhs(G) - rhs(G // 2))
    with pytest.raises(QuadratureNotConverged,
                       match=f"moved by {moved:.2e} between grids {G // 2} and {G}$"):
        thouless_check(z, [0.0], grid_size=G)


def test_thouless_checks_the_grid():
    with pytest.raises(GridTooCoarse):
        thouless_check(0.5 + 0.2j, [1.0, -1.0], grid_size=8)


def test_thouless_points_match_single_calls():
    w = [1.0, -1.0]
    zs = np.array([[0.5 + 0.2j, -1.5 + 0.6j, 2.0 + 1.0j]])
    res = thouless_check(zs, w, grid_size=512)
    assert res.lhs.shape == res.rhs.shape == res.gap.shape == (1, 3)
    for i, z in enumerate(zs[0]):
        one = thouless_check(z, w, grid_size=512)
        assert (res.lhs[0, i], res.rhs[0, i], res.gap[0, i]) == (one.lhs, one.rhs, one.gap)


def test_thouless_one_transfer_product_for_all_points(monkeypatch):
    calls = []
    kernel = limitperiodic.transfer_matrix

    def counting(n, energy, *args, **kwargs):
        calls.append((n, np.shape(energy)))
        return kernel(n, energy, *args, **kwargs)

    monkeypatch.setattr(limitperiodic, "transfer_matrix", counting)
    thouless_check([0.5 + 0.2j, -1.5 + 0.6j, 2.0 + 1.0j, 0.1 + 0.3j], [1.0, -1.0],
                   grid_size=512)
    assert calls == [(2, (4,))]


def test_thouless_half_grid_check():
    # far from the spectrum 32 fibers suffice, at Im z = 0.05 inside a band not
    with pytest.raises(QuadratureNotConverged):
        thouless_check([3.0 + 1.0j, 1.5 + 0.05j], [1.0, -1.0], grid_size=32)
    thouless_check(3.0 + 1.0j, [1.0, -1.0], grid_size=32)


# --- transport criterion integral ----------------------------------------------------


def test_dt_criterion_free_has_mass():
    val = dt_criterion([0.0], 0.0, 2.0, 100.0, 1.0)
    assert val >= 0.1
    assert val <= 2.0 * 2.0  # integrand is at most 1


def test_dt_criterion_gap_decay():
    val = dt_criterion([3.0, -3.0], 1.0, 1.0, 100.0, 1.0)
    assert val < 1e-3


def test_dt_criterion_validation():
    with pytest.raises(SpecError):
        dt_criterion([0.0], 1.0, -1.0, 100.0, 1.0)
    with pytest.raises(SpecError):
        dt_criterion([0.0, 0.0], 1.0, 1.0, 10.0, 1.5)


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
    # K T = 150: the first grid has 301 points, and convergence needs 9601;
    # a cap below the first grid is a size error the arguments alone decide
    monkeypatch.setattr(limitperiodic, "DT_MAX_POINTS", cap)
    with pytest.raises(SizeLimitExceeded if cap < 301 else QuadratureNotConverged):
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
    n_window = 2 * (2 + 40 + 20) + 1  # generous bound on the larger window
    assert diff <= 2.0 * n_window**p * psi.norm() ** 2


@pytest.mark.parametrize("bloch", [True, False])
def test_stability_is_two_separate_moment_tables(monkeypatch, bloch):
    # each operator evolves alone on its own light-cone window: norm bounds
    # 3 and 4.3 give windows of different widths, and the difference is
    # that of the two lone moments bit for bit, on either route
    monkeypatch.setattr(dynamics, "_use_bloch", lambda *args: bloch)
    W, V = [0.5, -1.0], [0.8, -2.3, 0.1]
    psi, t, p = envelope_packet(1), 30.0, 2.0
    Jw, Jv = schroedinger_operator(W), schroedinger_operator(V)
    assert Jw.norm_bound != Jv.norm_bound
    mw, mv = (moment_table(J, [psi], p, [t])[0, 0] for J in (Jw, Jv))
    assert perturbation_stability(W, V, psi, t, p, 1) == abs(mw - mv)


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


@settings(max_examples=25, deadline=None)
@given(W=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       shape=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       delta=st.floats(1e-4, 0.5), p=st.sampled_from([1.0, 2.0]),
       T=st.floats(0.5, 4.0), R=st.integers(1, 30))
def test_duhamel_bounds_the_restricted_moment(W, shape, delta, p, T, R):
    # ||psi_V(T) - psi_W(T)|| <= T ||V - W||_inf, and weights |n|^p <= R^p
    # on |n| <= R, so the restricted moments differ by at most 2 R^p T delta;
    # both evolutions by the dense reference on a window far past the light
    # cone (s <= 3.5, T <= 4)
    V = limitperiodic._tiled_sum(W, delta * np.asarray(shape))
    psi = WavePacket.delta_scalar(0, 1)
    mw, mv = (reference.moment(reference.evolve(schroedinger_operator(U), psi, T, 60), p,
                               radius=R)
              for U in (W, V))
    assert abs(mw - mv) <= 2.0 * R**p * T * delta + 1e-12 * R**p


@pytest.mark.parametrize("W, p", [([0.0], 2.0), ([1.0, -1.0], 1.0)])
def test_no_sampled_potential_on_the_sphere_falsifies_the_radius(W, p):
    # the retired radius sampler as a falsification test: potentials with
    # ||V - W||_inf = radius exactly, evolved by the dense reference on a
    # window past the light cone, keep every battery packet above threshold
    cert = growth_certificate(W, p, 1)
    rng = np.random.default_rng(20240901)
    packets = [psi for _, psi in limitperiodic._battery(1)]
    # the envelope packet's support, twice the light cone of a norm bound
    # s <= 3.5, and a margin
    half = 40 + int(2 * 3.5 * cert.time) + 40
    thr = cert.time**p / math.log(cert.time)
    for _ in range(8):
        u = rng.uniform(-1.0, 1.0, 16)
        u[rng.integers(16)] = rng.choice([-1.0, 1.0])
        V = limitperiodic._tiled_sum(W, cert.radius * u)
        J = schroedinger_operator(V)
        assert np.max(np.abs(V - np.resize(W, len(V)))) == pytest.approx(cert.radius, rel=1e-12)
        for psi in packets:
            assert reference.moment(reference.evolve(J, psi, cert.time, half), p) > thr


def test_proved_radii_are_pinned():
    # the radii are arithmetic on moments computed to about 1e-13 relative;
    # 1e-9 leaves room for a BLAS that sums in another order
    cert = growth_certificate([0.0], 2.0, 1)
    assert (cert.time, cert.radius) == (8.0, pytest.approx(4.6605152944438426e-4, rel=1e-9))
    cert = growth_certificate([1.0, -1.0], 1.0, 1)
    assert (cert.time, cert.radius) == (32.0, pytest.approx(1.0542616025887147e-3, rel=1e-9))
    con = generic_builder(3, 2.0, 1)
    assert [rec.delta for rec in con.records] == pytest.approx(
        [4.6605152944438426e-4, 2.3255971319274775e-4, 1.1604729688318112e-4], rel=1e-9)
    assert [rec.time for rec in con.records] == [8.0, 8.0, 8.0]


def test_growth_certificate_refuses_a_non_positive_radius():
    # at p = 12 the Chebyshev term 6 R^p CHEBYSHEV_TAIL on the window
    # |n| <= 63 beats the zero potential's margin at T = 2
    with pytest.raises(NoCertificateFound, match="no proved radius"):
        growth_certificate([0.0], 12.0, 1)


@pytest.mark.parametrize("p", [79.0, 200.0])
def test_growth_certificate_refuses_overflowing_moments_before_evolving(monkeypatch, p):
    # the window of the last search time (T = 4096) has R = 8464 for the
    # zero potential, so R^p overflows a float from p = 78.5 on: refused
    # before the first moment table is evolved
    def no_evolution(*args):
        raise AssertionError("evolved before the refusal")

    monkeypatch.setattr(limitperiodic, "moment_table", no_evolution)
    with pytest.raises(NoCertificateFound, match="not a finite float"):
        growth_certificate([0.0], p, 1)


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
    with pytest.raises(SpecError):
        generic_builder(7, 2.0, 1)
