import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from blochdyn import BlockSpec, TruncatedOperator, WavePacket, build_operator, scalar_spec
from blochdyn.blockjacobi import (
    CHEBYSHEV_TAIL,
    MAX_DENSE_DIM,
    MAX_WINDOW_DIM,
    _chebyshev_coefficients,
    chebyshev_order,
)
from blochdyn.errors import (
    DimensionMismatch,
    NonHermitianDiagonal,
    SingularOffDiagonal,
    SizeLimitExceeded,
    SpecError,
    SupportOutsideWindow,
)


def free_laplacian():
    return build_operator(scalar_spec([0.0]))


def random_spec(rng, m, q, real=False):
    a = rng.standard_normal((q, m, m))
    b = rng.standard_normal((q, m, m))
    if not real:
        a = a + 1j * rng.standard_normal((q, m, m))
        b = b + 1j * rng.standard_normal((q, m, m))
    b = 0.5 * (b + np.conj(np.transpose(b, (0, 2, 1))))
    a = a + 3.0 * np.eye(m)  # keep the off-diagonal blocks well invertible
    return BlockSpec(m=m, q=q, a=a, b=b)


def random_packet(rng, m, lo=-3, width=6):
    c = rng.standard_normal((width, m)) + 1j * rng.standard_normal((width, m))
    return WavePacket(lo, c)


def window_action(J, u, N=4):
    """(J u, A u) from the window matrix M of block sites [-N, N]: M u and
    i (M X - X M) u, X the window's position diagonal. They equal the
    infinite-chain J u and A u when u lies inside [-N + 1, N - 1]."""
    tr = J.truncate(N)
    M, x, v = tr.matrix, tr.position_diagonal, tr.embed(u)
    return tr.extract(M @ v), tr.extract(1j * (M @ (x * v) - x * (M @ v)))


# --- construction -----------------------------------------------------------


def test_build_free_laplacian():
    J = free_laplacian()
    assert J.m == 1 and J.q == 1
    assert J.norm_bound == pytest.approx(2.0)


def test_singular_off_diagonal_rejected():
    with pytest.raises(SingularOffDiagonal):
        build_operator(BlockSpec(m=1, q=1, a=np.zeros((1, 1, 1)), b=np.zeros((1, 1, 1))))


def test_non_hermitian_diagonal_rejected():
    b = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    a = np.array([np.eye(2)], dtype=complex)
    with pytest.raises(NonHermitianDiagonal):
        build_operator(BlockSpec(m=2, q=1, a=a, b=b))


@pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("name", ["a", "b"])
def test_non_finite_blocks_rejected(name, bad):
    # refused when the spec is made, before any determinant or norm of a
    # non-finite block could warn or go on as NaN
    blocks = {"a": np.ones((2, 1, 1), dtype=complex), "b": np.zeros((2, 1, 1), dtype=complex)}
    blocks[name][1, 0, 0] = bad
    with pytest.raises(SpecError, match=f"{name}: block entries must be finite"):
        BlockSpec(m=1, q=2, **blocks)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        BlockSpec(m=2, q=1, a=np.ones((1, 1, 1)), b=np.zeros((1, 2, 2)))
    with pytest.raises(DimensionMismatch):
        BlockSpec(m=0, q=1, a=np.ones((1, 1, 1)), b=np.zeros((1, 1, 1)))


def test_xy_style_blocks_accepted():
    # coupling block 2[[-mu, -mu g], [mu g, mu]] at mu=1, g=2: det = 12
    gamma = 2.0
    a = np.array([2.0 * np.array([[-1.0, -gamma], [gamma, 1.0]])], dtype=complex)
    assert abs(np.linalg.det(a[0])) == pytest.approx(12.0)
    b = np.zeros((1, 2, 2), dtype=complex)
    J = build_operator(BlockSpec(m=2, q=1, a=a, b=b))
    assert J.m == 2


def test_spec_json_round_trip():
    # {"m", "q", "a", "b"}, each block a row-major flat list of [re, im] pairs
    data = {"m": 2, "q": 2,
            "a": [[[1.0, 0.5], [2.0, 0.0], [0.0, -1.0], [3.0, 0.0]],
                  [[4.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 0.0]]],
            "b": [[[1.0, 0.0], [0.0, 2.0], [0.0, -2.0], [-1.0, 0.0]],
                  [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}
    spec = BlockSpec.from_json_dict(data)
    assert np.array_equal(spec.a[0], [[1.0 + 0.5j, 2.0], [-1j, 3.0]])
    assert np.array_equal(spec.b[0], [[1.0, 2j], [-2j, -1.0]])
    build_operator(spec)
    for name, blocks in (("a", spec.a), ("b", spec.b)):
        assert [[[z.real, z.imag] for z in blk.ravel()] for blk in blocks] == data[name]


# --- J u and A u: the loop references against the window matrix ----------------


def test_apply_free_delta():
    J, u = free_laplacian(), WavePacket.delta_scalar(0, 1)
    for out in (reference.apply(J, u), window_action(J, u)[0]):
        assert reference.block(out, -1)[0] == pytest.approx(1.0)
        assert reference.block(out, 1)[0] == pytest.approx(1.0)
        assert abs(reference.block(out, 0)[0]) < 1e-15


def test_apply_constant_diagonal():
    J, u = build_operator(scalar_spec([3.0])), WavePacket.delta_scalar(0, 1)
    for out in (reference.apply(J, u), window_action(J, u)[0]):
        assert reference.block(out, 0)[0] == pytest.approx(3.0)
        assert reference.block(out, 1)[0] == pytest.approx(1.0)
        assert reference.block(out, -1)[0] == pytest.approx(1.0)


def test_apply_period2_phase_convention():
    # site 0 carries the first listed diagonal value, site 1 the second
    v = 0.7
    J = build_operator(scalar_spec([v, -v]))
    for site, value in ((0, v), (1, -v), (-1, -v)):
        u = WavePacket.delta_scalar(site, 1)
        for out in (reference.apply(J, u), window_action(J, u)[0]):
            assert reference.block(out, site)[0] == pytest.approx(value)
            assert reference.block(out, site + 1)[0] == pytest.approx(1.0)
            assert reference.block(out, site - 1)[0] == pytest.approx(1.0)


def test_apply_current_free_delta():
    J, u = free_laplacian(), WavePacket.delta_scalar(0, 1)
    for out in (reference.apply_current(J, u), window_action(J, u)[1]):
        assert reference.block(out, -1)[0] == pytest.approx(1j)
        assert reference.block(out, 1)[0] == pytest.approx(-1j)


def test_apply_current_zero_packet():
    J, u = free_laplacian(), WavePacket.zero(1)
    for out in (reference.apply_current(J, u), window_action(J, u)[1]):
        assert out.norm() == 0.0


def test_apply_current_xy_isotropic_blocks():
    gamma_blk = 2.0 * np.diag([-1.0, 1.0])
    a = np.array([gamma_blk], dtype=complex)
    b = np.zeros((1, 2, 2), dtype=complex)
    J = build_operator(BlockSpec(m=2, q=1, a=a, b=b))
    e1 = WavePacket.delta_block(0, 0, 2)
    e = np.array([1.0, 0.0])
    for out in (reference.apply_current(J, e1), window_action(J, e1)[1]):
        assert np.allclose(reference.block(out, 1), -1j * gamma_blk.conj().T @ e)
        assert np.allclose(reference.block(out, -1), 1j * gamma_blk @ e)


def test_current_is_position_commutator():
    # the loop-built A u against i[M, X] u from the window's matrix and
    # position diagonal
    rng = np.random.default_rng(7)
    for m, q in [(1, 1), (1, 2), (2, 3)]:
        J = build_operator(random_spec(rng, m, q))
        u = random_packet(rng, m)
        lhs = reference.apply_current(J, u)
        rhs = window_action(J, u)[1]
        assert reference.subtract(lhs, rhs).norm() < 1e-12 * max(1.0, u.norm())


# --- truncation ---------------------------------------------------------------


def test_truncate_free_3x3():
    J = free_laplacian()
    tr = J.truncate(1)
    assert np.allclose(tr.matrix.real, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    # closed-form path-graph eigenvalues
    assert np.allclose(tr.eigensystem[0], [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("real", [True, False])
def test_window_matrix_and_eigenvectors_keep_the_operator_dtype(real):
    # a real operator's window is real: its dense matrix and eigenvectors are
    # float64, with no complex copy; a complex spec's stay complex128. The
    # matrix is built on each access, not cached on the window
    J = build_operator(random_spec(np.random.default_rng(5), 2, 3, real=real))
    tr = J.truncate(4)
    dtype = np.float64 if real else np.complex128
    assert tr.matrix.dtype == dtype
    assert tr.eigensystem[1].dtype == dtype
    assert tr.eigensystem[0].dtype == np.float64
    assert tr.matrix is not tr.matrix
    assert "matrix" not in tr.__dict__


def test_truncation_hermitian_and_bounded():
    rng = np.random.default_rng(3)
    for m, q in [(1, 2), (2, 2), (3, 1)]:
        J = build_operator(random_spec(rng, m, q))
        tr = J.truncate(6)
        assert np.max(np.abs(tr.matrix - tr.matrix.conj().T)) < 1e-12
        w, u = tr.eigensystem
        assert np.max(np.abs(w)) <= J.norm_bound + 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(tr.dim))) < 1e-10


def test_truncation_interior_matches_apply():
    rng = np.random.default_rng(11)
    J = build_operator(random_spec(rng, 2, 3))
    N = 8
    tr = J.truncate(N)
    u = random_packet(rng, 2, lo=-N + 2, width=5)
    dense = tr.matrix @ tr.embed(u)
    direct = tr.embed(reference.apply(J, u))
    assert np.max(np.abs(dense - direct)) < 1e-12


def test_truncate_size_guard():
    J = free_laplacian()
    # the window itself is stored as blocks; only the dense path is capped
    tr = J.truncate(5000)
    assert tr.dim == 10001 > MAX_DENSE_DIM
    with pytest.raises(SizeLimitExceeded):
        tr.eigensystem
    with pytest.raises(SizeLimitExceeded):
        tr.matrix
    with pytest.raises(SizeLimitExceeded):
        J.truncate(MAX_WINDOW_DIM // 2)


def test_chebyshev_order_refuses_a_light_cone_wider_than_any_window():
    # K >= floor(|x|), and a window of 2K + 1 rows would exceed
    # MAX_WINDOW_DIM: refused before the 48 bytes per unit of x are allocated
    for x in (MAX_WINDOW_DIM / 2, -1e8, float("inf")):
        with pytest.raises(SizeLimitExceeded):
            chebyshev_order(x)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), q=st.integers(1, 4), lo=st.integers(-6, 0),
       width=st.integers(1, 20), t=st.floats(-8.0, 8.0), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_chebyshev_matches_spectral(m, q, lo, width, t, k, seed):
    rng = np.random.default_rng(seed)
    J = build_operator(random_spec(rng, m, q))
    cheb = TruncatedOperator(J, lo, lo + width - 1)
    w, u = TruncatedOperator(J, lo, lo + width - 1).eigensystem
    block = rng.standard_normal((cheb.dim, k)) + 1j * rng.standard_normal((cheb.dim, k))
    block /= np.linalg.norm(block, axis=0)
    vec = block[:, 0]
    spectral = u @ (np.exp(-1j * t * w)[:, None] * (u.conj().T @ block))

    for v, ref in ((vec, spectral[:, 0]), (block, spectral)):
        out = cheb.propagate(v, t)
        assert out.shape == v.shape
        assert np.max(np.abs(out - ref)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(cheb.propagate(out, -t) - v)) < 1e-12
        assert np.array_equal(cheb.propagate(v, 0.0), v)
    # the spectral route is the reference; Chebyshev never diagonalizes
    assert "eigensystem" not in cheb.__dict__


def test_chebyshev_tail_and_coefficients():
    from scipy.special import jv

    for x in (0.0, 1e-3, 0.7, 12.0, -75.0, 1200.0):
        coef = _chebyshev_coefficients(x)
        K = len(coef) - 1
        ks = np.arange(K + 1)
        ref = (-1j) ** ks * jv(ks, x) * np.where(ks > 0, 2.0, 1.0)
        assert np.max(np.abs(coef - ref)) < 1e-12
        # the neglected tail is below the tolerance, and the bound behind K
        # costs at most a few orders over the smallest adequate K
        orders = np.arange(int(2 * abs(x)) + 200)
        tails = 2.0 * np.cumsum(np.abs(jv(orders, x))[::-1])[::-1]
        assert tails[K + 1] < CHEBYSHEV_TAIL
        k_min = int(np.argmax(tails <= CHEBYSHEV_TAIL)) - 1
        assert K <= k_min + 3 + 0.01 * abs(x)


def test_embed_rejects_outside_support():
    J = free_laplacian()
    tr = J.truncate(4)
    with pytest.raises(SupportOutsideWindow):
        tr.embed(WavePacket.delta_scalar(9, 1))


# --- wave packets --------------------------------------------------------------


def test_scalar_index_convention():
    # scalar n maps to block floor(n/m), component n mod m
    p = WavePacket.delta_scalar(-1, 2)
    assert p.support() == (-1, -1)
    assert reference.block(p, -1)[1] == 1.0
    # and to row n - lo m of a window starting at block site lo
    J2 = build_operator(BlockSpec(m=2, q=1, a=[np.eye(2)], b=np.zeros((1, 2, 2))))
    tr = J2.truncate(2)
    assert np.flatnonzero(tr.embed(p)).tolist() == [-1 - tr.window[0] * 2]
    p2 = WavePacket.delta_scalar(4, 2)
    assert p2.support() == (2, 2)
    assert reference.block(p2, 2)[0] == 1.0


def test_packet_arithmetic_and_inner():
    a = WavePacket.delta_scalar(0, 1)
    b = WavePacket.delta_scalar(3, 1)
    s = reference.add(a, reference.scale(2.0, b))
    assert s.norm() == pytest.approx(np.sqrt(5.0))
    assert reference.inner(s, a) == pytest.approx(1.0)
    assert reference.inner(a, reference.scale(1j, s)) == pytest.approx(1j)


def test_packet_trim():
    c = np.array([[1e-20], [1.0], [0.0]], dtype=complex)
    p = WavePacket(-5, c).trimmed(1e-15)
    assert p.support() == (-4, -4)
