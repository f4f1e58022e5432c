"""Bloch fibers, band structure, and the asymptotic velocity operator.

A q-periodic operator diagonalizes over quasi-momentum theta into mq x mq
fibers J_theta (and the current operator into A_theta). Band curves are the
fiber eigenvalues matched across the grid by eigenvector overlap; band
velocities are q * dlambda/dtheta, which coincide with <v, A_theta v> on the
fiber eigenvectors away from degeneracies.

The asymptotic velocity operator acts fiberwise as the part of A_theta that
is block-diagonal with respect to the spectral clusters of J_theta; its norm
is the maximal band speed and bounds every transport light cone from below.

Neighbouring fibers are matched by the permutation of largest total overlap.
The row-wise largest overlaps already give it whenever each exceeds
1/sqrt(2) (see _match_order); scipy's linear_sum_assignment is imported only
for a pair of fibers where that certificate fails, which happens at exact
crossings on grid points.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .blockjacobi import BlockJacobiOperator, WavePacket
from .errors import GridTooCoarse

MIN_GRID = 16
DEGENERACY_TOL = 1e-8
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Grids and fibers
# ---------------------------------------------------------------------------


def check_grid(grid_size) -> int:
    """The grid size as an int; raises GridTooCoarse unless it is an integer
    of at least MIN_GRID."""
    if isinstance(grid_size, bool) or not isinstance(grid_size, numbers.Integral):
        raise GridTooCoarse(f"grid size must be an integer, got {grid_size!r}")
    G = int(grid_size)
    if G < MIN_GRID:
        raise GridTooCoarse(f"grid size {G} below minimum {MIN_GRID}")
    return G


def _theta_grid(G):
    """The uniform grid 2 pi g / G, g = 0..G-1, of [0, 2pi)."""
    return 2.0 * np.pi * np.arange(G) / G


def fiber_matrices(J: BlockJacobiOperator, theta):
    """Assemble the mq x mq fiber matrices (J_theta, A_theta).

    The coupling of fiber slot k to k+1 carries the block a[k]; only the
    wrap-around slot q-1 -> 0 carries a phase. With J_0, A_0 the
    theta-independent part and C the block a[q-1] at slot (q-1, 0),

        J_theta = J_0 + e^{i theta} C + e^{-i theta} C^*,
        A_theta = A_0 + i (e^{i theta} C - e^{-i theta} C^*).

    For q <= 2 the wrap lands on an already occupied entry and the
    contributions add.

    theta broadcasts: a scalar gives two (mq, mq) matrices, an array gives
    two stacks of shape theta.shape + (mq, mq) whose entries equal the
    scalar calls bit for bit.
    """
    m, q = J.m, J.q
    a, b = J.spec.a, J.spec.b
    dim = m * q
    j0 = np.zeros((dim, dim), dtype=complex)
    a0 = np.zeros((dim, dim), dtype=complex)
    for k in range(q):
        sl = slice(k * m, (k + 1) * m)
        j0[sl, sl] += b[k]
    for k in range(q - 1):
        sl, sr = slice(k * m, (k + 1) * m), slice((k + 1) * m, (k + 2) * m)
        j0[sl, sr] += a[k]
        j0[sr, sl] += a[k].conj().T
        a0[sl, sr] += 1j * a[k]
        a0[sr, sl] += -1j * a[k].conj().T

    theta = np.asarray(theta, dtype=float)
    ph = np.exp(1j * theta)[..., None, None]
    jf = np.broadcast_to(j0, theta.shape + j0.shape).copy()
    af = np.broadcast_to(a0, theta.shape + a0.shape).copy()
    first, last = slice(0, m), slice(dim - m, dim)
    c = a[q - 1]
    jf[..., last, first] += ph * c
    jf[..., first, last] += np.conj(ph) * c.conj().T
    af[..., last, first] += 1j * ph * c
    af[..., first, last] += -1j * np.conj(ph) * c.conj().T
    return jf, af


@dataclass(frozen=True)
class FloquetFiber:
    """Fiber matrices at one quasi-momentum with their eigendecomposition."""

    theta: float
    j_matrix: np.ndarray
    a_matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_fiber(J: BlockJacobiOperator, theta: float) -> FloquetFiber:
    """Fiber at theta in [0, 2pi) with eigenpairs attached (ascending)."""
    if not 0.0 <= theta < 2.0 * np.pi:
        raise ValueError(f"theta must lie in [0, 2pi), got {theta}")
    jf, af = fiber_matrices(J, theta)
    w, v = np.linalg.eigh(jf)
    return FloquetFiber(theta=float(theta), j_matrix=jf, a_matrix=af, eigenvalues=w, eigenvectors=v)


def _clusters(eigenvalues, tol=DEGENERACY_TOL):
    """Split ascending eigenvalues into groups separated by gaps >= tol."""
    groups = []
    start = 0
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] >= tol:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, len(eigenvalues)))
    return groups


def _fiber_data(J, thetas, tol=DEGENERACY_TOL):
    """Eigenpairs and cluster-resolved band velocities on a 1-D theta array,
    from one stacked eigensolve.

    Returns (w, v, compressed, vel, flagged), stacked over theta: ascending
    eigenvalues, eigenvectors, the current in the eigenbasis v^* A_theta v,
    the band velocities, and flags for the fibers that hold a spectral
    cluster (an eigenvalue gap below tol).

    Inside a cluster the raw diagonal <v_j, A v_j> depends on the arbitrary
    basis returned by the eigensolver; the eigenvalues of the compressed
    current matrix on the cluster are the analytic band slopes (times q), so
    those are reported instead. Only the flagged fibers take that path.
    """
    jf, af = fiber_matrices(J, thetas)
    w, v = np.linalg.eigh(jf)
    del jf
    compressed = np.swapaxes(v.conj(), -1, -2) @ af @ v
    del af
    vel = np.real(np.diagonal(compressed, axis1=-2, axis2=-1)).copy()
    flagged = ~np.all(np.diff(w, axis=-1) >= tol, axis=-1)
    for g in np.flatnonzero(flagged):
        for sl in _clusters(w[g], tol):
            if sl.stop - sl.start > 1:
                vel[g, sl] = np.sort(np.linalg.eigvalsh(compressed[g, sl, sl]))
    return w, v, compressed, vel, flagged


# ---------------------------------------------------------------------------
# Band structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandStructure:
    """Matched band curves on a uniform quasi-momentum grid.

    bands[g, j] is the j-th matched curve at thetas[g]; velocities carry
    q * dlambda/dtheta per curve (Hellmann-Feynman away from flagged points,
    symmetric differences of the matched curves at flagged points).
    closing_permutation maps curve labels at the last grid point to their
    continuations at theta = 2pi, which need not be the identity: curves may
    braid over one period.
    """

    thetas: np.ndarray
    bands: np.ndarray
    velocities: np.ndarray
    degenerate: np.ndarray
    gap_tol: float
    closing_permutation: np.ndarray

    @property
    def grid_size(self):
        return len(self.thetas)

    def level_crossings(self, lam: float) -> int:
        """Count sign changes of the matched curves through the level lam,
        following each curve around the full circle via the closing
        permutation."""
        signs = np.sign(self.bands - lam)
        total = int(np.sum(signs[1:] * signs[:-1] < 0))
        wrapped = signs[-1, :] * signs[0, self.closing_permutation] < 0
        return total + int(np.sum(wrapped))


# A hair above 1/sqrt(2), so that roundoff in the overlaps cannot decide
# whether a greedy match is certified.
MATCH_CERTIFICATE = 1.0 / np.sqrt(2.0) + 1e-9


def _match_order(v_prev, v_next):
    """perm[i] = the column of v_next that continues column i of v_prev: the
    permutation maximizing the summed overlaps |<v_prev_i, v_next_perm(i)>|.

    The overlap matrix is the modulus of a unitary, so its rows and columns
    have unit 2-norm, and each row or column holds at most one entry above
    1/sqrt(2). When every row holds one (the certificate), those entries form
    a permutation that beats every other one row by row: the unique optimum
    of the assignment problem. Only when the certificate fails is scipy's
    linear_sum_assignment imported and called.
    """
    overlap = np.abs(v_prev.conj().T @ v_next)
    rows, cols = np.nonzero(overlap > MATCH_CERTIFICATE)
    if len(rows) == len(overlap):
        return cols
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(len(rows), dtype=int)
    perm[rows] = cols
    return perm


def band_structure(J: BlockJacobiOperator, grid_size: int,
                   gap_tol: float = DEGENERACY_TOL) -> BandStructure:
    """Compute matched bands and velocities on a uniform grid of [0, 2pi)."""
    G = check_grid(grid_size)
    thetas = _theta_grid(G)
    w, v, _, vel, degenerate = _fiber_data(J, thetas, gap_tol)

    bands = np.empty_like(w)
    velocities = np.empty_like(vel)
    # col_of_label[j] = eigen-column of the current fiber carrying curve j
    col_of_label = np.arange(J.m * J.q)
    for g in range(G):
        if g > 0:
            col_of_label = _match_order(v[g - 1], v[g])[col_of_label]
        bands[g] = w[g, col_of_label]
        velocities[g] = vel[g, col_of_label]

    # curve j at the last grid point continues at theta = 2pi into curve
    # closing_permutation[j] of the first grid point
    closing_permutation = _match_order(v[-1], v[0])[col_of_label]

    # flagged points: replace velocities by symmetric differences of the
    # matched curves (cyclically, honoring the closing permutation)
    dtheta = 2.0 * np.pi / G
    qf = float(J.q)
    for g in np.nonzero(degenerate)[0]:
        nxt = bands[g + 1] if g + 1 < G else bands[0][closing_permutation]
        prv = bands[g - 1] if g - 1 >= 0 else bands[-1][np.argsort(closing_permutation)]
        velocities[g] = qf * (nxt - prv) / (2.0 * dtheta)

    return BandStructure(
        thetas=thetas,
        bands=bands,
        velocities=velocities,
        degenerate=degenerate,
        gap_tol=gap_tol,
        closing_permutation=closing_permutation,
    )


# ---------------------------------------------------------------------------
# Maximal band speed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VelocityMaximum:
    value: float
    theta: float
    band: int


def _max_speeds(J, thetas):
    """Per theta of a 1-D array: the largest |band velocity| and its band."""
    _, _, _, vel, _ = _fiber_data(J, thetas)
    speeds = np.abs(vel)
    bands = np.argmax(speeds, axis=-1)
    return np.take_along_axis(speeds, bands[:, None], axis=-1)[:, 0], bands


def _max_speed_at(J, theta):
    values, bands = _max_speeds(J, [theta % (2.0 * np.pi)])
    return float(values[0]), int(bands[0])


def velocity_maximum(J: BlockJacobiOperator, grid_size: int = 512,
                     refine_iters: int = 80) -> VelocityMaximum:
    """Maximal |band velocity|: coarse grid scan plus golden-section refinement
    of the winning bracket."""
    G = check_grid(grid_size)
    thetas = _theta_grid(G)
    values, bands = _max_speeds(J, thetas)
    g_star = int(np.argmax(values))
    best_val = float(values[g_star])
    best_theta = float(thetas[g_star])
    best_band = int(bands[g_star])

    # golden-section maximization on the bracketing cell around the grid argmax
    h = 2.0 * np.pi / G
    a, b = thetas[g_star] - h, thetas[g_star] + h
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, _ = _max_speed_at(J, x1)
    f2, _ = _max_speed_at(J, x2)
    for _ in range(refine_iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2, _ = _max_speed_at(J, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1, _ = _max_speed_at(J, x1)
    x_ref = 0.5 * (a + b)
    f_ref, band_ref = _max_speed_at(J, x_ref)
    if f_ref > best_val:
        best_val, best_theta, best_band = f_ref, x_ref % (2.0 * np.pi), band_ref
    return VelocityMaximum(value=best_val, theta=best_theta, band=best_band)


def q_norm(J: BlockJacobiOperator, grid_size: int = 512) -> float:
    """Norm of the asymptotic velocity operator: sup over bands and theta of
    |q * dlambda/dtheta|."""
    return velocity_maximum(J, grid_size=grid_size).value


# ---------------------------------------------------------------------------
# Floquet transform and the velocity operator applied to packets
# ---------------------------------------------------------------------------


def floquet_transform(J: BlockJacobiOperator, psi: WavePacket, thetas) -> np.ndarray:
    """Sampled transform (F psi)_k(theta) = sum_l psi_{k+lq} e^{-il theta};
    returns an array of shape (len(thetas), q, m)."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros((len(thetas), J.q, J.m), dtype=complex)
    for i, s in enumerate(psi.sites):
        k = s % J.q
        l = s // J.q
        out[:, k, :] += np.exp(-1j * l * thetas)[:, None] * psi.coeffs[i]
    return out


def floquet_parseval_check(J: BlockJacobiOperator, psi: WavePacket, grid_size: int) -> float:
    """|trapezoid of ||F psi(theta)||^2 - ||psi||^2| on the uniform grid."""
    G = check_grid(grid_size)
    hat = floquet_transform(J, psi, _theta_grid(G))
    quad = float(np.mean(np.sum(np.abs(hat) ** 2, axis=(1, 2))))
    return abs(quad - psi.norm() ** 2)


def _velocity_fibers_apply(J, thetas, hat, absolute=False):
    """Apply the fibers of the asymptotic velocity operator (or of its
    absolute value) to the stacked vectors hat[g] at thetas[g].

    The velocity fiber is the part of A_theta that is block-diagonal with
    respect to the spectral clusters of J_theta. Off the flagged fibers every
    cluster is one eigenvector and the fiber is diagonal in the eigenbasis,
    with the band velocities on the diagonal.
    """
    w, v, compressed, vel, flagged = _fiber_data(J, thetas)
    coords = (np.swapaxes(v.conj(), -1, -2) @ hat[..., None])[..., 0]
    out = (np.abs(vel) if absolute else vel) * coords
    for g in np.flatnonzero(flagged):
        for sl in _clusters(w[g]):
            if sl.stop - sl.start == 1:
                continue
            blk = compressed[g, sl, sl]
            if absolute:
                d, u = np.linalg.eigh(0.5 * (blk + blk.conj().T))
                blk = u @ (np.abs(d)[:, None] * u.conj().T)
            out[g, sl] = blk @ coords[g, sl]
    return (v @ out[..., None])[..., 0]


@dataclass(frozen=True)
class QApplication:
    """Result of applying the asymptotic velocity operator on a grid."""

    packet: WavePacket
    grid_size: int
    quadrature_error: float
    tail_mass: float


def _apply_q_raw(J, psi, G, absolute=False):
    thetas = _theta_grid(G)
    hat = floquet_transform(J, psi, thetas).reshape(G, J.q * J.m)
    y = _velocity_fibers_apply(J, thetas, hat, absolute).reshape(G, J.q, J.m)
    ls = np.arange(-(G // 2), G - G // 2)
    phases = np.exp(1j * np.outer(ls, thetas)) / G
    coeff = np.einsum("lg,gkm->lkm", phases, y)
    blocks = coeff.reshape(len(ls) * J.q, J.m)
    base = int(ls[0]) * J.q
    return WavePacket(base, blocks)


def apply_q(J: BlockJacobiOperator, psi: WavePacket, grid_size: int = 512,
            tol: float = 1e-8, coeff_floor: float = 1e-12) -> QApplication:
    """Apply the asymptotic velocity operator to a finitely supported packet.

    Transforms psi to the fiber grid, multiplies by the velocity fiber, and
    inverse-transforms. The quadrature error is estimated against the half
    grid; coefficients below coeff_floor are dropped and reported as tail
    mass. Raises GridTooCoarse when the error estimate exceeds tol.
    """
    G = check_grid(grid_size)
    full = _apply_q_raw(J, psi, G)
    half = _apply_q_raw(J, psi, max(G // 2, 8))  # error estimator only
    err = (full - half).norm()
    packet = full.trimmed(coeff_floor)
    tail = max(full.norm() ** 2 - packet.norm() ** 2, 0.0)
    if err > tol:
        raise GridTooCoarse(
            f"velocity-operator quadrature error {err:.3e} exceeds tolerance {tol:.3e} at grid {G}"
        )
    return QApplication(packet=packet, grid_size=G, quadrature_error=float(err),
                        tail_mass=float(tail))


def abs_velocity_expectation(J: BlockJacobiOperator, psi: WavePacket,
                             grid_size: int = 2048) -> float:
    """<psi, |Q| psi> by fiberwise quadrature, |Q| taken spectrally per fiber."""
    G = check_grid(grid_size)
    thetas = _theta_grid(G)
    hat = floquet_transform(J, psi, thetas).reshape(G, J.q * J.m)
    qhat = _velocity_fibers_apply(J, thetas, hat, absolute=True)
    return float(np.mean(np.real(np.sum(hat.conj() * qhat, axis=-1))))
