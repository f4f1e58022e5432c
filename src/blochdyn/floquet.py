"""Bloch fibers, band structure, and the asymptotic velocity operator.

A q-periodic operator diagonalizes over quasi-momentum theta into mq x mq
fibers J_theta (and the current operator into A_theta). Band curves are the
fiber eigenvalues matched across the grid by eigenvector overlap; band
velocities are q * dlambda/dtheta, which coincide with <v, A_theta v> on the
fiber eigenvectors.

The asymptotic velocity operator acts fiberwise as the part of A_theta that
is block-diagonal with respect to the spectral clusters of J_theta; its norm
is the maximal band speed and bounds every transport light cone from below.
Each cluster's eigenvectors are turned onto those of the compressed current,
which continue the band curves through the crossing, so every fiber's basis
diagonalizes the velocity operator.

Fibers share the window assembler (blockjacobi.block_tridiagonal and
position_commutator); only the wrap block carries the phase. A scan
assembles and eigensolves its fibers in consecutive slices of the theta
grid, each stack holding at most SCAN_ENTRIES matrix entries, so its memory
does not grow with the grid. The maximal band speed zooms in on its grid argmax: each round is
one scan across a bracket around the best point so far, an eighth as wide as
the one before.

Neighbouring fibers are matched by the permutation of largest total overlap.
The row-wise largest overlaps already give it whenever each exceeds
1/sqrt(2) (see _match_order), crossings on grid points included; scipy's
linear_sum_assignment is imported only where eigenvectors turn by more than
45 degrees (coarse grids, or a cluster whose compressed current is itself
degenerate).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .blockjacobi import (
    MAX_DENSE_DIM,
    BlockJacobiOperator,
    WavePacket,
    block_tridiagonal,
    position_commutator,
)
from .errors import GridTooCoarse, QuadratureNotConverged, SizeLimitExceeded

MIN_GRID = 16
DEGENERACY_TOL = 1e-8
ZOOM_ROUNDS = 10  # batched scans refining velocity_maximum's grid argmax
ZOOM_POINTS = 17  # fibers per scan
SCAN_ENTRIES = 2**16  # matrix entries per fiber stack of a scan slice
Q_COEFF_FLOOR = 1e-12  # apply_q drops smaller coefficients


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


def _check_stack(count, dim):
    """SizeLimitExceeded if count fibers of dim x dim hold more than
    MAX_DENSE_DIM^2 entries."""
    if count * dim**2 > MAX_DENSE_DIM**2:
        raise SizeLimitExceeded(f"{count} fibers of {dim}x{dim} need "
                                f"{count * dim**2} entries per stack "
                                f"(limit {MAX_DENSE_DIM**2})")


def _scan_slices(J, count):
    """Consecutive slices covering a scan of count fibers, each of at most
    SCAN_ENTRIES entries and at least one fiber. The whole scan is held to
    fiber_matrices' size rule here, before anything is allocated."""
    dim = J.m * J.q
    _check_stack(count, dim)
    step = max(1, SCAN_ENTRIES // dim**2)
    return [slice(start, start + step) for start in range(0, count, step)]


def fiber_matrices(J: BlockJacobiOperator, theta):
    """Assemble the mq x mq fiber matrices (J_theta, A_theta).

    The coupling of fiber slot k to k+1 carries the block a[k]; only the
    wrap-around slot q-1 -> 0 carries a phase. With J_0 the window matrix of
    b and a[:-1], A_0 its current at the slot positions and C the block
    a[q-1] at slot (q-1, 0),

        J_theta = J_0 + e^{i theta} C + e^{-i theta} C^*,
        A_theta = A_0 + i (e^{i theta} C - e^{-i theta} C^*).

    For q <= 2 the wrap lands on an already occupied entry and the
    contributions add.

    theta broadcasts: a scalar gives two (mq, mq) matrices, an array gives
    two stacks of shape theta.shape + (mq, mq) whose entries equal the
    scalar calls bit for bit. A stack larger than the largest dense matrix,
    MAX_DENSE_DIM^2 entries, raises SizeLimitExceeded before anything is
    allocated.
    """
    m, q = J.m, J.q
    a, b = J.spec.a, J.spec.b
    dim = m * q
    theta = np.asarray(theta, dtype=float)
    _check_stack(theta.size, dim)
    j0 = block_tridiagonal(b, a[:-1])
    a0 = 1j * position_commutator(j0, np.repeat(np.arange(q), m))
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


def _clusters(eigenvalues):
    """Split ascending eigenvalues into groups separated by gaps >= DEGENERACY_TOL."""
    groups = []
    start = 0
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] >= DEGENERACY_TOL:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, len(eigenvalues)))
    return groups


def _fiber_data(J, thetas):
    """Eigenpairs and band velocities on a 1-D theta array, from one stacked
    eigensolve: (w, v, vel, flagged) stacked over theta, flagged marking the
    fibers that hold a spectral cluster (a gap below DEGENERACY_TOL).

    The eigensolver's basis of a cluster is arbitrary; it is turned onto the
    eigenvectors of the current compressed to the cluster, which continue the
    band curves analytically, and their eigenvalues are the band velocities.
    """
    jf, af = fiber_matrices(J, thetas)
    w, v = np.linalg.eigh(jf)
    del jf
    compressed = np.swapaxes(v.conj(), -1, -2) @ af @ v
    del af
    vel = np.real(np.diagonal(compressed, axis1=-2, axis2=-1)).copy()
    flagged = ~np.all(np.diff(w, axis=-1) >= DEGENERACY_TOL, axis=-1)
    for g in np.flatnonzero(flagged):
        for sl in _clusters(w[g]):
            if sl.stop - sl.start > 1:
                vel[g, sl], rot = np.linalg.eigh(compressed[g, sl, sl])
                v[g, :, sl] = v[g, :, sl] @ rot
    return w, v, vel, flagged


# ---------------------------------------------------------------------------
# Band structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandStructure:
    """Matched band curves on a uniform quasi-momentum grid.

    bands[g, j] is the j-th matched curve at thetas[g]; velocities carry
    q * dlambda/dtheta per curve (Hellmann-Feynman on the fiber basis of
    _fiber_data, flagged points included).
    closing_permutation maps curve labels at the last grid point to their
    continuations at theta = 2pi, which need not be the identity: curves may
    braid over one period.
    """

    thetas: np.ndarray
    bands: np.ndarray
    velocities: np.ndarray
    degenerate: np.ndarray
    closing_permutation: np.ndarray

    @property
    def grid_size(self):
        return len(self.thetas)


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


def band_structure(J: BlockJacobiOperator, grid_size: int) -> BandStructure:
    """Compute matched bands and velocities on a uniform grid of [0, 2pi)."""
    G = check_grid(grid_size)
    thetas = _theta_grid(G)
    n = J.m * J.q
    slices = _scan_slices(J, G)
    bands, velocities = np.empty((G, n)), np.empty((G, n))
    degenerate = np.empty(G, dtype=bool)
    # col_of_label[j] = eigen-column of the current fiber carrying curve j
    col_of_label = np.arange(n)
    for sl in slices:
        w, v, vel, degenerate[sl] = _fiber_data(J, thetas[sl])
        for g, (wg, vg, velg) in enumerate(zip(w, v, vel), start=sl.start):
            if g == 0:
                first = vg.copy()
            else:
                col_of_label = _match_order(prev, vg)[col_of_label]
            bands[g] = wg[col_of_label]
            velocities[g] = velg[col_of_label]
            prev = vg

    # curve j at the last grid point continues at theta = 2pi into curve
    # closing_permutation[j] of the first grid point
    closing_permutation = _match_order(prev, first)[col_of_label]

    return BandStructure(
        thetas=thetas,
        bands=bands,
        velocities=velocities,
        degenerate=degenerate,
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
    slices = _scan_slices(J, len(thetas))
    values, bands = np.empty(len(thetas)), np.empty(len(thetas), dtype=np.intp)
    for sl in slices:
        speeds = np.abs(_fiber_data(J, thetas[sl])[2])
        bands[sl] = np.argmax(speeds, axis=-1)
        values[sl] = np.max(speeds, axis=-1)
    return values, bands


def velocity_maximum(J: BlockJacobiOperator, grid_size: int = 512) -> VelocityMaximum:
    """Maximal |band velocity|: a scan of the uniform grid, then ZOOM_ROUNDS
    scans of ZOOM_POINTS fibers across the best point so far +- the last
    scan's spacing; a point replaces the best only when strictly faster."""
    G = check_grid(grid_size)
    thetas, half = _theta_grid(G), 2.0 * np.pi / G
    best_val, best_theta, best_band = -np.inf, 0.0, 0
    for _ in range(ZOOM_ROUNDS + 1):
        values, bands = _max_speeds(J, thetas)
        g = int(np.argmax(values))
        if values[g] > best_val:
            best_val, best_theta, best_band = float(values[g]), float(thetas[g]), int(bands[g])
        thetas = (best_theta + np.linspace(-half, half, ZOOM_POINTS)) % (2.0 * np.pi)
        half *= 2.0 / (ZOOM_POINTS - 1)
    return VelocityMaximum(value=best_val, theta=best_theta, band=best_band)


def q_norm(J: BlockJacobiOperator, grid_size: int = 512) -> float:
    """Norm of the asymptotic velocity operator: sup over bands and theta of
    |q * dlambda/dtheta|."""
    return velocity_maximum(J, grid_size=grid_size).value


# ---------------------------------------------------------------------------
# Floquet transform and the velocity operator applied to packets
# ---------------------------------------------------------------------------


def floquet_transform(J: BlockJacobiOperator, psi: WavePacket, G: int) -> np.ndarray:
    """Sampled transform (F psi)_k(theta) = sum_l psi_{k+lq} e^{-il theta} on
    the uniform grid theta = 2 pi g / G; returns an array of shape (G, q, m).

    e^{-il theta} depends on the cell l only mod G there, so the packet's
    cells are folded mod G and one FFT over the cell axis gives every theta.
    """
    sites = psi.sites
    cells = np.zeros((G, J.q, J.m), dtype=complex)
    np.add.at(cells, (sites // J.q % G, sites % J.q), psi.coeffs)
    return np.fft.fft(cells, axis=0)


def _velocity_fibers_apply(J, thetas, hat):
    """Apply the fibers of the asymptotic velocity operator to the stacked
    vectors hat[g] at thetas[g].

    The velocity fiber is the part of A_theta that is block-diagonal with
    respect to the spectral clusters of J_theta: diagonal in the fiber basis
    of _fiber_data, with the band velocities on the diagonal.
    """
    slices = _scan_slices(J, len(thetas))
    out = np.empty_like(hat)
    for sl in slices:
        _, v, vel, _ = _fiber_data(J, thetas[sl])
        coords = (np.swapaxes(v.conj(), -1, -2) @ hat[sl, :, None])[..., 0]
        out[sl] = (v @ (vel * coords)[..., None])[..., 0]
    return out


@dataclass(frozen=True)
class QApplication:
    """Result of applying the asymptotic velocity operator on a grid."""

    packet: WavePacket
    quadrature_error: float


def _apply_q_raw(J, psi, G):
    """Q psi on the cells -(G // 2) .. G - G // 2 - 1: the inverse FFT of the
    velocity fibers applied to F psi, rolled so that cell -(G // 2) comes first."""
    thetas = _theta_grid(G)
    hat = floquet_transform(J, psi, G).reshape(G, J.q * J.m)
    y = _velocity_fibers_apply(J, thetas, hat)
    coeff = np.roll(np.fft.ifft(y, axis=0), G // 2, axis=0)
    return WavePacket(-(G // 2) * J.q, coeff.reshape(G * J.q, J.m))


def apply_q(J: BlockJacobiOperator, psi: WavePacket, grid_size: int = 512,
            tol: float = 1e-8) -> QApplication:
    """Apply the asymptotic velocity operator to a finitely supported packet.

    Transforms psi to the fiber grid, multiplies by the velocity fiber, and
    inverse-transforms. The quadrature error is estimated against the half
    grid; coefficients below Q_COEFF_FLOOR are dropped. Raises
    QuadratureNotConverged when the error estimate exceeds tol.
    """
    G = check_grid(grid_size)
    full = _apply_q_raw(J, psi, G)
    half = _apply_q_raw(J, psi, G // 2)  # error estimator only
    packet = full.trimmed(Q_COEFF_FLOOR)
    # the half grid's cells lie inside the full grid's
    off = half.base - full.base
    full.coeffs[off : off + len(half.coeffs)] -= half.coeffs
    err = full.norm()
    if err > tol:
        raise QuadratureNotConverged(
            f"velocity-operator quadrature error {err:.3e} exceeds tolerance {tol:.3e} at grid {G}"
        )
    return QApplication(packet=packet, quadrature_error=float(err))
