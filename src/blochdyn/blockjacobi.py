"""Periodic block Jacobi operators, wave packets, and window truncations.

An operator acts on square-summable sequences of complex m-vectors by

    (J u)_n = a(n-1)^* u_{n-1} + b(n) u_n + a(n) u_{n+1},

with q-periodic blocks: site n uses the stored blocks a[n mod q], b[n mod q],
so site 0 carries the first listed pair. The associated current operator is

    (A u)_n = -i a(n-1)^* u_{n-1} + i a(n) u_{n+1},

which equals i[J, X] with X the block-site position operator. Both act
through their Bloch fibers (floquet.fiber_matrices), which follow these two
formulas, and J through its window truncations.

Scalar indexing convention: scalar index n corresponds to block site
floor(n/m) and component n mod m, so X acts on the scalar basis vector
delta_n by multiplication with floor(n/m).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianDiagonal,
    SingularOffDiagonal,
    SizeLimitExceeded,
    SpecError,
    SupportOutsideWindow,
)

DET_TOL = 1e-12
HERMITICITY_TOL = 1e-12
MAX_DENSE_DIM = 8192
MAX_WINDOW_DIM = 2**22
CHEBYSHEV_TAIL = 1e-15


# ---------------------------------------------------------------------------
# Block specification
# ---------------------------------------------------------------------------


def _block_array(blocks, m, q, name):
    try:
        arr = np.array(blocks, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name}: cannot interpret blocks as complex arrays") from exc
    if arr.shape != (q, m, m):
        raise DimensionMismatch(
            f"{name}: expected {q} blocks of shape {m}x{m}, got array of shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{name}: block entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BlockSpec:
    """One period of blocks defining a q-periodic block Jacobi operator.

    Attributes
    ----------
    m : block dimension (positive)
    q : period (positive)
    a : (q, m, m) off-diagonal blocks, all invertible
    b : (q, m, m) Hermitian diagonal blocks
    """

    m: int
    q: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.m, numbers.Integral) and self.m >= 1):
            raise DimensionMismatch(f"block dimension m must be a positive integer, got {self.m!r}")
        if not (isinstance(self.q, numbers.Integral) and self.q >= 1):
            raise DimensionMismatch(f"period q must be a positive integer, got {self.q!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "a", _block_array(self.a, self.m, self.q, "a"))
        object.__setattr__(self, "b", _block_array(self.b, self.m, self.q, "b"))

    def validate(self):
        """Check the invertibility and Hermiticity invariants; the error names
        the first failing block, its off-diagonal block checked first."""
        dets = np.abs(np.linalg.det(self.a))
        devs = np.max(np.abs(self.b - np.conj(np.swapaxes(self.b, 1, 2))), axis=(1, 2))
        singular = dets <= DET_TOL
        bad = np.flatnonzero(singular | (devs >= HERMITICITY_TOL))
        if bad.size:
            j = bad[0]
            if singular[j]:
                raise SingularOffDiagonal(
                    f"off-diagonal block {j} has |det| = {dets[j]:.3e} <= {DET_TOL}")
            raise NonHermitianDiagonal(
                f"diagonal block {j} deviates from Hermitian by {devs[j]:.3e}")
        return self

    @classmethod
    def from_json_dict(cls, data):
        """The spec of a JSON object {"m": int, "q": int, "a": [block...],
        "b": [block...]}, each block a row-major flat list of m*m [re, im]
        pairs."""
        if set(data) != {"m", "q", "a", "b"}:
            raise DimensionMismatch(f"spec JSON must have exactly the keys a, b, m, q, "
                                    f"got {sorted(data)}")
        m, q = data["m"], data["q"]
        for name, value in (("m", m), ("q", q)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise DimensionMismatch(f"spec JSON {name} must be an integer >= 1, "
                                        f"got {value!r}")

        def decode(entries, name):
            if not isinstance(entries, list) or len(entries) != q:
                raise DimensionMismatch(f"{name}: expected a list of {q} blocks")
            blocks = np.empty((q, m, m), dtype=complex)
            for j, blk in enumerate(entries):
                if not isinstance(blk, list) or len(blk) != m * m:
                    raise DimensionMismatch(
                        f"{name}[{j}]: expected {m * m} row-major [re, im] pairs"
                    )
                try:
                    flat = np.array([complex(re, im) for re, im in blk])
                except (TypeError, ValueError) as exc:
                    raise DimensionMismatch(f"{name}[{j}]: malformed [re, im] pair") from exc
                blocks[j] = flat.reshape(m, m)
            return blocks

        return cls(m=m, q=q, a=decode(data["a"], "a"), b=decode(data["b"], "b"))


def scalar_spec(potential):
    """Scalar (m=1) spec from a periodic potential sequence, with hopping 1."""
    pot = np.atleast_1d(np.asarray(potential, dtype=float))
    q = len(pot)
    a = np.ones((q, 1, 1), dtype=complex)
    b = pot.reshape(q, 1, 1).astype(complex)
    return BlockSpec(m=1, q=q, a=a, b=b)


# ---------------------------------------------------------------------------
# Wave packets
# ---------------------------------------------------------------------------


class WavePacket:
    """Finitely supported vector in l^2(Z)^m.

    Stores a contiguous run of block coefficients starting at block site
    `base`; everything outside is zero.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        self.base = int(base)
        self.coeffs = coeffs

    @property
    def m(self):
        return self.coeffs.shape[1]

    @property
    def sites(self):
        return np.arange(self.base, self.base + self.coeffs.shape[0])

    def support(self):
        """Smallest and largest block site carrying any stored coefficient."""
        return self.base, self.base + self.coeffs.shape[0] - 1

    def support_radius(self):
        lo, hi = self.support()
        return max(abs(lo), abs(hi))

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    @classmethod
    def delta_block(cls, site, component, m):
        c = np.zeros((1, m), dtype=complex)
        c[0, component] = 1.0
        return cls(site, c)

    @classmethod
    def delta_scalar(cls, n, m):
        """Scalar basis vector delta_n under the floor(n/m) block convention."""
        return cls.delta_block(n // m, n % m, m)

    @classmethod
    def zero(cls, m):
        return cls(0, np.zeros((1, m), dtype=complex))

    def trimmed(self, tol=0.0):
        """Drop zero-margin blocks (and blocks with norm <= tol)."""
        norms = np.linalg.norm(self.coeffs, axis=1)
        keep = np.nonzero(norms > tol)[0]
        if len(keep) == 0:
            return WavePacket.zero(self.m)
        lo, hi = keep[0], keep[-1]
        return WavePacket(self.base + lo, self.coeffs[lo : hi + 1].copy())


# ---------------------------------------------------------------------------
# The operator
# ---------------------------------------------------------------------------


class BlockJacobiOperator:
    """Validated handle for a q-periodic block Jacobi operator."""

    def __init__(self, spec: BlockSpec):
        spec.validate()
        self.spec = spec

    @property
    def m(self):
        return self.spec.m

    @property
    def q(self):
        return self.spec.q

    @cached_property
    def norm_bound(self):
        """Triangle-inequality bound max ||b|| + 2 max ||a|| on the operator norm."""
        bmax = np.linalg.norm(self.spec.b, 2, axis=(1, 2)).max()
        amax = np.linalg.norm(self.spec.a, 2, axis=(1, 2)).max()
        return float(bmax + 2.0 * amax)

    @cached_property
    def is_real(self):
        return bool(
            np.all(self.spec.a.imag == 0.0) and np.all(self.spec.b.imag == 0.0)
        )

    def truncate(self, N) -> "TruncatedOperator":
        """Restriction to block sites [-N, N] with open boundaries."""
        return TruncatedOperator(self, -int(N), int(N))


def build_operator(spec: BlockSpec) -> BlockJacobiOperator:
    """Validate a BlockSpec and return the operator handle."""
    return BlockJacobiOperator(spec)


# ---------------------------------------------------------------------------
# Window truncation
# ---------------------------------------------------------------------------


def chebyshev_order(x):
    """Order K of the Chebyshev expansion of exp(-i x y) on [-1, 1]: the last
    order before the neglected orders' Kapteyn bound
    |J_k(x)| <= (z exp(sqrt(1 - z^2)) / (1 + sqrt(1 - z^2)))^k, z = |x|/k <= 1
    (DLMF 10.14.5), doubled and summed, drops below CHEBYSHEV_TAIL. With
    x = norm_bound * t it is also the light-cone radius of an evolution over
    time t: a degree-K polynomial in J moves a packet at most K block sites.

    K >= floor(|x|), so every window sized by it holds at least 2K + 1 rows.
    When that alone exceeds MAX_WINDOW_DIM, SizeLimitExceeded is raised
    before the bound is tabulated (48 bytes per unit of |x|).
    """
    ax = abs(float(x))
    rows = 2 * np.floor(ax) + 1
    if not rows <= MAX_WINDOW_DIM:
        raise SizeLimitExceeded(f"the light cone of x = {ax:g} needs a window of at least "
                                f"{rows:.0f} rows (limit {MAX_WINDOW_DIM})")
    k = np.arange(math.floor(ax) + 1, math.ceil(2.0 * ax) + 60)
    z = ax / k
    r = np.sqrt(1.0 - z * z)
    with np.errstate(divide="ignore"):
        bound = np.exp(k * (np.log(z) + r - np.log1p(r)))
    tail = 2.0 * np.cumsum(bound[::-1])[::-1]
    return int(k[np.argmax(tail <= CHEBYSHEV_TAIL)]) - 1


def _chebyshev_coefficients(x):
    """c_k = (2 - delta_k0) (-i)^k J_k(x) for k = 0..chebyshev_order(x), so
    that exp(-i x y) = sum_k c_k T_k(y) on [-1, 1] up to CHEBYSHEV_TAIL. They
    are the Fourier coefficients of theta -> exp(-i x cos theta), read off one
    FFT of 2(K+1) samples; the orders they alias with lie in the neglected tail.
    """
    K = chebyshev_order(x)
    M = 2 * (K + 1)
    samples = np.exp(-1j * x * np.cos(2.0 * np.pi * np.arange(M) / M))
    coef = np.fft.fft(samples)[: K + 1] / M
    coef[1:] *= 2.0
    return coef


def block_tridiagonal(diag_blocks, off_blocks):
    """Dense matrix with diagonal blocks diag_blocks (n, m, m) and off_blocks
    (n - 1, m, m) above the diagonal, their adjoints below it, of the blocks'
    common dtype: float64 for real blocks, complex128 for complex ones."""
    n, m = diag_blocks.shape[:2]
    mat = np.zeros((n, m, n, m), dtype=np.result_type(diag_blocks, off_blocks))
    i = np.arange(n)
    mat[i, :, i, :] = diag_blocks
    mat[i[:-1], :, i[1:], :] = off_blocks
    mat[i[1:], :, i[:-1], :] = np.conj(np.swapaxes(off_blocks, 1, 2))
    return mat.reshape(n * m, n * m)


def position_commutator(h, x):
    """[H, X] = h_jk (x_k - x_j) of a dense h and X = diag(x), real when h is.
    The current of H is A = i[H, X]; callers apply the factor i."""
    r = (x[None, :] - x[:, None]).astype(np.result_type(h, x), copy=False)
    r *= h
    return r


def _block_matvec(diag, upper, lower, v):
    """Block-tridiagonal product on v of shape (n, m, k).

    diag[j], upper[j] and lower[j] are column j, shaped (n or n-1, m, 1), of
    the diagonal blocks, the blocks above the diagonal and those below it.
    """
    out = diag[0] * v[:, None, 0, :]
    for j in range(1, v.shape[1]):
        out += diag[j] * v[:, None, j, :]
    for j in range(v.shape[1]):
        out[:-1] += upper[j] * v[1:, None, j, :]
        out[1:] += lower[j] * v[:-1, None, j, :]
    return out


def chebyshev_propagate(diag_blocks, off_blocks, s, vec, t):
    """exp(-i t H) applied to a (rows,) vector or to the columns of a
    (rows, k) block, where H is the Hermitian block-tridiagonal matrix with
    diagonal blocks diag_blocks (n, m, m) and blocks off_blocks (n - 1, m, m)
    above the diagonal (their adjoints below it).

    Computes sum_k c_k T_k(H / s) vec for a scale s >= ||H|| by the
    three-term recurrence T_{k+1} = 2 (H/s) T_k - T_{k-1}; it is unitary up
    to roundoff and the neglected orders weigh at most CHEBYSHEV_TAIL ||vec||.
    Every operation is elementwise along the columns and the zero entries of
    H add exact zeros, so a column's result does not depend on the other
    columns, nor on decoupled blocks of rows stacked next to its own.
    """
    coef = _chebyshev_coefficients(s * t)
    m = diag_blocks.shape[1]
    v = np.asarray(vec, dtype=complex)
    cur = v.reshape(len(diag_blocks), m, -1)
    acc = coef[0] * cur
    if len(coef) > 1:
        scale = 2.0 / s
        lower_blocks = np.conj(np.swapaxes(off_blocks, 1, 2))
        diag, upper, lower = (
            [scale * blocks[:, :, j, None] for j in range(m)]
            for blocks in (diag_blocks, off_blocks, lower_blocks)
        )
        prev, cur = cur, 0.5 * _block_matvec(diag, upper, lower, cur)
        acc += coef[1] * cur
        for c in coef[2:]:
            nxt = _block_matvec(diag, upper, lower, cur)
            nxt -= prev
            acc += c * nxt
            prev, cur = cur, nxt
    return acc.reshape(v.shape)


class TruncatedOperator:
    """Hermitian open-boundary restriction of the operator to a block-site window.

    The window is stored as its per-site blocks: `diag_blocks[i]` = b(lo + i)
    and `off_blocks[i]` = a(lo + i), real when the operator is real. The dense
    matrix has the blocks' dtype (float64 for a real operator) and is built
    anew on each use, never cached; the spectral decomposition is built on
    first use and cached. Both are capped at MAX_DENSE_DIM rows, the block
    storage at MAX_WINDOW_DIM rows.

    `propagate` runs `chebyshev_propagate` on the window's blocks and never
    uses the dense matrix or `eigensystem`; a caller that spreads one
    window over many times works in `eigensystem` itself.
    All state is immutable after construction, so instances are safe to share.
    """

    def __init__(self, operator: BlockJacobiOperator, lo: int, hi: int):
        if hi < lo:
            raise DimensionMismatch(f"empty window [{lo}, {hi}]")
        m = operator.m
        dim = (hi - lo + 1) * m
        if dim > MAX_WINDOW_DIM:
            raise SizeLimitExceeded(
                f"window [{lo}, {hi}] has {dim} rows (limit {MAX_WINDOW_DIM})"
            )
        self.operator = operator
        self.window = (lo, hi)
        self.m = m
        self.dim = dim
        idx = np.arange(lo, hi + 1) % operator.q
        a, b = operator.spec.a, operator.spec.b
        if operator.is_real:
            a, b = a.real, b.real
        self.diag_blocks = b[idx]
        self.off_blocks = a[idx[:-1]]
        self.diag_blocks.setflags(write=False)
        self.off_blocks.setflags(write=False)
        self.norm_bound = operator.norm_bound

    @property
    def block_sites(self):
        lo, hi = self.window
        return np.arange(lo, hi + 1)

    @cached_property
    def position_diagonal(self):
        """Block-site value attached to each scalar row."""
        return np.repeat(self.block_sites, self.m).astype(float)

    def _check_dense(self):
        if self.dim > MAX_DENSE_DIM:
            lo, hi = self.window
            raise SizeLimitExceeded(
                f"window [{lo}, {hi}] needs a {self.dim}x{self.dim} dense matrix "
                f"(limit {MAX_DENSE_DIM})"
            )

    @property
    def matrix(self):
        """Dense (dim, dim) matrix of the window, float64 for a real operator
        and complex128 otherwise; a new array on every access."""
        self._check_dense()
        return block_tridiagonal(self.diag_blocks, self.off_blocks)

    @cached_property
    def eigensystem(self):
        """(eigenvalues, eigenvectors) of the dense truncation; the
        eigenvectors have the matrix's dtype."""
        w, u = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        u.setflags(write=False)
        return w, u

    def embed(self, psi: WavePacket) -> np.ndarray:
        """Flatten a packet into the window's scalar coordinates."""
        lo, hi = self.window
        slo, shi = psi.support()
        if slo < lo or shi > hi:
            raise SupportOutsideWindow(
                f"packet support [{slo}, {shi}] not inside window [{lo}, {hi}]"
            )
        vec = np.zeros(self.dim, dtype=complex)
        i0 = (psi.base - lo) * self.m
        vec[i0 : i0 + psi.coeffs.size] = psi.coeffs.reshape(-1)
        return vec

    def extract(self, vec: np.ndarray, tol=0.0) -> WavePacket:
        lo, hi = self.window
        coeffs = np.asarray(vec, dtype=complex).reshape(hi - lo + 1, self.m)
        return WavePacket(lo, coeffs).trimmed(tol)

    def propagate(self, vec: np.ndarray, t: float) -> np.ndarray:
        """exp(-i t J_window) applied to a (dim,) vector or to the columns of
        a (dim, k) block, by `chebyshev_propagate` scaled by norm_bound."""
        return chebyshev_propagate(self.diag_blocks, self.off_blocks, self.norm_bound, vec, t)
