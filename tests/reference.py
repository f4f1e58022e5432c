"""Independent references for the tests: J u and the current A u = i[J, X] u
built site by site from the operator's stored blocks, exp(-itJ) u by a dense
eigensolve of a window assembled from J u, packet arithmetic, the inner
product and position moments of packets, the Parseval sum of the Floquet
transform, and apply_q's quadrature error estimate as a packet
difference."""

import numpy as np

from blochdyn import WavePacket, floquet_transform
from blochdyn.floquet import _apply_q_raw, check_grid


def _terms(J, u):
    """The three terms a(n-1)^* u_{n-1}, b(n) u_n and a(n) u_{n+1} of
    (J u)_n, each an (L + 2, m) array on the sites base - 1 .. base + L of
    the packet's L sites widened by one on each side."""
    a, b, q = J.spec.a, J.spec.b, J.q
    terms = np.zeros((3, len(u.coeffs) + 2, J.m), dtype=complex)
    for i, c in enumerate(u.coeffs):
        n = u.base + i
        terms[0, i + 2] = a[n % q].conj().T @ c  # reaches site n + 1
        terms[1, i + 1] = b[n % q] @ c
        terms[2, i] = a[(n - 1) % q] @ c  # reaches site n - 1
    return terms


def apply(J, u):
    """(J u)_n = a(n-1)^* u_{n-1} + b(n) u_n + a(n) u_{n+1}."""
    down, diag, up = _terms(J, u)
    return WavePacket(u.base - 1, down + diag + up)


def apply_current(J, u):
    """(A u)_n = -i a(n-1)^* u_{n-1} + i a(n) u_{n+1}."""
    down, _, up = _terms(J, u)
    return WavePacket(u.base - 1, 1j * (up - down))


def evolve(J, u, t, half):
    """exp(-itJ) u on the block sites [-half, half], by a dense eigensolve of
    the window matrix assembled column by column from `apply`; half must
    hold u and reach well past the light cone of time t."""
    m, lo = J.m, -half
    dim = (2 * half + 1) * m
    H = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        unit = np.zeros((1, m), dtype=complex)
        unit[0, col % m] = 1.0
        image = apply(J, WavePacket(lo + col // m, unit))
        rows = (image.base - lo) * m + np.arange(image.coeffs.size)
        keep = (rows >= 0) & (rows < dim)
        H[rows[keep], col] = image.coeffs.ravel()[keep]
    w, v = np.linalg.eigh(H)
    vec = np.zeros(dim, dtype=complex)
    start = (u.base - lo) * m
    vec[start:start + u.coeffs.size] = u.coeffs.ravel()
    out = v @ (np.exp(-1j * t * w) * (v.conj().T @ vec))
    return WavePacket(lo, out.reshape(-1, m))


def block(u, site):
    """Coefficient vector of u at a block site (zero vector off support)."""
    i = site - u.base
    if 0 <= i < len(u.coeffs):
        return u.coeffs[i].copy()
    return np.zeros(u.m, dtype=complex)


def _aligned(u, v):
    """(lo, x, y): the coefficients of u and v on the common sites lo .. ."""
    assert u.m == v.m
    lo = min(u.base, v.base)
    hi = max(u.base + len(u.coeffs), v.base + len(v.coeffs))
    x = np.zeros((hi - lo, u.m), dtype=complex)
    y = np.zeros_like(x)
    x[u.base - lo : u.base - lo + len(u.coeffs)] = u.coeffs
    y[v.base - lo : v.base - lo + len(v.coeffs)] = v.coeffs
    return lo, x, y


def add(u, v):
    """u + v."""
    lo, x, y = _aligned(u, v)
    return WavePacket(lo, x + y)


def subtract(u, v):
    """u - v."""
    lo, x, y = _aligned(u, v)
    return WavePacket(lo, x - y)


def scale(c, u):
    """c u."""
    return WavePacket(u.base, c * u.coeffs)


def inner(u, v):
    """<u, v>, linear in the second slot."""
    return complex(sum(np.vdot(block(u, n), block(v, n)) for n in u.sites))


def moment(psi, p, radius=None):
    """<psi, |X|^p psi> under the block-site position convention, restricted
    to the block sites |n| <= radius when one is given."""
    weights = np.abs(psi.sites.astype(float)) ** p
    if radius is not None:
        weights[np.abs(psi.sites) > radius] = 0.0
    return float(np.sum(weights * np.sum(np.abs(psi.coeffs) ** 2, axis=1)))


def parseval_gap(J, psi, G):
    """|mean over the G-point grid of ||(F psi)(theta)||^2 - ||psi||^2|."""
    hat = floquet_transform(J, psi, G)
    return abs(float(np.mean(np.sum(np.abs(hat) ** 2, axis=(1, 2)))) - psi.norm() ** 2)


def quadrature_error(J, psi, grid_size):
    """apply_q's error estimate ||Q_G psi - Q_{G/2} psi|| as the norm of the
    packet difference of the full- and half-grid quadratures."""
    G = check_grid(grid_size)
    return subtract(_apply_q_raw(J, psi, G), _apply_q_raw(J, psi, G // 2)).norm()
