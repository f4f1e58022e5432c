"""Independent references for the tests: J u and the current A u = i[J, X] u
built site by site from the operator's stored blocks, the inner product of
packets, and the Parseval sum of the Floquet transform."""

import numpy as np

from blochdyn import WavePacket, floquet_transform


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


def inner(u, v):
    """<u, v>, linear in the second slot."""
    return complex(sum(np.vdot(u.block(n), v.block(n)) for n in u.sites))


def parseval_gap(J, psi, G):
    """|mean over the G-point grid of ||(F psi)(theta)||^2 - ||psi||^2|."""
    hat = floquet_transform(J, psi, G)
    return abs(float(np.mean(np.sum(np.abs(hat) ** 2, axis=(1, 2)))) - psi.norm() ** 2)
