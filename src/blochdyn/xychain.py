"""Anisotropic XY chain: spin Hamiltonians, the free-fermion picture, and
propagation-bound checks.

The chain on an interval carries couplings mu_j, anisotropies gamma_j, and a
transverse field nu_j (all periodic, possibly with different periods). Its
Jordan-Wigner operators evolve through a 2x2-block Jacobi matrix whose
diagonal block at site j is 2 diag(nu_j, -nu_j) and whose coupling of site j
to j+1 is 2 [[-mu_j, -mu_j gamma_j], [mu_j gamma_j, mu_j]]. Spin site j owns
two scalar rows of that matrix, one for the annihilator and one for the
creator; the maximal band speed of the infinite matrix bounds every
propagation velocity of the spin dynamics from below.

The spin dynamics is dense exact diagonalization, run in the two parity
sectors of P = prod_j sigma^z_j (Lieb, Schultz & Mattis, Ann. Phys. 16, 407
(1961)): H is quadratic in the Jordan-Wigner fermions and conserves P, and
every operator the bound checks use is parity-odd. Each sector is
diagonalized once, and e^{itH} is formed from that in the site basis once per
time. Every local operator the checks use is a signed partial permutation, so
its Heisenberg image costs one product per sector block and its products with
a dense block are index gathers. The commutator of two odd operators is block
diagonal, and each check forms its even block C_00 only. The upper check
takes the SVD of C_00: sigma^x_r is an odd involution, so it maps one
diagonal block of C = [tau_t(sigma^-_s), sigma^x_r] unitarily onto minus the
other, and ||C|| = ||C_00||. The lower check takes no SVD of a sector block:
it reports sigma_max(C_00 Q) for Q an orthonormal basis of a Krylov space of
C_00^* C_00, a lower bound of ||C|| for any H, which is exact to roundoff
here because C_00 has at most four distinct singular values. The
free-fermion residual is reported as its Frobenius norm, an upper bound of
its spectral norm that takes no SVD. The one-particle propagator e^{-itM} on
the chain's window is `TruncatedOperator.propagate` applied to the identity,
once per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockjacobi import BlockJacobiOperator, BlockSpec, TruncatedOperator
from .errors import ChainTooLong, DimensionMismatch, InvalidSpec, SpecError
from .floquet import q_norm

MAX_SITES = 12

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
LOWER = 0.5 * (SX - 1j * SY)
RAISE = 0.5 * (SX + 1j * SY)


# ---------------------------------------------------------------------------
# Chain parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XYChainSpec:
    """Periodic couplings (mu), anisotropies (gamma), transverse field (nu).

    mu_j must never vanish (the chain would decouple). gamma = +-1 is legal
    for the spin Hamiltonian itself (the Ising point) but rejected wherever
    the free-fermion matrix is needed, since the off-diagonal blocks become
    singular there.
    """

    mu: tuple
    gamma: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(x) for x in np.atleast_1d(self.mu)))
        object.__setattr__(self, "gamma", tuple(float(x) for x in np.atleast_1d(self.gamma)))
        object.__setattr__(self, "nu", tuple(float(x) for x in np.atleast_1d(self.nu)))
        if min(len(self.mu), len(self.gamma), len(self.nu)) < 1:
            raise InvalidSpec("mu, gamma, nu must be nonempty periodic sequences")
        if any(abs(m) <= 1e-12 for m in self.mu):
            raise InvalidSpec("all couplings mu_j must be nonzero")

    def mu_at(self, j):
        return self.mu[j % len(self.mu)]

    def gamma_at(self, j):
        return self.gamma[j % len(self.gamma)]

    def nu_at(self, j):
        return self.nu[j % len(self.nu)]

    @property
    def period(self):
        return math.lcm(len(self.mu), len(self.gamma), len(self.nu))

    def validate_free_fermion(self):
        if any(abs(g * g - 1.0) <= 1e-12 for g in self.gamma):
            raise InvalidSpec("gamma_j = +-1 makes the fermionic coupling block singular")
        return self


def single_particle_matrix(spec: XYChainSpec) -> BlockJacobiOperator:
    """Block Jacobi generator of the Jordan-Wigner operator evolution
    (m = 2, q = lcm of the three periods)."""
    spec.validate_free_fermion()
    q = spec.period
    a = np.empty((q, 2, 2), dtype=complex)
    b = np.empty((q, 2, 2), dtype=complex)
    for k in range(q):
        mu, g, nu = spec.mu_at(k), spec.gamma_at(k), spec.nu_at(k)
        b[k] = 2.0 * np.array([[nu, 0.0], [0.0, -nu]])
        a[k] = 2.0 * np.array([[-mu, -mu * g], [mu * g, mu]])
    try:
        return BlockJacobiOperator(BlockSpec(m=2, q=q, a=a, b=b))
    except Exception as exc:  # block validation failures surface as InvalidSpec
        raise InvalidSpec(str(exc)) from exc


def lr_velocity_bound(spec: XYChainSpec, grid_size: int = 512) -> float:
    """Strictly positive lower bound for any propagation velocity of the chain:
    the maximal band speed of the free-fermion matrix."""
    return q_norm(single_particle_matrix(spec), grid_size=grid_size)


def scalar_row(lam, site, dagger=False) -> int:
    """Row of the windowed free-fermion matrix owned by c_site (or its
    adjoint): annihilators sit on even local rows, creators on odd ones."""
    lo, hi = lam
    if not lo <= site <= hi:
        raise DimensionMismatch(f"site {site} outside the interval [{lo}, {hi}]")
    return 2 * (site - lo) + (1 if dagger else 0)


def check_pair(lam, l, r):
    """Raise unless l < r are sites of the interval lam, as the bound checks need."""
    lo, hi = lam
    if not lo <= l < r <= hi:
        raise SpecError(f"pairs must be [l, r] sites with {lo} <= l < r <= {hi}, "
                        f"got {[l, r]!r}")


# ---------------------------------------------------------------------------
# Dense spin chain in parity sectors
# ---------------------------------------------------------------------------


def _parity(x, nbits):
    """Parity (0 or 1) of the lowest nbits bits of each entry of x."""
    p = np.zeros_like(x)
    for k in range(nbits):
        p ^= (x >> k) & 1
    return p


class SpinChain:
    """Dense exact-diagonalization workspace for the chain on [lo, hi].

    Basis state s carries site lo + i in bit n - 1 - i (the kron order), bit
    0 meaning spin up. H conserves the parity P = prod_j sigma^z_j, so it is
    stored and diagonalized as its even and odd blocks of 2^(n-1) states.
    Operators are handled as site-basis sector blocks: dicts {(x, y): block}
    mapping sector y to sector x (0 even, 1 odd), with blocks that vanish
    left out. Every local operator the checks use is parity-odd and has only
    the (0, 1) and (1, 0) blocks.

    The chain keeps e^{itH} and one Heisenberg image for the latest time
    only (each 128 MB at 12 sites), so a caller running many checks should
    run all of one time before the next.
    """

    def __init__(self, spec: XYChainSpec, lam):
        lo, hi = int(lam[0]), int(lam[1])
        n = hi - lo + 1
        if n < 1:
            raise DimensionMismatch(f"empty interval [{lo}, {hi}]")
        if n > MAX_SITES:
            raise ChainTooLong(f"{n} sites exceeds the dense limit of {MAX_SITES}")
        self.spec = spec
        self.lam = (lo, hi)
        self.n_sites = n
        self.dim = 2**n
        states = np.arange(self.dim)
        parity = _parity(states, n)
        self._states = (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
        self._parity = parity
        self._pos = np.empty(self.dim, dtype=np.intp)
        for sector in self._states:
            self._pos[sector] = np.arange(len(sector))
        self._sector_hamiltonians = tuple(self._build_sector(sector)
                                          for sector in self._states)
        self._now = None  # (t, W_t on each sector): the latest time only
        self._image_now = None  # (key, blocks) of the latest local Heisenberg image
        self._lower = {}  # (l, r, t, raising) -> ||[tau_t(c_l), sigma^{+ or -}_r]||
        self._propagators = {}

    def _build_sector(self, states):
        """H on one parity sector, by index arithmetic. A bond term
        mu ((1+g) XX + (1-g) YY) flips both spins with amplitude 2 mu g when
        they are equal and 2 mu when they differ; the field is diagonal."""
        lo, hi = self.lam
        n = self.n_sites
        bits = (states[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
        cols = np.arange(len(states))
        h = np.zeros((len(states), len(states)))
        nu = np.array([self.spec.nu_at(j) for j in range(lo, hi + 1)])
        h[cols, cols] = (1 - 2 * bits) @ nu
        for i in range(n - 1):
            mu, g = self.spec.mu_at(lo + i), self.spec.gamma_at(lo + i)
            flipped = self._pos[states ^ (3 << (n - 2 - i))]
            h[flipped, cols] += np.where(bits[:, i] == bits[:, i + 1], 2.0 * mu * g, 2.0 * mu)
        return h

    @cached_property
    def sectors(self):
        """(energies, eigenvectors) of H on the even and on the odd sector:
        one eigensolve of 2^(n-1) rows each."""
        out = []
        for h in self._sector_hamiltonians:
            w, u = np.linalg.eigh(h)
            w.setflags(write=False)
            u.setflags(write=False)
            out.append((w, u))
        return tuple(out)

    # --- local operators: signed, possibly partial, permutations ---

    def _local_terms(self, j, mat, string=False):
        """(rows, cols, vals) of mat acting on site j, times the sigma^z
        string on the sites left of j when string is set; zeros dropped."""
        i = j - self.lam[0]
        if not 0 <= i < self.n_sites:
            raise DimensionMismatch(f"site {j} outside the interval {self.lam}")
        p = self.n_sites - 1 - i
        s = np.arange(self.dim)
        bit = (s >> p) & 1
        mat = np.asarray(mat)
        rows = np.concatenate([s, s ^ (1 << p)])
        cols = np.concatenate([s, s])
        vals = np.concatenate([mat[bit, bit], mat[1 - bit, bit]])
        if string:
            vals = vals * np.tile(np.where(_parity(s >> (p + 1), i), -1.0, 1.0), 2)
        if np.iscomplexobj(vals) and not np.any(vals.imag):
            vals = vals.real  # real gather weights: half the work of complex ones
        keep = vals != 0
        return rows[keep], cols[keep], vals[keep]

    # --- sector blocks ---

    def _terms_blocks(self, terms):
        """Site-basis sector blocks of sum_k vals_k |rows_k><cols_k|."""
        rows, cols, vals = terms
        blocks = {}
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            mask = (self._parity[rows] == x) & (self._parity[cols] == y)
            if np.any(mask):
                blk = np.zeros((len(self._states[x]), len(self._states[y])), dtype=vals.dtype)
                np.add.at(blk, (self._pos[rows[mask]], self._pos[cols[mask]]), vals[mask])
                blocks[x, y] = blk
        return blocks

    def _odd_terms(self, terms):
        """{(x, 1 - x): (rows, cols, vals)} in sector positions, for a
        parity-odd signed partial permutation (at most one entry in each row
        and each column): its products with dense blocks are index gathers."""
        rows, cols, vals = terms
        out = {}
        for x in (0, 1):
            mask = self._parity[rows] == x
            out[x, 1 - x] = (self._pos[rows[mask]], self._pos[cols[mask]], vals[mask])
        return out

    # --- Heisenberg evolution in the site basis ---

    def _unitary(self, t):
        """(W_0, W_1): W_t = e^{itH} on the even and on the odd sector, as
        u diag(e^{itw}) u^T from two real products each. H is real, so W_t is
        symmetric and W_t^* = conj(W_t). Only the latest time's pair is kept:
        at 12 sites it takes 128 MB."""
        t = float(t)
        if self._now is None or self._now[0] != t:
            self._now = self._image_now = None  # free the old pair first
            pair = []
            for w, u in self.sectors:
                W = np.empty(u.shape, dtype=complex)
                W.real = (u * np.cos(t * w)) @ u.T
                W.imag = (u * np.sin(t * w)) @ u.T
                pair.append(W)
            self._now = (t, tuple(pair))
        return self._now[1]

    def _image(self, kind, j, t):
        """Sector blocks of tau_t(c_j) (kind "c") or tau_t(sigma^-_j)
        ("lower"). W_t A is a column gather of W_t and A W_t^* a row gather of
        conj(W_t), so each block is one complex product. Only the latest
        image is kept, as large as W_t."""
        key = (kind, j, float(t))
        if self._image_now is None or self._image_now[0] != key:
            self._image_now = None
            W = self._unitary(t)
            terms = self._odd_terms(self._local_terms(j, LOWER, string=kind == "c"))
            self._image_now = (key, {(x, y): (W[x][:, rows] * vals) @ W[y][cols].conj()
                                     for (x, y), (rows, cols, vals) in terms.items()})
        return self._image_now[1]

    @cached_property
    def _window(self):
        """The chain's free-fermion window M, as block-site storage."""
        lo, hi = self.lam
        return TruncatedOperator(single_particle_matrix(self.spec), lo, hi)

    def _propagator(self, t):
        """e^{-itM} on the chain's window, formed once per time by the
        Chebyshev propagator applied to the identity."""
        t = float(t)
        if t not in self._propagators:
            self._propagators[t] = self._window.propagate(np.eye(self._window.dim), t)
        return self._propagators[t]


# ---------------------------------------------------------------------------
# Block algebra, norms and bound checks
# ---------------------------------------------------------------------------


def _odd_commutator(ta, b):
    """Even sector block [T, B]_00 = T_01 B_10 - B_01 T_10 of the commutator
    of parity-odd T (dense sector blocks) and B (`_odd_terms`): T_01 B_10
    gathers columns of T_01 and B_01 T_10 gathers rows of T_10."""
    t01, t10 = ta[0, 1], ta[1, 0]
    blk = np.zeros((t01.shape[0], t10.shape[1]), dtype=complex)
    rows, cols, vals = b[1, 0]
    blk[:, cols] = t01[:, rows] * vals
    rows, cols, vals = b[0, 1]
    blk[rows] -= vals[:, None] * t10[cols]
    return blk


# Krylov vectors at most in `_krylov_norm`; the lower commutators need 4.
KRYLOV_CAP = 12


def _krylov_norm(c) -> float:
    """sigma_max(C Q), for Q an orthonormal basis of the Krylov space
    {v, G v, G^2 v, ...} of G = C^* C from a fixed start vector v.

    Q is built by Gram-Schmidt with full reorthogonalization, done twice,
    until a new direction falls to 1e-14 of the largest G q so far or
    KRYLOV_CAP vectors are reached; the last SVD is of C Q, dim x k with
    k <= KRYLOV_CAP. For any C and any orthonormal Q, sigma_max(C Q) <= ||C||,
    so the value is a certified lower bound. When C has fewer than
    KRYLOV_CAP distinct singular values the space becomes invariant and the
    value is ||C|| to roundoff.
    """
    k = np.arange(c.shape[1])
    # a fixed chirp: unit-modulus entries with quasi-random phases (importing
    # numpy.random would add about 5 MB of RSS)
    q = np.exp(2j * math.pi * (0.5 * (math.sqrt(5.0) - 1.0) * k * k % 1.0)) / math.sqrt(len(k))
    basis, images, largest = [], [], 0.0
    while True:
        y = c @ q
        basis.append(q)
        images.append(y)
        if len(basis) == KRYLOV_CAP:
            break
        w = (y.conj() @ c).conj()  # G q, without forming C^*
        largest = max(largest, float(np.linalg.norm(w)))
        qs = np.array(basis)
        for _ in range(2):
            w = w - qs.T @ (qs.conj() @ w)
        size = float(np.linalg.norm(w))
        if size <= 1e-14 * largest:
            break
        q = w / size
    return float(np.linalg.norm(np.column_stack(images), 2))


def free_fermion_residual(chain: SpinChain, j: int, t: float) -> float:
    """Exactness check of the quadratic reduction: the Frobenius norm
    sqrt(||R_01||_F^2 + ||R_10||_F^2) of the residual R of

        tau_t(c_j) = sum_k [e^{-itM}]_{row(c_j), k} C^(k)

    with M the windowed free-fermion matrix and C the Jordan-Wigner vector
    (c_lo, c_lo^*, c_lo+1, c_lo+1^*, ...). It is at least the spectral norm
    ||R||, so a residual below a tolerance bounds ||R|| by it too, and it
    takes no SVD.
    """
    return _free_fermion_residual(chain, chain._propagator(t), j, t)


def _free_fermion_residual(chain, mt, j, t):
    """The residual against a given window propagator mt. The right side is
    accumulated in the site basis from the Jordan-Wigner strings."""
    row = scalar_row(chain.lam, j)
    rows, cols, vals = [], [], []
    for k, site in enumerate(range(chain.lam[0], chain.lam[1] + 1)):
        for dagger, mat in ((0, LOWER), (1, RAISE)):
            r, c, v = chain._local_terms(site, mat, string=True)
            rows.append(r)
            cols.append(c)
            vals.append(mt[row, 2 * k + dagger] * v)
    rhs = chain._terms_blocks((np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)))
    lhs = chain._image("c", j, t)
    return math.hypot(*(float(np.linalg.norm(np.subtract(blk, rhs[key], out=rhs[key])))
                        for key, blk in lhs.items()))


# case -> (A is a creator?, B is the raising operator?, entry column is a
# creator row?). The selection vector of the bound (all spins up for a
# raising B, all down for a lowering B) annihilates every Jordan-Wigner
# column except one: a raising B survives on the annihilator column, a
# lowering B on the creator column. Pairing B = raising with a creator
# column fails numerically, so the columns follow the selection vector.
_LOWER_CASES = {
    1: (False, True, False),
    2: (False, False, True),
    3: (True, False, True),
    4: (True, True, False),
}


def check_case(case):
    """Raise unless case names one of the lower-bound cases 1..4."""
    if case not in _LOWER_CASES:
        raise SpecError(f"case must be 1..4, got {case!r}")


@dataclass(frozen=True)
class LowerBoundCheck:
    commutator: float
    entry_abs: float
    ok: bool


def _lower_commutator(chain, l, r, t, raising):
    """A lower bound of ||[tau_t(c_l), sigma^+_r]|| (raising) or
    ||[tau_t(c_l), sigma^-_r]||, computed once per chain and kept as a float:
    `_krylov_norm` of the even commutator block C_00, so a check that passes
    on it holds for any H.

    It is the norm to roundoff. H is quadratic in the fermions, so
    C = P_r [L, c_r^+-], with P_r the Jordan-Wigner string left of r and L
    the part of tau_t(c_l) on the sites >= r. The bracket acts on at most four
    Majoranas, tensored with the identity on the rest, so C_00 and C_11
    share their singular values and there are at most four distinct ones:
    the Krylov space has dimension at most 4 and is invariant, so it holds a
    top right singular vector unless the start vector is orthogonal to them
    all.
    """
    key = (l, r, float(t), raising)
    if key not in chain._lower:
        b = chain._odd_terms(chain._local_terms(r, RAISE if raising else LOWER))
        chain._lower[key] = _krylov_norm(_odd_commutator(chain._image("c", l, t), b))
    return chain._lower[key]


def propagation_lower_bound(chain: SpinChain, l: int, r: int, t: float,
                            case: int) -> LowerBoundCheck:
    """Commutator norm against the matching propagator entry.

    Case 1 pairs (c_l, a_r^*) with the (row c_l, row c_r) entry of e^{-itM};
    cases 2-4 run through (c_l, a_r), (c_l^*, a_r), (c_l^*, a_r^*) against
    the entries with the creator rows swapped in accordingly. The commutator
    norm must dominate the entry modulus (up to 1e-8 slack).

    tau_t(c^*) = tau_t(c)^* and ||[X^*, Y^*]|| = ||[Y, X]||, so case 3 has
    the commutator norm of case 1 and case 4 that of case 2; each is
    computed once per (l, r, t).
    """
    check_case(case)
    check_pair(chain.lam, l, r)
    l_dag, b_raising, r_dag = _LOWER_CASES[case]
    p_t = _lower_commutator(chain, l, r, t, b_raising != l_dag)
    mt = chain._propagator(t)
    entry = mt[scalar_row(chain.lam, l, l_dag), scalar_row(chain.lam, r, r_dag)]
    return LowerBoundCheck(
        commutator=p_t,
        entry_abs=float(abs(entry)),
        ok=bool(p_t >= abs(entry) - 1e-8),
    )


@dataclass(frozen=True)
class UpperBoundCheck:
    lhs: float
    rhs: float
    ok: bool


def propagation_upper_bound(chain: SpinChain, s: int, r: int, t: float) -> UpperBoundCheck:
    """Leibniz-rule upper bound for a string observable against sigma^x_r
    (of norm 1):

        ||[tau_t(a_s), sigma^x_r]|| <= 8 sum_{k <= row(c_s)} sum_{k' >= row(c_r)}
                                       |[e^{-itM}]_{k, k'}|.

    With X = sigma^x_r and C the commutator, X^2 = 1 gives X C X = -C, and
    X maps the even sector unitarily onto the odd one, so
    C_11 = -X_10 C_00 X_01 and ||C|| = ||C_00||: only the even block is
    formed and its SVD taken. This is spin algebra alone; it holds for any
    odd image and uses no free-fermion input.
    """
    check_pair(chain.lam, s, r)
    b = chain._odd_terms(chain._local_terms(r, SX))
    lhs = float(np.linalg.norm(_odd_commutator(chain._image("lower", s, t), b), 2))
    mt = chain._propagator(t)
    srow = scalar_row(chain.lam, s)
    rrow = scalar_row(chain.lam, r)
    rhs = 8.0 * float(np.sum(np.abs(mt[: srow + 1, rrow:])))
    return UpperBoundCheck(lhs=lhs, rhs=rhs, ok=bool(lhs <= rhs + 1e-8))
