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
diagonalized once; Heisenberg evolution is a phase on eigenbasis blocks, and
the commutator of two odd operators is block diagonal, so its norm is the
larger of two block norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockjacobi import BlockJacobiOperator, BlockSpec
from .errors import ChainTooLong, DimensionMismatch, InvalidSpec
from .floquet import q_norm

MAX_SITES = 12

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
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


def single_particle_window(spec: XYChainSpec, lam) -> np.ndarray:
    """Dense restriction of the free-fermion matrix to spin sites [lo, hi]."""
    lo, hi = lam
    return single_particle_matrix(spec).truncate_window(lo, hi).matrix


def scalar_row(lam, site, dagger=False) -> int:
    """Row of the windowed free-fermion matrix owned by c_site (or its
    adjoint): annihilators sit on even local rows, creators on odd ones."""
    lo, hi = lam
    if not lo <= site <= hi:
        raise DimensionMismatch(f"site {site} outside the interval [{lo}, {hi}]")
    return 2 * (site - lo) + (1 if dagger else 0)


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
    Operators are handled as sector blocks: dicts {(x, y): block} mapping
    sector y to sector x (0 even, 1 odd), in the site basis or in the
    eigenbasis, with blocks that vanish left out. Every local operator the
    checks use is parity-odd and has only the (0, 1) and (1, 0) blocks.
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
        self._images = {}
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
    def hamiltonian(self):
        """H as a dense matrix in the site basis."""
        return self._assemble({(x, x): h.astype(complex)
                               for x, h in enumerate(self._sector_hamiltonians)})

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

    @cached_property
    def eigensystem(self):
        """Full (w, u) of H with ascending w, assembled from `sectors`."""
        w = np.concatenate([we for we, _ in self.sectors])
        cols = np.cumsum([0] + [len(we) for we, _ in self.sectors])
        u = np.zeros((self.dim, self.dim), dtype=complex)
        for (_, us), sector, c0, c1 in zip(self.sectors, self._states, cols[:-1], cols[1:]):
            u[sector, c0:c1] = us
        order = np.argsort(w, kind="stable")
        w, u = w[order], u[:, order]
        w.setflags(write=False)
        u.setflags(write=False)
        return w, u

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
            vals = vals.real  # real operators get real eigenbasis images: half the memory
        keep = vals != 0
        return rows[keep], cols[keep], vals[keep]

    def _dense(self, terms):
        rows, cols, vals = terms
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[rows, cols] = vals
        return out

    def site_operator(self, j, mat):
        return self._dense(self._local_terms(j, mat))

    def sigma(self, j, axis):
        return self.site_operator(j, {"x": SX, "y": SY, "z": SZ}[axis])

    def lowering(self, j):
        return self.site_operator(j, LOWER)

    def raising(self, j):
        return self.site_operator(j, RAISE)

    def jw_annihilator(self, j):
        return self._dense(self._local_terms(j, LOWER, string=True))

    def jw_creator(self, j):
        return self._dense(self._local_terms(j, RAISE, string=True))

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

    def _site_blocks(self, M):
        """Site-basis sector blocks of a dense matrix; exactly zero ones are skipped."""
        if M.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"observables must be {self.dim}x{self.dim} matrices for this chain"
            )
        blocks = {}
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            blk = M[np.ix_(self._states[x], self._states[y])]
            if np.any(blk):
                blocks[x, y] = blk
        return blocks

    def _eigen(self, blocks):
        """Site-basis sector blocks -> eigenbasis sector blocks (u_x^T B u_y)."""
        u = [us for _, us in self.sectors]
        return {(x, y): u[x].T @ blk @ u[y] for (x, y), blk in blocks.items()}

    def _site(self, blocks):
        """Eigenbasis sector blocks -> site-basis sector blocks (u_x B u_y^T)."""
        u = [us for _, us in self.sectors]
        return {(x, y): u[x] @ blk @ u[y].T for (x, y), blk in blocks.items()}

    def _assemble(self, blocks):
        dtype = np.result_type(float, *blocks.values())
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        for (x, y), blk in blocks.items():
            out[np.ix_(self._states[x], self._states[y])] = blk
        return out

    def _evolve(self, blocks, t):
        """tau_t on eigenbasis blocks: X_ab -> e^{itw_a} X_ab e^{-itw_b}."""
        ph = [np.exp(1j * t * w) for w, _ in self.sectors]
        return {(x, y): ph[x][:, None] * blk * ph[y].conj()[None, :]
                for (x, y), blk in blocks.items()}

    def _image(self, kind, j):
        """Cached eigenbasis blocks of c_j (kind "c") or sigma^-_j ("lower");
        adjoints and sums of these are formed from them."""
        key = (kind, j)
        if key not in self._images:
            terms = self._local_terms(j, LOWER, string=kind == "c")
            self._images[key] = self._eigen(self._terms_blocks(terms))
        return self._images[key]

    @cached_property
    def _window(self):
        """(w, u) of the chain's free-fermion window M: one eigensolve."""
        return np.linalg.eigh(single_particle_window(self.spec, self.lam))

    def _propagator(self, t):
        """e^{-itM} on the chain's window, formed once per time."""
        t = float(t)
        if t not in self._propagators:
            w, u = self._window
            self._propagators[t] = u @ (np.exp(-1j * t * w)[:, None] * u.conj().T)
        return self._propagators[t]

    def heisenberg(self, A, t):
        """tau_t(A) = e^{itH} A e^{-itH} through the sector spectra."""
        blocks = self._site_blocks(np.asarray(A, dtype=complex))
        return self._assemble(self._site(self._evolve(self._eigen(blocks), t)))


# ---------------------------------------------------------------------------
# Block algebra, norms and bound checks
# ---------------------------------------------------------------------------


def _adjoint(blocks):
    return {(y, x): blk.conj().T for (x, y), blk in blocks.items()}


def _combine(a, b, sign=1.0):
    """Blocks of a + sign * b."""
    out = dict(a)
    for key, blk in b.items():
        out[key] = out[key] + sign * blk if key in out else sign * blk
    return out


def _product(a, b):
    out = {}
    for (x, z), p in a.items():
        for (w, y), q in b.items():
            if z == w:
                out[x, y] = out[x, y] + p @ q if (x, y) in out else p @ q
    return out


def _block_norm(chain: SpinChain, blocks) -> float:
    """Spectral norm of an operator given by sector blocks (any basis): the
    largest singular value, by a dense SVD at every chain size.

    With definite parity (only diagonal or only off-diagonal blocks) the
    operator is block diagonal up to a permutation of the sectors, so its
    norm is the larger block norm; otherwise it is taken on the assembled
    matrix. The SVD is exact to roundoff, so a bound check that passes on
    it holds to roundoff.
    """
    kinds = {x == y for x, y in blocks}
    mats = [chain._assemble(blocks)] if len(kinds) > 1 else list(blocks.values())
    return max([0.0] + [float(np.linalg.norm(m, 2)) for m in mats])


def commutator_norm(chain: SpinChain, A, B, t) -> float:
    """Propagation indicator ||[tau_t(A), B]|| (largest singular value).

    A and B are dense matrices in the site basis, or eigenbasis sector
    blocks of the chain (as the bound checks pass them). The commutator is
    formed on the blocks; see _block_norm for the norm.
    """
    a, b = (op if isinstance(op, dict)
            else chain._eigen(chain._site_blocks(np.asarray(op, dtype=complex)))
            for op in (A, B))
    ta = chain._evolve(a, t)
    return _block_norm(chain, _combine(_product(ta, b), _product(b, ta), -1.0))


def free_fermion_residual(chain: SpinChain, j: int, t: float) -> float:
    """Exactness check of the quadratic reduction: spectral-norm residual of

        tau_t(c_j) = sum_k [e^{-itM}]_{row(c_j), k} C^(k)

    with M the windowed free-fermion matrix and C the Jordan-Wigner vector
    (c_lo, c_lo^*, c_lo+1, c_lo+1^*, ...).
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
    rhs = chain._eigen(chain._terms_blocks(
        (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))))
    lhs = chain._evolve(chain._image("c", j), t)
    return _block_norm(chain, _combine(lhs, rhs, -1.0))


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


@dataclass(frozen=True)
class LowerBoundCheck:
    commutator: float
    entry_abs: float
    ok: bool


def propagation_lower_bound(chain: SpinChain, l: int, r: int, t: float,
                            case: int) -> LowerBoundCheck:
    """Commutator norm against the matching propagator entry.

    Case 1 pairs (c_l, a_r^*) with the (row c_l, row c_r) entry of e^{-itM};
    cases 2-4 run through (c_l, a_r), (c_l^*, a_r), (c_l^*, a_r^*) against
    the entries with the creator rows swapped in accordingly. The commutator
    norm must dominate the entry modulus (up to 1e-8 slack).
    """
    if case not in _LOWER_CASES:
        raise ValueError(f"case must be 1..4, got {case}")
    if not l < r:
        raise ValueError("need l < r")
    l_dag, b_raising, r_dag = _LOWER_CASES[case]
    a = chain._image("c", l)
    b = chain._image("lower", r)
    p_t = commutator_norm(chain, _adjoint(a) if l_dag else a,
                          _adjoint(b) if b_raising else b, t)
    mt = chain._propagator(t)
    entry = mt[scalar_row(chain.lam, l, l_dag), scalar_row(chain.lam, r, r_dag)]
    return LowerBoundCheck(
        commutator=float(p_t),
        entry_abs=float(abs(entry)),
        ok=bool(p_t >= abs(entry) - 1e-8),
    )


@dataclass(frozen=True)
class UpperBoundCheck:
    lhs: float
    rhs: float
    ok: bool


def propagation_upper_bound(chain: SpinChain, s: int, r: int, t: float,
                            B=None) -> UpperBoundCheck:
    """Leibniz-rule upper bound for a string observable against B at site r:

        ||[tau_t(a_s), B]|| <= 8 ||B|| sum_{k <= row(c_s)} sum_{k' >= row(c_r)}
                               |[e^{-itM}]_{k, k'}|.
    """
    if not s < r:
        raise ValueError("need s < r")
    if B is None:  # sigma^x_r = sigma^-_r + sigma^+_r, of norm 1
        low = chain._image("lower", r)
        b, b_norm = _combine(low, _adjoint(low)), 1.0
    else:
        site_b = chain._site_blocks(np.asarray(B, dtype=complex))
        b, b_norm = chain._eigen(site_b), _block_norm(chain, site_b)
    lhs = commutator_norm(chain, chain._image("lower", s), b, t)
    mt = chain._propagator(t)
    srow = scalar_row(chain.lam, s)
    rrow = scalar_row(chain.lam, r)
    tail_sum = float(np.sum(np.abs(mt[: srow + 1, rrow:])))
    rhs = 8.0 * b_norm * tail_sum
    return UpperBoundCheck(lhs=float(lhs), rhs=rhs, ok=bool(lhs <= rhs + 1e-8))
