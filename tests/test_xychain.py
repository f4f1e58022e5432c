import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochdyn import xychain
from blochdyn.blockjacobi import TruncatedOperator
from blochdyn.cli import main
from blochdyn.errors import ChainTooLong, DimensionMismatch, InvalidSpec, SpecError
from blochdyn.xychain import (
    LOWER,
    RAISE,
    SX,
    SY,
    SpinChain,
    XYChainSpec,
    free_fermion_residual,
    lr_velocity_bound,
    propagation_lower_bound,
    propagation_upper_bound,
    scalar_row,
    single_particle_matrix,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
ANISO = XYChainSpec(mu=[1.0], gamma=[0.5], nu=[1.0])
ISO = XYChainSpec(mu=[1.0], gamma=[0.0], nu=[0.0])


# --- spec validation ----------------------------------------------------------


def test_zero_coupling_rejected():
    with pytest.raises(InvalidSpec):
        XYChainSpec(mu=[0.0], gamma=[0.0], nu=[0.0])


def test_ising_point_allowed_for_spin_chain_only():
    ising = XYChainSpec(mu=[1.0], gamma=[1.0], nu=[0.0])
    _assert_sectors(SpinChain(ising, (1, 2)), 2.0 * np.kron(SX, SX))
    with pytest.raises(InvalidSpec):
        single_particle_matrix(ising)
    with pytest.raises(InvalidSpec):
        single_particle_matrix(XYChainSpec(mu=[1.0], gamma=[-1.0], nu=[0.0]))


def test_mixed_periods_lcm():
    spec = XYChainSpec(mu=[1.0, 2.0], gamma=[0.1, 0.2, 0.3], nu=[0.5])
    assert spec.period == 6
    assert single_particle_matrix(spec).q == 6


# --- free-fermion matrix blocks ------------------------------------------------


def test_blocks_isotropic():
    J = single_particle_matrix(ISO)
    assert np.allclose(J.spec.a[0], 2.0 * np.diag([-1.0, 1.0]))
    assert np.allclose(J.spec.b[0], np.zeros((2, 2)))


def test_blocks_anisotropic():
    J = single_particle_matrix(ANISO)
    assert np.allclose(J.spec.b[0], np.diag([2.0, -2.0]))
    assert np.allclose(J.spec.a[0], [[-2.0, -1.0], [1.0, 2.0]])


def test_window_layout():
    # diagonal blocks on (c_j, c_j^*) rows, coupling block one step right
    M = TruncatedOperator(single_particle_matrix(ANISO), 1, 3).matrix
    assert M.shape == (6, 6)
    assert np.allclose(M[0:2, 0:2], np.diag([2.0, -2.0]))
    assert np.allclose(M[0:2, 2:4], [[-2.0, -1.0], [1.0, 2.0]])
    assert np.allclose(M[2:4, 0:2], np.array([[-2.0, -1.0], [1.0, 2.0]]).T)
    assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_scalar_row_convention():
    lam = (2, 6)
    assert scalar_row(lam, 2) == 0
    assert scalar_row(lam, 2, dagger=True) == 1
    assert scalar_row(lam, 4) == 4
    with pytest.raises(DimensionMismatch):
        scalar_row(lam, 7)


# --- velocity bound --------------------------------------------------------------


def test_velocity_isotropic_decoupling():
    # gamma = 0 decouples into scalar chains with hopping 2 mu: v0 = 4 |mu|
    assert lr_velocity_bound(XYChainSpec(mu=[0.5], gamma=[0.0], nu=[0.0])) == pytest.approx(
        2.0, abs=1e-6
    )
    assert lr_velocity_bound(ISO) == pytest.approx(4.0, abs=1e-6)


def test_velocity_scaling():
    base = lr_velocity_bound(ANISO)
    scaled = lr_velocity_bound(XYChainSpec(mu=[3.0], gamma=[0.5], nu=[3.0]))
    assert scaled == pytest.approx(3.0 * base, abs=1e-8)


def test_velocity_anisotropic_brute_force():
    # oracle: 1e5-point scan of the 2x2 fiber band slopes (finite differences)
    thetas = np.linspace(0, 2 * np.pi, 100001)
    diag = 2.0 - 4.0 * np.cos(thetas)
    off = 2.0 * np.sin(thetas)
    lam = np.sqrt(diag**2 + off**2)  # upper band of the anisotropic fiber
    slopes = np.abs(np.gradient(lam, thetas))
    oracle = float(np.max(slopes))
    val = lr_velocity_bound(ANISO)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert val > 0


# --- spin chains ------------------------------------------------------------------


def test_single_site_field():
    chain = SpinChain(XYChainSpec(mu=[1.0], gamma=[0.0], nu=[3.0]), (5, 5))
    _assert_sectors(chain, 3.0 * SZ)


def test_two_site_isotropic_spectrum():
    chain = SpinChain(ISO, (1, 2))
    energies = np.sort(np.concatenate([w for w, _ in chain.sectors]))
    assert np.allclose(energies, [-2.0, 0.0, 0.0, 2.0])


def test_chain_too_long():
    with pytest.raises(ChainTooLong):
        SpinChain(ISO, (1, 13))


def test_hamiltonian_hermitian():
    for spec in (ISO, ANISO, XYChainSpec(mu=[1.0, -0.5], gamma=[0.3], nu=[0.0, 1.0, 2.0])):
        chain = SpinChain(spec, (1, 5))
        for h in chain._sector_hamiltonians:
            assert np.isrealobj(h) and np.max(np.abs(h - h.T)) < 1e-10


def _scatter(chain, terms):
    """The dense site-basis matrix of a chain's (rows, cols, vals) terms."""
    rows, cols, vals = terms
    out = np.zeros((chain.dim, chain.dim), dtype=complex)
    out[rows, cols] = vals
    return out


def _jw(chain, j, dagger=False):
    """c_j (or c_j^*) as a dense matrix, from the chain's own string."""
    return _scatter(chain, chain._local_terms(j, RAISE if dagger else LOWER, string=True))


def test_canonical_anticommutation():
    chain = SpinChain(ANISO, (1, 5))
    ident = np.eye(chain.dim)
    for j in range(1, 6):
        for k in range(1, 6):
            cj, ckd = _jw(chain, j), _jw(chain, k, dagger=True)
            anti = cj @ ckd + ckd @ cj
            target = ident if j == k else 0.0 * ident
            assert np.max(np.abs(anti - target)) < 1e-12
            ck = _jw(chain, k)
            assert np.max(np.abs(cj @ ck + ck @ cj)) < 1e-12


def test_sigma_z_number_identity():
    chain = SpinChain(ANISO, (1, 4))
    for j in range(1, 5):
        lhs = _scatter(chain, chain._local_terms(j, SZ))
        rhs = 2.0 * _jw(chain, j, dagger=True) @ _jw(chain, j) - np.eye(chain.dim)
        assert np.max(np.abs(lhs - rhs)) == 0.0


# --- commutator norms ---------------------------------------------------------------


def test_commutator_short_time_series():
    # P_t = t ||[i[H, sigma^-_2], sigma^x_3]|| + O(t^2)
    H = _reference_hamiltonian(ANISO, 1, 4)
    A, B = _kron_site(4, 1, LOWER), _kron_site(4, 2, SX)
    t = 1e-3
    K = 1j * (H @ A - A @ H)
    first_order = np.linalg.norm(K @ B - B @ K, 2)
    lhs = propagation_upper_bound(SpinChain(ANISO, (1, 4)), 2, 3, t).lhs
    assert abs(lhs - t * first_order) < 100 * t**2


@pytest.fixture(scope="module")
def eleven_sites():
    """(chain, full-space reference) of ANISO on 11 sites, shared by the
    11-site norm tests: each is one eigensolve of 2048 rows."""
    return SpinChain(ANISO, (1, 11)), _Reference(ANISO, 1, 11)


def test_commutator_norm_is_the_dense_svd_at_11_sites(eleven_sites):
    # above 10 sites too, ||[tau_t(c_1), sigma^-_6]|| (lower case 2) is the
    # largest singular value to roundoff
    chain, ref = eleven_sites
    A, B = _kron_site(11, 0, LOWER, string=True), _kron_site(11, 5, LOWER)
    dense = ref.commutator_norm(A, B, 1.0)
    assert propagation_lower_bound(chain, 1, 6, 1.0, 2).commutator == pytest.approx(
        dense, rel=1e-12)


def test_upper_norm_is_the_full_space_svd_at_11_sites(eleven_sites):
    # the upper check's one even sector block carries the norm of the whole
    # commutator ||[tau_t(sigma^-_2), sigma^x_7]||
    chain, ref = eleven_sites
    A, B = _kron_site(11, 1, LOWER), _kron_site(11, 6, SX)
    dense = ref.commutator_norm(A, B, 1.0)
    assert propagation_upper_bound(chain, 2, 7, 1.0).lhs == pytest.approx(dense, rel=1e-12)


# --- free-fermion reduction ------------------------------------------------------------


def test_free_fermion_residual_t0():
    chain = SpinChain(ANISO, (1, 4))
    assert free_fermion_residual(chain, 2, 0.0) < 1e-13


@pytest.mark.parametrize("spec", [ISO, ANISO, XYChainSpec(mu=[1.0], gamma=[-0.5], nu=[2.0])])
def test_free_fermion_residual_exact(spec):
    chain = SpinChain(spec, (1, 4))
    for j in (1, 3):
        for t in (1.0, 2.0):
            assert free_fermion_residual(chain, j, t) < 1e-8


# --- propagation bounds ------------------------------------------------------------------


def test_lower_bound_t0():
    chain = SpinChain(ANISO, (1, 6))
    chk = propagation_lower_bound(chain, 2, 4, 0.0, 1)
    assert chk.commutator < 1e-12 and chk.entry_abs < 1e-12 and chk.ok


def test_lower_bound_all_cases():
    chain = SpinChain(ANISO, (1, 6))
    for case in (1, 2, 3, 4):
        for t in (0.5, 1.5):
            chk = propagation_lower_bound(chain, 2, 4, t, case)
            assert chk.ok


def test_lower_bound_isotropic():
    chain = SpinChain(ISO, (1, 6))
    for case in (1, 2, 3, 4):
        chk = propagation_lower_bound(chain, 2, 4, 1.0, case)
        assert chk.ok


def test_upper_bound_t0():
    chain = SpinChain(ANISO, (1, 6))
    chk = propagation_upper_bound(chain, 2, 5, 0.0)
    assert chk.lhs < 1e-12 and chk.ok


def test_upper_bound_examples():
    chain = SpinChain(ANISO, (1, 6))
    for t in (0.5, 1.0, 2.0):
        chk = propagation_upper_bound(chain, 2, 5, t)
        assert chk.ok
        assert chk.lhs <= chk.rhs


@pytest.mark.parametrize("l, r", [(4, 2), (3, 3), (0, 4), (2, 7)])
def test_bounds_refuse_bad_pairs(l, r):
    # one rule for both bounds: l < r, both sites of the chain's interval
    chain = SpinChain(ANISO, (1, 6))
    with pytest.raises(SpecError, match="1 <= l < r <= 6"):
        propagation_lower_bound(chain, l, r, 0.5, 1)
    with pytest.raises(SpecError, match="1 <= l < r <= 6"):
        propagation_upper_bound(chain, l, r, 0.5)


@pytest.mark.parametrize("case", [0, 5, -1])
def test_lower_bound_refuses_bad_cases(case):
    with pytest.raises(SpecError, match="case must be 1..4"):
        xychain.check_case(case)
    with pytest.raises(SpecError, match="case must be 1..4"):
        propagation_lower_bound(SpinChain(ANISO, (1, 6)), 2, 4, 0.5, case)


# --- light cone speed ---------------------------------------------------------------------


def test_light_cone_speed_matches_velocity_bound():
    # threshold-crossing speed of the commutator front ||[tau_t(c_2),
    # sigma^+_r]|| (lower case 1) stays within 20% of v0; times run
    # outermost, so e^{itH} is formed once per time
    spec = ISO
    chain = SpinChain(spec, (1, 10))
    v0 = lr_velocity_bound(spec)
    crossings = {}
    for t in np.arange(0.1, 2.51, 0.1):
        for r in range(5, 10):
            if r not in crossings and propagation_lower_bound(chain, 2, r, t, 1).commutator >= 0.1:
                crossings[r] = t
        if len(crossings) == 5:
            break
    assert len(crossings) == 5
    dists = np.array([r - 2 for r in crossings], dtype=float)
    times = np.array(list(crossings.values()))
    speed = np.polyfit(times, dists, 1)[0]
    assert speed >= 0.8 * v0


# --- parity sectors against the site-basis reference ---------------------------------


def _kron_site(n, i, mat, string=False):
    """mat on local site i of n (with the sigma^z string left of it)."""
    return reduce(np.kron, [SZ if string and k < i else mat if k == i else np.eye(2)
                            for k in range(n)])


def _reference_hamiltonian(spec, lo, hi):
    n = hi - lo + 1
    H = _kron_site(n, 0, spec.nu_at(lo) * SZ)
    for i in range(1, n):
        H = H + _kron_site(n, i, spec.nu_at(lo + i) * SZ)
    for i in range(n - 1):
        mu, g = spec.mu_at(lo + i), spec.gamma_at(lo + i)
        for pauli, weight in ((SX, 1.0 + g), (SY, 1.0 - g)):
            bond = reduce(np.kron, [pauli if k in (i, i + 1) else np.eye(2) for k in range(n)])
            H = H + mu * weight * bond
    return H


def _assert_sectors(chain, H):
    """The chain's sector Hamiltonians are the parity blocks of the dense H,
    whose cross-parity blocks vanish."""
    for x in (0, 1):
        for y in (0, 1):
            blk = H[np.ix_(chain._states[x], chain._states[y])]
            if x == y:
                assert np.max(np.abs(chain._sector_hamiltonians[x] - blk)) < 1e-12
            else:
                assert not np.any(blk)


class _Reference:
    """Site-basis route: one eigensolve of the full H (real, since every
    coupling is), four dense products per Heisenberg evolution, a full SVD per
    norm."""

    def __init__(self, spec, lo, hi):
        self.w, self.u = np.linalg.eigh(_reference_hamiltonian(spec, lo, hi).real)
        M = TruncatedOperator(single_particle_matrix(spec), lo, hi).matrix
        self.mw, self.mu = np.linalg.eigh(M)

    def heisenberg(self, A, t):
        core = self.u.T @ A @ self.u
        phased = np.exp(1j * t * self.w)[:, None] * core * np.exp(-1j * t * self.w)[None, :]
        return self.u @ phased @ self.u.T

    def commutator_norm(self, A, B, t):
        tau = self.heisenberg(A, t)
        return np.linalg.norm(tau @ B - B @ tau, 2)

    def propagator(self, t):
        return self.mu @ (np.exp(-1j * t * self.mw)[:, None] * self.mu.conj().T)


def _close(value, ref):
    assert abs(value - ref) <= 1e-12 + 1e-10 * abs(ref), (value, ref)


_COUPLING = st.floats(0.2, 1.5).flatmap(lambda x: st.sampled_from([x, -x]))
_ANISOTROPY = st.floats(-2.0, 2.0).filter(lambda g: abs(abs(g) - 1.0) > 0.05)
_FIELD = st.floats(-2.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(mu=st.lists(_COUPLING, min_size=1, max_size=3),
       gamma=st.lists(_ANISOTROPY, min_size=1, max_size=3),
       nu=st.lists(_FIELD, min_size=1, max_size=3),
       lo=st.integers(-3, 3), n=st.integers(2, 6), t=st.floats(0.0, 3.0),
       data=st.data())
def test_sector_route_matches_site_basis(mu, gamma, nu, lo, n, t, data):
    spec = XYChainSpec(mu=mu, gamma=gamma, nu=nu)
    hi = lo + n - 1
    l = data.draw(st.integers(lo, hi - 1))
    r = data.draw(st.integers(l + 1, hi))
    chain = SpinChain(spec, (lo, hi))
    ref = _Reference(spec, lo, hi)
    _assert_sectors(chain, _reference_hamiltonian(spec, lo, hi))
    for j in (l, r):
        i = j - lo
        assert np.array_equal(_jw(chain, j), _kron_site(n, i, LOWER, string=True))
        assert np.array_equal(_jw(chain, j, dagger=True), _kron_site(n, i, RAISE, string=True))
        for pauli in (SX, SY, SZ, LOWER, RAISE):
            assert np.array_equal(_scatter(chain, chain._local_terms(j, pauli)),
                                  _kron_site(n, i, pauli))

    mt = ref.propagator(t)
    assert np.max(np.abs(chain._propagator(t) - mt)) < 1e-13
    row = {(j, dag): 2 * (j - lo) + dag for j in (l, r) for dag in (0, 1)}
    # case -> (B raising?, A = c_l^*?, entry column a creator row?)
    cases = {1: (True, 0, 0), 2: (False, 0, 1), 3: (False, 1, 1), 4: (True, 1, 0)}
    for case, (b_raising, l_dag, r_dag) in cases.items():
        A = _kron_site(n, l - lo, RAISE if l_dag else LOWER, string=True)
        B = _kron_site(n, r - lo, RAISE if b_raising else LOWER)
        chk = propagation_lower_bound(chain, l, r, t, case)
        _close(chk.commutator, ref.commutator_norm(A, B, t))
        _close(chk.entry_abs, abs(mt[row[l, l_dag], row[r, r_dag]]))

    A = _kron_site(n, l - lo, LOWER)
    tail = np.sum(np.abs(mt[: row[l, 0] + 1, row[r, 0]:]))
    default = propagation_upper_bound(chain, l, r, t)
    _close(default.lhs, ref.commutator_norm(A, _kron_site(n, r - lo, SX), t))
    _close(default.rhs, 8.0 * tail)

    assert free_fermion_residual(chain, l, t) < 1e-8
    off = ref.propagator(t + 0.01)
    res = xychain._free_fermion_residual(chain, off, l, t)
    if t >= 0.5:
        # the check sees a propagator that is off by 0.01 in time
        assert res > 1e-4
    # against that propagator the residual is the Frobenius norm of the
    # full-space residual, so at least its spectral norm (the two routes
    # form the residual with different roundoff, hence the 1e-12)
    residual = ref.heisenberg(_kron_site(n, l - lo, LOWER, string=True), t)
    for k in range(n):
        for dagger, mat in ((0, LOWER), (1, RAISE)):
            residual -= off[row[l, 0], 2 * k + dagger] * _kron_site(n, k, mat, string=True)
    _close(res, np.linalg.norm(residual))
    assert res >= np.linalg.norm(residual, 2) * (1 - 1e-12)


def _dense_commutator(chain, image, terms):
    """[T, B] in the full site basis, T scattered from the chain's sector
    blocks and B from its (rows, cols, vals) terms: the entries the chain's
    gathers form, from dense products."""
    T = np.zeros((chain.dim, chain.dim), dtype=complex)
    for (x, y), blk in image.items():
        T[np.ix_(chain._states[x], chain._states[y])] = blk
    B = _scatter(chain, terms)
    return T @ B - B @ T


@settings(max_examples=30, deadline=None)
@given(mu=st.lists(_COUPLING, min_size=1, max_size=3),
       gamma=st.lists(_ANISOTROPY, min_size=1, max_size=3),
       nu=st.lists(_FIELD, min_size=1, max_size=3),
       lo=st.integers(-3, 3), n=st.integers(3, 7), t=st.floats(0.0, 3.0),
       data=st.data())
def test_upper_commutator_blocks_are_conjugate(mu, gamma, nu, lo, n, t, data):
    # C = [tau_t(sigma^-_s), sigma^x_r] satisfies X C X = -C for X = sigma^x_r,
    # an odd involution, so C_11 = -X_10 C_00 X_01 and the even block alone
    # carries ||C||
    spec = XYChainSpec(mu=mu, gamma=gamma, nu=nu)
    hi = lo + n - 1
    s = data.draw(st.integers(lo, hi - 1))
    r = data.draw(st.integers(s + 1, hi))
    chain = SpinChain(spec, (lo, hi))
    terms = chain._local_terms(r, SX)
    image = chain._image("lower", s, t)
    c00 = xychain._odd_commutator(image, chain._odd_terms(terms))
    odd = chain._states[1]
    c11 = _dense_commutator(chain, image, terms)[np.ix_(odd, odd)]
    x = chain._terms_blocks(terms)
    assert np.max(np.abs(c11 + x[1, 0] @ c00 @ x[0, 1])) <= 1e-13
    dense = _Reference(spec, lo, hi).commutator_norm(_kron_site(n, s - lo, LOWER),
                                                     _kron_site(n, r - lo, SX), t)
    _close(propagation_upper_bound(chain, s, r, t).lhs, dense)


@settings(max_examples=40, deadline=None)
@given(mu=st.lists(_COUPLING, min_size=1, max_size=3),
       gamma=st.lists(_ANISOTROPY, min_size=1, max_size=3),
       nu=st.lists(_FIELD, min_size=1, max_size=3),
       lo=st.integers(-3, 3), n=st.integers(2, 7), t=st.floats(0.0, 3.0),
       l_at=st.integers(0, 5), r_at=st.integers(0, 5))
@example(mu=[1.0], gamma=[0.5], nu=[1.0], lo=1, n=2, t=0.0, l_at=0, r_at=0)
@example(mu=[1.0], gamma=[0.5], nu=[1.0], lo=1, n=2, t=1.5, l_at=0, r_at=0)
@example(mu=[0.7, -1.2], gamma=[0.3, -0.4], nu=[0.5, -1.0, 1.5], lo=0, n=7, t=0.0,
         l_at=0, r_at=5)
def test_lower_norm_is_a_certified_krylov_bound(mu, gamma, nu, lo, n, t, l_at, r_at):
    # the lower check's sigma_max(C_00 Q) never exceeds ||C|| (any orthonormal
    # Q), and it equals ||C|| to roundoff because C_00 and C_11 share their at
    # most four distinct singular values: both blocks have the same norm
    spec = XYChainSpec(mu=mu, gamma=gamma, nu=nu)
    hi = lo + n - 1
    l = lo + l_at % (n - 1)
    r = l + 1 + r_at % (hi - l)
    chain = SpinChain(spec, (lo, hi))
    for raising in (True, False):
        value = xychain._lower_commutator(chain, l, r, t, raising)
        terms = chain._local_terms(r, RAISE if raising else LOWER)
        c = _dense_commutator(chain, chain._image("c", l, t), terms)
        full = np.linalg.norm(c, 2)
        assert value <= full * (1 + 1e-13)
        _close(value, full)
        _close(*(np.linalg.norm(c[np.ix_(states, states)], 2) for states in chain._states))


@settings(max_examples=25, deadline=None)
@given(mu=st.lists(_COUPLING, min_size=1, max_size=3),
       gamma=st.lists(_ANISOTROPY, min_size=1, max_size=3),
       nu=st.lists(_FIELD, min_size=1, max_size=3),
       lo=st.integers(-3, 3), n=st.integers(3, 6), t=st.floats(0.0, 3.0),
       dt=st.sampled_from([1e-7, 0.5]), data=st.data())
def test_adjoint_paired_cases_match_site_basis(mu, gamma, nu, lo, n, t, dt, data):
    # cases 1 and 3 share one commutator norm per (l, r, t), and so do 2 and
    # 4: a lone case 3 or 4, and all four cases at two pairs and two close
    # times in shuffled order, must each match the dense reference
    spec = XYChainSpec(mu=mu, gamma=gamma, nu=nu)
    hi = lo + n - 1
    l = data.draw(st.integers(lo, hi - 2))
    r1 = data.draw(st.integers(l + 1, hi - 1))
    r2 = data.draw(st.integers(r1 + 1, hi))
    ref = _Reference(spec, lo, hi)
    # case -> (B raising?, A = c_l^*?)
    cases = {1: (True, 0), 2: (False, 0), 3: (False, 1), 4: (True, 1)}

    def expected(case, r, t):
        b_raising, l_dag = cases[case]
        A = _kron_site(n, l - lo, RAISE if l_dag else LOWER, string=True)
        B = _kron_site(n, r - lo, RAISE if b_raising else LOWER)
        return ref.commutator_norm(A, B, t)

    lone = data.draw(st.sampled_from([3, 4]))
    chk = propagation_lower_bound(SpinChain(spec, (lo, hi)), l, r1, t, lone)
    _close(chk.commutator, expected(lone, r1, t))
    chain = SpinChain(spec, (lo, hi))
    runs = data.draw(st.permutations([(case, r, s) for case in cases
                                      for r in (r1, r2) for s in (t, t + dt)]))
    for case, r, s in runs:
        _close(propagation_lower_bound(chain, l, r, s, case).commutator, expected(case, r, s))


def test_xy_verify_work_count(tmp_path, capsys, monkeypatch):
    # per (pair, time) 1 SVD of a sector block, the upper check's (its even
    # commutator block only); the lower cases take none (a Krylov bound of
    # their even block, whose SVD is of at most KRYLOV_CAP columns) and
    # neither does the free-fermion residual (a Frobenius norm); 3 commutator
    # blocks are formed, one per lower pair of cases (1 and 3, 2 and 4 share
    # a commutator) and the upper check's. The sector eigenvectors enter only
    # e^{itH}, two real products per sector and time: no local operator is
    # transformed to the eigenbasis.
    pairs, times, sector = [[1, 4], [0, 5]], [0.5, 1.0, 2.0], (64, 64)
    svds, products, commutator_blocks = [], [], []
    svd, eigh = np.linalg._linalg.svd, np.linalg.eigh
    odd_commutator = xychain._odd_commutator

    class Eigenvectors(np.ndarray):
        """Counts the matrix products it enters; other ufuncs keep the tag."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Eigenvectors) else x for x in inputs]
            result = getattr(ufunc, method)(*plain, **kwargs)
            if ufunc is np.matmul:
                products.append(ufunc)
                return result
            return result.view(Eigenvectors)

    def counting_svd(a, *args, **kwargs):
        if a.shape == sector:
            svds.append(a.shape)
        return svd(a, *args, **kwargs)

    def tagging_eigh(a, *args, **kwargs):
        w, u = eigh(a, *args, **kwargs)
        return w, u.view(Eigenvectors) if a.shape == sector else u

    def counting_commutator(*args, **kwargs):
        block = odd_commutator(*args, **kwargs)
        commutator_blocks.append(block.shape)
        return block

    monkeypatch.setattr(np.linalg._linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", tagging_eigh)
    monkeypatch.setattr(xychain, "_odd_commutator", counting_commutator)
    cfg = tmp_path / "xy.json"
    cfg.write_text(json.dumps({"mu": [1.0, 0.7], "gamma": [0.5, 0.2, -0.3], "nu": [0.4],
                               "window": [0, 6], "pairs": pairs, "times": times}))
    assert main(["xy-verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"all_ok": True, "checks": 36}
    assert len(svds) == len(pairs) * len(times)
    assert commutator_blocks == [sector] * 3 * len(pairs) * len(times)
    assert len(products) == 2 * 2 * len(times)


def test_xy_verify_lhs_match_the_full_space_svd(tmp_path, capsys):
    # every lower and upper lhs of xy_verify.csv is the full-space SVD of its
    # commutator at a 6-site window; each is far from 0, so a program that
    # reports lhs = 0.0 fails here
    spec = {"mu": [1.0, -0.7], "gamma": [0.5, 0.2, -0.3], "nu": [0.4, -1.1]}
    lo, hi = 1, 6
    cfg = tmp_path / "xy.json"
    cfg.write_text(json.dumps(dict(spec, window=[lo, hi], pairs=[[1, 3], [2, 6], [4, 5]],
                                   times=[0.7, 1.6])))
    assert main(["xy-verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"all_ok": True, "checks": 36}
    ref = _Reference(XYChainSpec(**spec), lo, hi)
    n = hi - lo + 1
    # case -> (A = c_l^*?, B raising?)
    cases = {1: (0, True), 2: (0, False), 3: (1, False), 4: (1, True)}
    checked = []
    for line in (tmp_path / "xy_verify.csv").read_text().splitlines()[3:]:
        name, l, r, t, lhs = line.split(",")[:5]
        i, k, t = int(l) - lo, int(r) - lo, float(t)
        if name == "upper":
            A, B = _kron_site(n, i, LOWER), _kron_site(n, k, SX)
        elif name.startswith("lower_case"):
            l_dag, b_raising = cases[int(name[-1])]
            A = _kron_site(n, i, RAISE if l_dag else LOWER, string=True)
            B = _kron_site(n, k, RAISE if b_raising else LOWER)
        else:
            continue
        dense = ref.commutator_norm(A, B, t)
        assert dense > 1e-3, (name, l, r, t)
        _close(float(lhs), dense)
        checked.append(name)
    assert len(checked) == 30


@pytest.mark.parametrize("pairs, times, cases", [
    ([[1, 4], [0, 5]], [0.5, 1.0, 2.0], [1, 2, 3, 4]),
    ([[2, 3]], [1.0], [3]),
])
def test_xy_verify_eigensolves(tmp_path, capsys, monkeypatch, pairs, times, cases):
    # two spin-sector eigensolves and one free-fermion window, which is
    # propagated and never diagonalized, whatever the check count
    solves, windows = [], []
    eigh, init = np.linalg.eigh, TruncatedOperator.__init__

    def counting_eigh(a, *args, **kwargs):
        solves.append(a.shape)
        return eigh(a, *args, **kwargs)

    def counting_init(self, operator, lo, hi):
        windows.append((lo, hi))
        init(self, operator, lo, hi)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(TruncatedOperator, "__init__", counting_init)
    cfg = tmp_path / "xy.json"
    cfg.write_text(json.dumps({"mu": [1.0, 0.7], "gamma": [0.5, 0.2, -0.3], "nu": [0.4],
                               "window": [0, 6], "pairs": pairs, "times": times,
                               "cases": cases}))
    assert main(["xy-verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"all_ok": True,
                       "checks": len(pairs) * len(times) * (2 + len(cases))}
    assert solves == [(64, 64), (64, 64)]
    assert windows == [(0, 6)]
