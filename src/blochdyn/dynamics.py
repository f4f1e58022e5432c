"""Finite-window unitary evolution, moments, and transport diagnostics.

One private entry point, `_light_cone`, runs every infinite-chain evolution
of `evolve`, `moment_table` (so `moment_trajectory`), `check_ballistic_limit`
and `corollary_probe`. Its operator gets the window [-N, N] of
`required_half_width` for the widest packet and the largest |t|, and every
packet is one column. Two routes give the states on it, chosen per call by
a deterministic memory rule (`_use_bloch`), with no option:
- Chebyshev: the sorted distinct times run as one chain of
  `TruncatedOperator.propagate` steps on the window;
- Bloch: the operator's fibers on the grid of G quasi-momenta, G the
  smallest power of two with G q >= 2N + 1, are eigensolved once, in the
  slices of `floquet._grid_scan` (G // 2 + 1 of them for a real operator,
  whose other fibers are their conjugates), and each sample is computed from
  t = 0 as phases e^{-itw}, the map back from the eigenbasis and one
  inverse FFT over the cell axis, read on [-N, N] by cell index mod G.
  Unlike a band scan it holds every fiber's eigenvectors for the whole
  call, G (mq)^2 entries, so it runs only where they number at most
  BLOCH_MEMORY_RATIO times the entries of the Chebyshev state.
The derivative identity and the localization diagnostic evaluate all their
times in one window eigenbasis, of the window's own dtype: a real operator's
window matrix and eigenvectors are real, and every product of them with a
complex block is a real product, so no complex copy of the window is made.
The derivative identity's current A = i[J, X] is assembled from the window
matrix of J, not from the eigenbasis. The dense path is capped at
MAX_DENSE_DIM rows, the window storage at MAX_WINDOW_DIM rows (both in
`blockjacobi`).

The light-cone certificate: the window reaches K = chebyshev_order(s |t|)
block sites past every support, s = norm_bound, and the degree-K
Chebyshev polynomial that is exp(-itJ) up to CHEBYSHEV_TAIL on [-s, s]
moves a packet at most K block sites, never to the open boundary. So the
window's exp(-itJ) psi is the infinite chain's to within 2 CHEBYSHEV_TAIL
||psi||; the window evolution is a group and each chained step adds at most
CHEBYSHEV_TAIL ||psi||, so the k-th distinct sample (k = 1, 2, ...) is
within (k + 2) CHEBYSHEV_TAIL ||psi||, up to roundoff.

The Bloch certificate: the fibers diagonalize exactly the G-periodic ring
of G q sites, onto which the packets fold injectively. The degree-K
Chebyshev polynomial of the same expansion moves a packet within [-N, N]
on the chain, and folding intertwines it with the ring's, so on the window
the ring's exp(-itJ) psi and the chain's differ by at most the two tails:
each sample is within 2 CHEBYSHEV_TAIL ||psi|| of the infinite chain,
because G q >= 2N + 1 keeps the window from aliasing. Roundoff grows like
eps s |t| through the phases and does not grow with the number of samples,
since each is computed from t = 0.

On either route the first sample is thus within 3 CHEBYSHEV_TAIL ||psi||
of the infinite chain, and a p-th moment of a normalized packet within
6 N^p CHEBYSHEV_TAIL (1 + 3 CHEBYSHEV_TAIL) of the infinite chain's moment
on |n| <= N; `limitperiodic.growth_certificate`
subtracts this term, which leaves no radius from p = 12 on (zero potential).
Every evolution runs forward:
exp(-itJ) is unitary, so `check_ballistic_limit` takes ||X(t) psi / t - Q psi||
as ||X psi(t) / t - exp(-itJ) Q psi||. The derivative identity holds exactly
on any window; the localization diagnostic's window is its own finite
system, not a light cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockjacobi import (
    MAX_DENSE_DIM,
    BlockJacobiOperator,
    TruncatedOperator,
    WavePacket,
    chebyshev_order,
    position_commutator,
)
from .errors import (
    DimensionMismatch,
    NumericsError,
    SizeLimitExceeded,
    SpecError,
    SupportOutsideWindow,
)
from .floquet import (
    _grid_scan,
    _scan_slices,
    apply_q,
    fiber_matrices,
    floquet_transform,
    q_norm,
)

# Simpson nodes per matrix product in check_derivative_identity; it bounds the
# (dim, QUAD_CHUNK) work arrays whatever quad_steps is
QUAD_CHUNK = 128
# Largest (time samples, window rows) phase block localization_diagnostic
# forms at once (16 MB of complex entries)
PHASE_CHUNK = 2**20
# eigenvector entries the Bloch route may hold per entry of the Chebyshev
# state (rows x packets); TruncatedOperator.propagate itself holds about six
# such arrays, so the Bloch route stays within a few times its memory
BLOCH_MEMORY_RATIO = 16


# ---------------------------------------------------------------------------
# Windows and evolution
# ---------------------------------------------------------------------------


def _finite_power(x, p) -> bool:
    """Whether x**p is a finite float."""
    try:
        return math.isfinite(math.pow(x, p))
    except OverflowError:
        return False


def required_half_width(J: BlockJacobiOperator, support_radius: int, t_max: float) -> int:
    """Smallest symmetric window half-width admitting evolutions up to t_max:
    the support radius plus the light-cone radius chebyshev_order(s |t_max|)."""
    return int(support_radius) + chebyshev_order(J.norm_bound * t_max)


def _light_cone_half(J, radius, times, columns) -> int:
    """N of the window [-N, N] `_light_cone` gives J for `columns` packets of
    support radius at most `radius`, refused with SizeLimitExceeded when
    their state block exceeds MAX_DENSE_DIM^2 entries."""
    half = required_half_width(J, radius, np.max(np.abs(times)))
    rows = (2 * half + 1) * J.m
    if rows * columns > MAX_DENSE_DIM**2:
        raise SizeLimitExceeded(f"{columns} packets on {rows} window rows need "
                                f"{rows * columns} entries (limit {MAX_DENSE_DIM**2})")
    return half


def _bloch_grid(J, half) -> int:
    """G of the Bloch route: the smallest power of two with G q >= 2 half + 1,
    so the G-periodic ring of G q sites holds the window [-half, half] once."""
    return 1 << (-(-(2 * half + 1) // J.q) - 1).bit_length()


def _use_bloch(J, half, columns) -> bool:
    """Whether `_light_cone` takes the Bloch route: wherever J's scan would
    not be refused (`floquet._scan_slices`) and the route's eigenvectors,
    G d^2 entries with d = mq and G = `_bloch_grid`, number at most
    BLOCH_MEMORY_RATIO times the rows x columns entries of the Chebyshev
    route's state.

    Since G q >= 2N + 1, it never takes the Bloch route when d > 16 columns;
    when G > 1, G q < 2 (2N + 1) too, and it always does when d <= 8
    columns. Elsewhere the Chebyshev route runs, so the choice never
    refuses anything itself.
    """
    G = _bloch_grid(J, half)
    try:
        _scan_slices(J, G)
    except SizeLimitExceeded:
        return False
    return G * (J.m * J.q) ** 2 <= BLOCH_MEMORY_RATIO * (2 * half + 1) * J.m * columns


def _bloch_states(J, psis, samples, half):
    """(t, state) per sorted sample, as in `_light_cone`, each computed from
    t = 0 in Bloch space: J's fibers on the grid of G are eigensolved once,
    slice by slice, those of `_grid_scan` (a real J's fiber G - g takes the
    eigenvalues and the conjugate eigenvectors of fiber g), and each
    packet's `floquet_transform` is kept in their eigenbases; a sample is
    the phases e^{-itw}, the map back and one inverse FFT over the cell
    axis, whose cells are read on the window sites [-half, half] by cell
    index mod G and slot."""
    G, d = _bloch_grid(J, half), J.m * J.q
    sites = np.arange(-half, half + 1)
    thetas, slices = _grid_scan(J, G)
    count = len(thetas)
    coords = np.stack([floquet_transform(J, psi, G).reshape(G, d) for psi in psis], axis=-1)
    w, v = np.empty((G, d)), np.empty((G, d, d), dtype=complex)
    for sl in slices:
        w[sl], v[sl] = np.linalg.eigh(fiber_matrices(J, thetas[sl])[0])
    # the fibers past the scan mirror it (`floquet._grid_source`): fiber
    # G - g takes w[g] and conj(v[g]), written in place
    w[count:] = w[G - count:0:-1]
    np.conjugate(v[G - count:0:-1], out=v[count:])
    for sl in _scan_slices(J, G):
        coords[sl] = np.swapaxes(v[sl].conj(), -1, -2) @ coords[sl]
    for t in samples:
        cells = np.fft.ifft(v @ (np.exp(-1j * t * w)[..., None] * coords), axis=0)
        cells = cells.reshape(G, J.q, J.m, len(psis))
        yield t, cells[sites // J.q % G, sites % J.q].reshape(-1, len(psis))


def _chebyshev_states(trunc, psis, samples):
    """(t, state) per sorted sample, as in `_light_cone`, by one chain of
    `trunc.propagate` steps from each sample to the next."""
    vec = np.stack([trunc.embed(psi) for psi in psis], axis=1)
    t_prev = 0.0
    for t in samples:
        vec = trunc.propagate(vec, t - t_prev)
        yield t, vec
        t_prev = t


def _light_cone(J, psis, times):
    """(trunc, row, states) for the evolutions of every packet psis[j] under
    J (see the module docstring): trunc is J on the light-cone window;
    times[k] is the row[k]-th sorted distinct sample; states yields
    (t, state) per sample in that order, state[:, j] the evolution of
    psis[j] on the window. The route, Bloch or Chebyshev, is the one
    `_use_bloch` picks. Empty or non-finite times raise SpecError before
    anything else; packets of another block dimension than J's raise
    DimensionMismatch.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)):
        raise SpecError("need one or more finite times")
    psis = list(psis)
    if not psis:
        raise SpecError("need at least one packet")
    if any(psi.m != J.m for psi in psis):
        raise DimensionMismatch(f"packets must share the operator's block dimension m = {J.m}")
    # return_inverse also keeps np.unique from importing numpy.ma
    samples, row = np.unique(times, return_inverse=True)
    half = _light_cone_half(J, max(psi.support_radius() for psi in psis), times, len(psis))
    trunc = J.truncate(half)
    if _use_bloch(J, half, len(psis)):
        return trunc, row, _bloch_states(J, psis, samples, half)
    return trunc, row, _chebyshev_states(trunc, psis, samples)


def evolve(J: BlockJacobiOperator, psi: WavePacket, times,
           trim: float | None = None) -> list:
    """The packets exp(-i t J) psi for every t of times, in the order of
    times; repeats, zero and negative times are allowed. One `_light_cone`
    call runs them all on the light-cone window of the largest |t|.

    The default trim (1e-12 relative) sits above the propagation roundoff
    and the Chebyshev tail (1e-15 relative), so the returned support tracks
    the true light cone instead of the window.
    """
    trunc, row, states = _light_cone(J, [psi], times)
    if trim is None:
        trim = 1e-12 * psi.norm()
    found = [trunc.extract(state[:, 0], tol=trim) for _, state in states]
    return [found[k] for k in row]


# ---------------------------------------------------------------------------
# Moments and transport exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTrajectory:
    times: np.ndarray
    p: float
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ValueError("moment values must be nonnegative")


def moment_table(J: BlockJacobiOperator, psis, p: float, times) -> np.ndarray:
    """Moments <psi_j(t), |X|^p psi_j(t)> under J at every sample time, as an
    array of shape (len(times), len(psis)) whose row k belongs to times[k].
    All evolutions run through one `_light_cone` call, and raise what it
    raises. A negative moment order (its weight at the origin is infinite)
    raises SpecError, and one whose weight N^p on the window [-N, N] is not
    a finite float raises NumericsError, both before any evolution.
    """
    if not p >= 0:
        raise SpecError(f"moment order p must be >= 0, got {p}")
    trunc, row, states = _light_cone(J, psis, times)
    half = trunc.window[1]
    if not _finite_power(half, p):
        raise NumericsError(f"the moments overflow: the weight N^p = {half}^{p:g} of the "
                            f"window [-{half}, {half}] is not a finite float")
    weights = np.abs(trunc.position_diagonal) ** p
    # one dot per column, as for a lone evolution: a matrix product
    # could sum in another order
    table = np.array([[weights @ np.abs(state[:, j]) ** 2 for j in range(state.shape[1])]
                      for _, state in states])
    return table[row]


def moment_trajectory(J: BlockJacobiOperator, psi: WavePacket, p: float,
                      times) -> MomentTrajectory:
    """Moments <psi(t), |X|^p psi(t)> at the sorted samples: `moment_table`
    for one operator and one packet, on the light-cone window of the largest
    |t|."""
    times = np.asarray(sorted(times), dtype=float)
    values = moment_table(J, [psi], p, times)[:, 0]
    return MomentTrajectory(times=times, p=float(p), values=values)


@dataclass(frozen=True)
class ExponentEstimate:
    """Finite-time surrogate for the upper/lower transport exponents at order
    p, with the running slopes between consecutive sample times it is taken
    from."""

    beta_plus_hat: float
    beta_minus_hat: float
    fit_window: tuple
    residual: float
    running_slopes: np.ndarray

    def __post_init__(self):
        if self.beta_minus_hat > self.beta_plus_hat + 1e-12:
            raise ValueError("beta_minus_hat must not exceed beta_plus_hat")


def _check_fit_times(times):
    """SpecError unless there are two or more times, positive and increasing."""
    if len(times) < 2:
        raise SpecError("need at least two sample times")
    if times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise SpecError("sample times must be positive and strictly increasing")


def _check_fit(psi: WavePacket, times):
    """SpecError unless the sorted times pass `_check_fit_times` and psi is
    not the zero packet, whose moments are all 0 and have no logarithm."""
    _check_fit_times(sorted(times))
    if psi.norm() == 0.0:
        raise SpecError("the zero packet has no transport exponents: every moment is 0")


def exponent_estimate(traj: MomentTrajectory) -> ExponentEstimate:
    """Exponent surrogate from a computed trajectory.

    The limsup/liminf definitions are approximated by the max/min of the
    running slopes log(M_{k+1}/M_k) / (p log(t_{k+1}/t_k)) between
    consecutive sample times; the reported residual is the RMS deviation of
    a single-line log-log fit. The fit takes logarithms of the times and
    the moments and divides by the times' spacings, so it needs at least two
    times, all positive and strictly increasing, and positive moments
    (SpecError otherwise).
    """
    _check_fit_times(traj.times)
    if not np.all(traj.values > 0):
        raise SpecError("every moment must be positive to take its logarithm")
    p = traj.p
    logs = np.log(traj.values)
    logt = np.log(traj.times)
    slopes = np.diff(logs) / (p * np.diff(logt))
    beta_plus = float(np.clip(np.max(slopes), 0.0, 1.2))
    beta_minus = float(np.clip(np.min(slopes), 0.0, 1.2))
    design = np.vstack([p * logt, np.ones_like(logt)]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coef - logs) ** 2)))
    return ExponentEstimate(
        beta_plus_hat=beta_plus,
        beta_minus_hat=beta_minus,
        fit_window=(float(traj.times[0]), float(traj.times[-1])),
        residual=residual,
        running_slopes=slopes,
    )


def transport_exponents(J: BlockJacobiOperator, psi: WavePacket, p: float,
                        times) -> ExponentEstimate:
    """Estimate the transport exponents of psi under J at moment order p; the
    sorted times and the packet are checked (`_check_fit`) before anything
    is evolved."""
    _check_fit(psi, times)
    return exponent_estimate(moment_trajectory(J, psi, p, times))


# ---------------------------------------------------------------------------
# Ballistic limit and the derivative identity
# ---------------------------------------------------------------------------


def check_ballistic_limit(J: BlockJacobiOperator, psi: WavePacket, times,
                          grid_size: int = 1024) -> np.ndarray:
    """Errors ||(1/t) X(t) psi - Q psi|| along the time grid.

    exp(-itJ) is unitary, so each error is ||X psi(t) / t - exp(-itJ) Q psi||:
    psi and Q psi (from the fiber quadrature) evolve forward as the two
    columns of one `_light_cone` call, whose window holds both supports.
    No times, or a time <= 0 or non-finite, raise SpecError before Q psi
    is computed.
    """
    times = np.asarray(sorted(times), dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times) & (times > 0)):
        raise SpecError("ballistic-limit needs one or more finite positive times")
    q_psi = apply_q(J, psi, grid_size=grid_size).packet
    trunc, row, states = _light_cone(J, [psi, q_psi], times)
    x_diag = trunc.position_diagonal
    errors = [float(np.linalg.norm(x_diag * state[:, 0] / t - state[:, 1]))
              for t, state in states]
    return np.array(errors)[row]


def _product(mat, z):
    """mat @ z for a complex z. A real mat multiplies the real and imaginary
    parts of z, side by side, in one real product instead of being copied
    to complex."""
    if np.iscomplexobj(mat):
        return mat @ z
    return (mat @ z.view(float).reshape(len(z), -1)).view(complex).reshape(z.shape)


def check_derivative_identity(J: BlockJacobiOperator, psi: WavePacket, T: float,
                              quad_steps: int) -> float:
    """Residual || X(T) psi - X psi - integral_0^T A(t) psi dt ||.

    The time integral uses composite Simpson with quad_steps intervals
    (rounded up to even) on the Heisenberg current A(t) psi, A = i[J, X].
    A is built from the window matrix of J, never from its eigenbasis (the
    identity would then hold by construction), as i R with R = [J, X]
    (`position_commutator`). The window is diagonalized once,
    J = U diag(lambda) U^*, and every Simpson node is evaluated in that
    eigenbasis: with r = U^* R U and phi = U^* psi,
    A(t) psi = i U (conj(e_t) * (r @ (e_t * phi))) where e_t =
    exp(-i t lambda), so the nodes are stacked QUAD_CHUNK at a time into
    matrix products instead of two propagations each, and the factor i is
    applied once, to their sum. X(T) psi = U (conj(e_T) * (U^* (X U (e_T *
    phi)))) is formed in the same eigenbasis. A real window keeps U and r
    real: each product of them with a complex block is one real product
    (`_product`), and no complex copy of the window exists.
    """
    if T == 0:
        return 0.0
    steps = int(quad_steps)
    if steps % 2:
        steps += 1
    trunc = J.truncate(required_half_width(J, psi.support_radius() + 1, T))
    w, u = trunc.eigensystem
    vec = trunc.embed(psi)
    x_diag = trunc.position_diagonal
    u_h = u.conj().T
    phi = _product(u_h, vec)

    psi_T = _product(u, np.exp(-1j * T * w) * phi)
    lhs = _product(u, np.exp(1j * T * w) * _product(u_h, x_diag * psi_T)) - x_diag * vec

    r_eig = u_h @ (position_commutator(trunc.matrix, x_diag) @ u)
    ts = np.linspace(0.0, T, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (T / steps) / 3.0
    acc = np.zeros_like(phi)
    for start in range(0, steps + 1, QUAD_CHUNK):
        chunk = slice(start, start + QUAD_CHUNK)
        phases = np.exp(-1j * np.outer(w, ts[chunk]))
        acc += (phases.conj() * _product(r_eig, phases * phi[:, None])) @ weights[chunk]
    return float(np.linalg.norm(lhs - 1j * _product(u, acc)))


# ---------------------------------------------------------------------------
# Light-cone mass probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRecord:
    time: float
    n_star: int
    k_star: int
    mass: float
    threshold_ok: bool


@dataclass(frozen=True)
class CorollaryProbeResult:
    records: tuple
    c_tilde: float
    all_ok: bool


def corollary_probe(J: BlockJacobiOperator, epsilon: float, t_grid, K: int,
                    grid_size: int = 512) -> CorollaryProbeResult:
    """Scan the ballistic shell for propagator mass of order 1/T.

    For each time T the scalar indices n with
    m(v0 - epsilon) T <= |n| <= m v0 T + m - 1 (v0 the maximal band speed)
    and sources |k| <= K are scanned for the largest |<delta_n, e^{-iTJ}
    delta_k>|^2. A coefficient c_tilde is fitted by least squares to
    mass ~ c/T; each record passes when its mass reaches c_tilde / (2T).
    Among masses within 1e-9 relative of the largest, the first source k,
    then the first shell index n, is reported, with its own mass.
    The sources are the columns of one `_light_cone` call across the
    times; no times, a time <= 0 or a non-finite one (SpecError) and a
    source block beyond its size limit are refused before any source
    exists.
    """
    if epsilon <= 0:
        raise SpecError("epsilon must be positive")
    K = int(K)
    if K < 0:
        raise SpecError("K must be nonnegative")
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if t_grid.size == 0 or not np.all(np.isfinite(t_grid) & (t_grid > 0)):
        raise SpecError("corollary-probe needs one or more finite positive times")
    m = J.m
    # delta_k sits at block site floor(k / m), so the sources reach ceil(K / m)
    _light_cone_half(J, -(-K // m), t_grid, 2 * K + 1)
    v0 = q_norm(J, grid_size=grid_size)
    sources = [WavePacket.delta_scalar(k, m) for k in range(-K, K + 1)]
    trunc, row, states = _light_cone(J, sources, t_grid)
    scalar_lo = trunc.window[0] * m
    found = []
    for T, state in states:
        nmin = int(math.ceil(m * max(v0 - epsilon, 0.0) * T))
        nmax = int(math.floor(m * v0 * T)) + m - 1
        shell_pos = np.arange(nmin, nmax + 1)
        # the sorted shell -nmax..-nmin, nmin..nmax, with 0 once
        shell = np.concatenate([-shell_pos[shell_pos > 0][::-1], shell_pos])
        idx = shell - scalar_lo
        keep = (idx >= 0) & (idx < trunc.dim)
        shell, idx = shell[keep], idx[keep]
        vals = np.abs(state[idx]) ** 2
        # the first source, then the first shell index, within 1e-9 relative
        # of the largest mass: time reversal and the period make mirror
        # pairs equal up to roundoff, which differs between the routes
        near = vals >= (1.0 - 1e-9) * np.max(vals)
        col = int(np.argmax(np.any(near, axis=0)))
        n = int(np.argmax(near[:, col]))
        found.append((float(T), int(shell[n]), col - K, float(vals[n, col])))
    rows = [found[k] for k in row]

    masses = np.array([r[3] for r in rows])
    ts = np.array([r[0] for r in rows])
    c_tilde = float(np.sum(masses / ts) / np.sum(1.0 / ts**2))
    records = tuple(
        ProbeRecord(time=t, n_star=n, k_star=k, mass=mass,
                    threshold_ok=bool(mass >= c_tilde / (2.0 * t)))
        for (t, n, k, mass) in rows
    )
    return CorollaryProbeResult(
        records=records,
        c_tilde=c_tilde,
        all_ok=bool(all(r.threshold_ok for r in records)),
    )


# ---------------------------------------------------------------------------
# Uniform dynamical localization diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationReport:
    pairs: tuple
    sup_amplitudes: np.ndarray
    slope: float
    r_squared: float
    decay_rate: float
    localized: bool


def localization_step(J) -> float:
    """The coarsest time step localization_diagnostic takes: 0.1 * 2pi / norm_bound."""
    return 0.1 * 2.0 * math.pi / J.norm_bound


def localization_diagnostic(trunc: TruncatedOperator, pairs, t_grid) -> LocalizationReport:
    """sup over the time grid of |<delta_l, e^{-itJ} delta_r>| per scalar pair,
    with an exponential-decay fit of log sup against |r - l|.

    Verdict "localized" requires fit slope < -0.05 with R^2 > 0.9. The time
    grid must resolve the fastest phase, step <= localization_step(trunc),
    every pair must lie in the window, and the distances |r - l| must take
    at least two values for the fit to have a slope; all checked before the
    eigensolve.
    The phases exp(-i t lambda) are formed at most PHASE_CHUNK entries at a
    time; the sup over the grid is the max over the chunks.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise SpecError("need at least two time samples")
    step = float(np.max(np.diff(np.sort(t_grid))))
    if step > localization_step(trunc) + 1e-12:
        raise SpecError(
            f"time grid step {step:.4f} too coarse for operator bound {trunc.norm_bound:.3f}"
        )
    lo, hi = trunc.window[0] * trunc.m, (trunc.window[1] + 1) * trunc.m - 1
    for l, r in pairs:
        if not (lo <= l <= hi and lo <= r <= hi):
            raise SupportOutsideWindow(f"pair {[l, r]!r} outside the window's sites [{lo}, {hi}]")
    dists = np.array([abs(r - l) for l, r in pairs], dtype=float)
    if len(set(dists)) < 2:
        raise SpecError("the decay fit needs pairs at two or more distances |r - l|")
    w, u = trunc.eigensystem
    overlaps = [u[l - lo] * u[r - lo].conj() for l, r in pairs]
    sups = np.zeros(len(pairs))
    # one buffer for every chunk, so a chunk's phases are never alive twice
    chunk = max(1, PHASE_CHUNK // len(w))
    buf = np.empty((min(chunk, len(t_grid)), len(w)), dtype=complex)
    for start in range(0, len(t_grid), chunk):
        ts = t_grid[start:start + chunk]
        phases = np.multiply(-1j, np.outer(ts, w), out=buf[:len(ts)])
        np.exp(phases, out=phases)
        sups = np.maximum(sups, [np.max(np.abs(phases @ ov)) for ov in overlaps])
    logs = np.log(np.maximum(sups, 1e-300))
    design = np.vstack([dists, np.ones_like(dists)]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    slope = float(coef[0])
    return LocalizationReport(
        pairs=tuple((int(l), int(r)) for l, r in pairs),
        sup_amplitudes=sups,
        slope=slope,
        r_squared=float(r2),
        decay_rate=-slope,
        localized=bool(slope < -0.05 and r2 > 0.9),
    )
