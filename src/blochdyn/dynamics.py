"""Finite-window unitary evolution, moments, and transport diagnostics.

One recurrence kernel, `blockjacobi.chebyshev_propagate`, runs every
single-time evolution: a Chebyshev expansion on the block-tridiagonal
matvec that never diagonalizes its window. `TruncatedOperator.propagate`
calls it on one window (evolve, the ballistic limit, the light-cone probe);
`moment_table` calls it once per sample time on the direct sum of the
windows of several operators, with every packet one column, so that all
(operator, packet) evolutions share one recurrence. `moment_trajectory` is
its case of one operator and one packet. The derivative identity and the
localization diagnostic compute `eigensystem` once and evaluate all their
times in that eigenbasis. The dense path is capped at MAX_DENSE_DIM rows,
the window storage at MAX_WINDOW_DIM rows (both in `blockjacobi`).

One light-cone rule sizes every evolution window: a window admits time t for
a packet only if it extends K = chebyshev_order(s |t|) block sites past the
support on each side, where s >= ||J|| is the scale of the expansion
(norm_bound, or in `moment_table` the largest norm_bound s_max of the batch,
which also gives every window of the batch the widest half-width). Each
window is built here from the inputs by `required_half_width` or the same
rule; only `evolve` takes its window from the caller, and checks it. The
window spectrum lies in [-s, s], so the recurrence and the eigenbasis both
give the degree-K Chebyshev polynomial of exp(-itJ) applied to psi up to
CHEBYSHEV_TAIL ||psi||, and that polynomial moves psi at most K block sites,
never to the open boundary: either returns the infinite-chain exp(-itJ) psi
to within 2 CHEBYSHEV_TAIL ||psi||. The certificate covers one forward leg.
The pull-back exp(+itJ) X exp(-itJ) psi of `check_ballistic_limit` and of
the lhs of `check_derivative_identity` runs on the same one-leg window; the
derivative identity holds exactly on any window. The localization
diagnostic's window is its own finite system, not a light cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockjacobi import (
    MAX_DENSE_DIM,
    MAX_WINDOW_DIM,
    BlockJacobiOperator,
    TruncatedOperator,
    WavePacket,
    chebyshev_order,
    chebyshev_propagate,
)
from .errors import (
    DimensionMismatch,
    SizeLimitExceeded,
    SpecError,
    SupportOutsideWindow,
    WindowTooSmall,
)
from .floquet import apply_q, q_norm

# Simpson nodes per matrix product in check_derivative_identity; it bounds the
# (dim, QUAD_CHUNK) work arrays whatever quad_steps is
QUAD_CHUNK = 128
# Largest (time samples, window rows) phase block localization_diagnostic
# forms at once (16 MB of complex entries)
PHASE_CHUNK = 2**20


# ---------------------------------------------------------------------------
# Windows and evolution
# ---------------------------------------------------------------------------


def required_half_width(J: BlockJacobiOperator, support_radius: int, t_max: float) -> int:
    """Smallest symmetric window half-width admitting evolutions up to t_max:
    the support radius plus the light-cone radius chebyshev_order(s |t_max|)."""
    return int(support_radius) + chebyshev_order(J.norm_bound * t_max)


def evolve(trunc: TruncatedOperator, psi: WavePacket, t: float,
           trim: float | None = None) -> WavePacket:
    """psi(t) = exp(-i t J) psi on a truncation window the caller built.

    Raises SupportOutsideWindow if psi does not fit the window and
    WindowTooSmall if the window leaves less than the light-cone margin
    chebyshev_order(norm_bound |t|) past the support on either side.
    The default trim (1e-12 relative) sits above the propagation roundoff
    and the Chebyshev tail (1e-15 relative), so the returned support tracks
    the true light cone instead of the window.
    """
    vec = trunc.embed(psi)
    lo, hi = trunc.window
    slo, shi = psi.support()
    margin, need = min(slo - lo, hi - shi), chebyshev_order(trunc.norm_bound * t)
    if margin < need:
        raise WindowTooSmall(f"window [{lo}, {hi}] leaves margin {margin} "
                             f"but time {t} needs {need}")
    vec = trunc.propagate(vec, t)
    if trim is None:
        trim = 1e-12 * psi.norm()
    return trunc.extract(vec, tol=trim)


# ---------------------------------------------------------------------------
# Moments and transport exponents
# ---------------------------------------------------------------------------


def moment(psi: WavePacket, p: float) -> float:
    """<psi, |X|^p psi> under the block-site position convention."""
    weights = np.abs(psi.sites.astype(float)) ** p
    return float(np.sum(weights * np.sum(np.abs(psi.coeffs) ** 2, axis=1)))


@dataclass(frozen=True)
class MomentTrajectory:
    times: np.ndarray
    p: float
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ValueError("moment values must be nonnegative")


def moment_table(Js, psis, p: float, times) -> np.ndarray:
    """Moments <psi_j(t), |X|^p psi_j(t)> under every operator Js[i] at every
    sample time, as an array of shape (len(times), len(Js), len(psis)) whose
    row k belongs to times[k].

    All evolutions run as one Chebyshev recurrence on the direct sum of the
    operators' windows. Every window is [-N, N], N = the largest packet
    support radius + chebyshev_order(s_max max |t|), s_max the largest
    norm_bound; they are stacked end to end with zero coupling blocks at the
    seams, so they stay decoupled. Each packet is one column, embedded in
    every window. The distinct samples are chained in sorted order, each
    propagated from the previous one. s_max bounds every ||J_i||, so each
    evolution keeps the light-cone certificate of its own window.

    Raises DimensionMismatch unless every operator and packet has the same
    block dimension m, and SizeLimitExceeded, before allocating, when the
    stacked windows exceed MAX_WINDOW_DIM rows.
    """
    Js, psis = list(Js), list(psis)
    if not Js or not psis:
        raise SpecError("need at least one operator and one packet")
    m = Js[0].m
    if any(X.m != m for X in Js + psis):
        raise DimensionMismatch(f"operators and packets must share the block dimension m = {m}")
    times = np.asarray(times, dtype=float)
    samples, row = np.unique(times, return_inverse=True)
    s = max(J.norm_bound for J in Js)
    half = (max(psi.support_radius() for psi in psis)
            + chebyshev_order(s * np.max(np.abs(times))))
    rows = len(Js) * (2 * half + 1) * m
    if rows > MAX_WINDOW_DIM:
        raise SizeLimitExceeded(f"{len(Js)} windows [{-half}, {half}] stack to {rows} rows "
                                f"(limit {MAX_WINDOW_DIM})")
    truncs = [J.truncate(half) for J in Js]
    seam = np.zeros((1, m, m))
    diag = np.concatenate([tr.diag_blocks for tr in truncs])
    off = np.concatenate([blocks for tr in truncs for blocks in (seam, tr.off_blocks)][1:])
    weights = np.abs(truncs[0].position_diagonal) ** p
    vec = np.tile(np.stack([truncs[0].embed(psi) for psi in psis], axis=1), (len(Js), 1))
    table, t_prev = np.empty((len(samples), len(Js), len(psis))), 0.0
    for k, t in enumerate(samples):
        vec = chebyshev_propagate(diag, off, s, vec, t - t_prev)
        segments = vec.reshape(len(Js), -1, len(psis))
        # one dot per column, as for a lone evolution: a matrix product
        # could sum in another order
        for i, j in np.ndindex(len(Js), len(psis)):
            table[k, i, j] = weights @ np.abs(segments[i, :, j]) ** 2
        t_prev = t
    return table[row]


def moment_trajectory(J: BlockJacobiOperator, psi: WavePacket, p: float,
                      times) -> MomentTrajectory:
    """Moments <psi(t), |X|^p psi(t)> at the sorted samples: `moment_table`
    for one operator and one packet, on the light-cone window of the largest
    |t|."""
    times = np.asarray(sorted(times), dtype=float)
    values = moment_table([J], [psi], p, times)[:, 0, 0]
    return MomentTrajectory(times=times, p=float(p), values=values)


@dataclass(frozen=True)
class ExponentEstimate:
    """Finite-time surrogate for the upper/lower transport exponents at order p."""

    beta_plus_hat: float
    beta_minus_hat: float
    fit_window: tuple
    residual: float

    def __post_init__(self):
        if self.beta_minus_hat > self.beta_plus_hat + 1e-12:
            raise ValueError("beta_minus_hat must not exceed beta_plus_hat")


def exponent_estimate(traj: MomentTrajectory) -> ExponentEstimate:
    """Exponent surrogate from a computed trajectory.

    The limsup/liminf definitions are approximated by the max/min of slopes
    log(M_{k+1}/M_k) / (p log(t_{k+1}/t_k)) between consecutive sample times;
    the reported residual is the RMS deviation of a single-line log-log fit.
    """
    if len(traj.times) < 2:
        raise SpecError("need at least two sample times")
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
    )


def transport_exponents(J: BlockJacobiOperator, psi: WavePacket, p: float,
                        times) -> ExponentEstimate:
    """Estimate the transport exponents of psi under J at moment order p."""
    return exponent_estimate(moment_trajectory(J, psi, p, times))


# ---------------------------------------------------------------------------
# Ballistic limit and the derivative identity
# ---------------------------------------------------------------------------


def check_ballistic_limit(J: BlockJacobiOperator, psi: WavePacket, times,
                          grid_size: int = 1024) -> np.ndarray:
    """Errors ||(1/t) X(t) psi - Q psi|| along the time grid.

    X(t) psi is evaluated as exp(+itJ) X exp(-itJ) psi on the light-cone
    window of the largest time; Q psi comes from the fiber quadrature.
    """
    times = np.asarray(sorted(times), dtype=float)
    if np.any(times <= 0):
        raise SpecError("ballistic-limit times must be positive")
    q_psi = apply_q(J, psi, grid_size=grid_size).packet
    # the window must also hold Q psi, whose trimmed support can reach past
    # the light cone of psi at short times
    trunc = J.truncate(max(required_half_width(J, psi.support_radius(), times[-1]),
                           q_psi.support_radius()))
    qvec = trunc.embed(q_psi)
    vec = trunc.embed(psi)
    x_diag = trunc.position_diagonal
    errors = []
    for t in times:
        pulled = trunc.propagate(x_diag * trunc.propagate(vec, t), -t)
        errors.append(float(np.linalg.norm(pulled / t - qvec)))
    return np.array(errors)


def check_derivative_identity(J: BlockJacobiOperator, psi: WavePacket, T: float,
                              quad_steps: int) -> float:
    """Residual || X(T) psi - X psi - integral_0^T A(t) psi dt ||.

    The time integral uses composite Simpson with quad_steps intervals
    (rounded up to even) on the Heisenberg current A(t) psi, A = i[J, X].
    The window is diagonalized once, J = U diag(lambda) U^*, and every
    Simpson node is evaluated in that eigenbasis: with a = U^* A U and
    phi = U^* psi, A(t) psi = U (conj(e_t) * (a @ (e_t * phi))) where
    e_t = exp(-i t lambda), so the nodes are stacked QUAD_CHUNK at a time
    into matrix products instead of two propagations each. X(T) psi =
    U (conj(e_T) * (U^* (X U (e_T * phi)))) is formed in the same eigenbasis.
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
    phi = u_h @ vec

    psi_T = u @ (np.exp(-1j * T * w) * phi)
    lhs = u @ (np.exp(1j * T * w) * (u_h @ (x_diag * psi_T))) - x_diag * vec

    # current operator as a dense window matrix: A = i [J, X], entrywise
    # A_jk = i J_jk (x_k - x_j)
    a_mat = 1j * trunc.matrix * (x_diag[None, :] - x_diag[:, None])
    a_eig = u_h @ a_mat @ u
    ts = np.linspace(0.0, T, steps + 1)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (T / steps) / 3.0
    acc = np.zeros_like(phi)
    for start in range(0, steps + 1, QUAD_CHUNK):
        chunk = slice(start, start + QUAD_CHUNK)
        phases = np.exp(-1j * np.outer(w, ts[chunk]))
        acc += (phases.conj() * (a_eig @ (phases * phi[:, None]))) @ weights[chunk]
    return float(np.linalg.norm(lhs - u @ acc))


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
    The sources form one (window rows, 2K + 1) block, refused with
    SizeLimitExceeded before allocation when it is larger than the largest
    dense matrix, MAX_DENSE_DIM^2 entries.
    """
    if epsilon <= 0:
        raise SpecError("epsilon must be positive")
    K = int(K)
    if K < 0:
        raise SpecError("K must be nonnegative")
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    v0 = q_norm(J, grid_size=grid_size)
    m = J.m
    half_width = required_half_width(J, K // m + 1, t_grid[-1])
    trunc = J.truncate(half_width)
    lo, hi = trunc.window

    scalar_lo = lo * m
    if trunc.dim * (2 * K + 1) > MAX_DENSE_DIM**2:
        raise SizeLimitExceeded(f"{2 * K + 1} sources on a window of {trunc.dim} rows need "
                                f"{trunc.dim * (2 * K + 1)} entries (limit {MAX_DENSE_DIM**2})")
    # the 2K+1 sources delta_k, |k| <= K, as the columns of one block
    sources = np.zeros((trunc.dim, 2 * K + 1), dtype=complex)
    sources[np.arange(-K, K + 1) - scalar_lo, np.arange(2 * K + 1)] = 1.0
    rows = []
    for T in t_grid:
        nmin = int(math.ceil(m * max(v0 - epsilon, 0.0) * T))
        nmax = int(math.floor(m * v0 * T)) + m - 1
        shell_pos = np.arange(nmin, nmax + 1)
        shell = np.unique(np.concatenate([shell_pos, -shell_pos]))
        idx = shell - scalar_lo
        keep = (idx >= 0) & (idx < trunc.dim)
        shell, idx = shell[keep], idx[keep]
        vals = np.abs(trunc.propagate(sources, T)[idx]) ** 2
        # first source, then first shell index, reaching the largest mass
        col = int(np.argmax(np.max(vals, axis=0)))
        row = int(np.argmax(vals[:, col]))
        rows.append((float(T), int(shell[row]), col - K, float(vals[row, col])))

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
    intercept: float
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
    and every pair must lie in the window, both checked before the eigensolve.
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
    dists = np.array([abs(r - l) for l, r in pairs], dtype=float)
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
        intercept=float(coef[1]),
        r_squared=float(r2),
        decay_rate=-slope,
        localized=bool(slope < -0.05 and r2 > 0.9),
    )
