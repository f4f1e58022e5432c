"""Transfer matrices, Lyapunov exponents, and staged quasi-ballistic
constructions for scalar Schroedinger operators.

Potentials are real 1D arrays interpreted as periodic sequences (period =
length). The n-step transfer matrix at energy E is the ordered product

    Phi(n, E, w) = [[E - w_{n-1}, -1], [1, 0]] ... [[E - w_0, -1], [1, 0]]

(rightmost factor first). One kernel, transfer_matrix, computes it for a
whole array of energies at once, with per-energy running rescaling so norms
of order exp(10^4) stay representable through their logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockjacobi import WavePacket, build_operator, scalar_spec
from .dynamics import moment_trajectory, required_half_width
from .errors import (
    NoCertificateFound,
    PsiEnvelopeViolated,
    QuadratureNotConverged,
    WindowTooShort,
)
from .floquet import fiber_matrices

DEFAULT_SEED = 20240901


# ---------------------------------------------------------------------------
# Transfer matrices
# ---------------------------------------------------------------------------


RESCALE = 1e30


def _log(x):
    """Elementwise math.log. numpy's SIMD log can differ in the last bit from
    its scalar path, so an array call would not match per-energy calls bit
    for bit; math.log does."""
    x = np.asarray(x, dtype=float)
    return np.array([math.log(v) for v in x.ravel()]).reshape(x.shape)[()]


@dataclass(frozen=True)
class TransferProduct:
    """Rescaled transfer-matrix products at one energy or an array of them:
    matrix = scaled * exp(log_scale).

    The energy's shape leads every per-energy field: scaled has shape
    energy.shape + (2, 2), the others energy.shape (scalars for a scalar
    energy). peak_log_norm is max over 1 <= m <= n of log||Phi(m)||.

    Determinant drift is accumulated over restarted segments (determinants
    multiply, and each segment stays inside floating-point range even when
    the full product's condition number does not).
    """

    n: int
    energy: complex | np.ndarray
    window: np.ndarray
    scaled: np.ndarray
    log_scale: float | np.ndarray
    det_log_drift: float | np.ndarray
    det_arg_drift: float | np.ndarray
    peak_log_norm: float | np.ndarray

    @property
    def matrix(self):
        """The unscaled products; entries overflow to inf for very long ones."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.scaled * np.exp(self.log_scale)[..., None, None]

    @property
    def log_norm(self):
        """log of the spectral norm, safe for any product length."""
        return self.log_scale + _log(np.linalg.norm(self.scaled, 2, axis=(-2, -1)))

    def det_deviation(self):
        """(|log|det||, |arg det|) of the full product; both vanish for an
        exact unimodular product."""
        return abs(self.det_log_drift), abs(self.det_arg_drift)


def _step(m, d):
    """[[d, -1], [1, 0]] @ m for stacked 2x2 matrices m[i, j, k] and the
    per-energy d[k]: rows (m11, m12), (m21, m22) <- d (m11, m12) - (m21, m22),
    (m11, m12)."""
    out = np.empty_like(m)
    np.multiply(d, m[0], out=out[0])
    out[0] -= m[1]
    out[1] = m[0]
    return out


def _norm_sq(m, abs_m):
    """Squared spectral norm of stacked 2x2 matrices, in closed form from the
    Gram matrix [[a, c], [conj(c), b]] of their columns (no cancellation when
    the two singular values are close, unlike the Frobenius-determinant form)."""
    sq = abs_m * abs_m
    a = sq[0, 0] + sq[1, 0]
    b = sq[0, 1] + sq[1, 1]
    c = np.conj(m[0, 0]) * m[0, 1] + np.conj(m[1, 0]) * m[1, 1]
    half = 0.5 * (a - b)
    return 0.5 * (a + b) + np.sqrt(half * half + (c.real**2 + c.imag**2))


def transfer_matrix(n: int, energy, w, periodic: bool = False) -> TransferProduct:
    """Ordered products of one-step matrices over w_0 .. w_{n-1}, at a scalar
    energy or at every entry of an energy array at once.

    With periodic=False the window must supply at least n values; with
    periodic=True the (shorter) window is tiled. Each energy's product is
    rescaled by its largest entry when that exceeds RESCALE.
    """
    n = int(n)
    if n < 1:
        raise WindowTooShort("need at least one step")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if not periodic and len(w) < n:
        raise WindowTooShort(f"window of length {len(w)} cannot supply {n} steps")
    E = np.asarray(energy, dtype=complex)
    shape, E = E.shape, E.ravel()
    eye = np.zeros((2, 2, E.size), dtype=complex)
    eye[0, 0] = eye[1, 1] = 1.0
    mat, seg = eye.copy(), eye.copy()
    log_scale = np.zeros(E.size)
    det_log = np.zeros(E.size)
    det_arg = np.zeros(E.size)
    # largest ||Phi(m)||^2 so far, in units of exp(2 log_scale)
    peak_sq = np.zeros(E.size)
    for j in range(n):
        d = E - w[j % len(w)]
        mat = _step(mat, d)
        seg = _step(seg, d)
        abs_mat = np.abs(mat)
        peak_sq = np.maximum(peak_sq, _norm_sq(mat, abs_mat))
        peak = abs_mat.max(axis=(0, 1))
        big = peak > RESCALE
        if big.any():
            peak_sq[big] /= peak[big] ** 2
            mat[:, :, big] /= peak[big]
            log_scale[big] += _log(peak[big])
        # restart while the segment is small: the 2x2 determinant of a large
        # ill-conditioned product cancels catastrophically
        restart = np.abs(seg).max(axis=(0, 1)) > 10.0
        if j == n - 1:
            restart[:] = True
        if restart.any():
            s = seg[:, :, restart]
            det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
            det_log[restart] += np.log(np.abs(det))
            det_arg[restart] += np.angle(det)
            seg[:, :, restart] = eye[:, :, :1]
    peak_log = log_scale + 0.5 * np.log(peak_sq)
    per_energy = [a.reshape(shape)[()] for a in (E, log_scale, det_log, det_arg, peak_log)]
    return TransferProduct(n=n, energy=per_energy[0], window=w[: min(len(w), n)].copy(),
                           scaled=np.moveaxis(mat, (0, 1), (-2, -1)).reshape(shape + (2, 2)),
                           log_scale=per_energy[1], det_log_drift=per_energy[2],
                           det_arg_drift=per_energy[3], peak_log_norm=per_energy[4])


def finite_lyapunov(n: int, energy, w, periodic: bool = False):
    """(1/n) log ||Phi(n, E, w)|| with the spectral norm, at a scalar energy
    or elementwise over an energy array."""
    return transfer_matrix(n, energy, w, periodic).log_norm / n


@dataclass(frozen=True)
class PotentialFamily:
    """Finite family of periodic potentials sharing one period."""

    members: tuple
    period: int

    def __post_init__(self):
        members = tuple(np.atleast_1d(np.asarray(m, dtype=float)) for m in self.members)
        if not members:
            raise WindowTooShort("family must be nonempty")
        if any(len(m) != self.period for m in members):
            raise WindowTooShort(
                f"every member must have period {self.period}"
            )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "period", int(self.period))


def family_lyapunov(n: int, energy, members, periodic: bool = False) -> float:
    """Average of finite_lyapunov over a family of potentials (a
    PotentialFamily, always tiled, or any iterable of potential arrays)."""
    if isinstance(members, PotentialFamily):
        members, periodic = members.members, True
    members = list(members)
    if not members:
        raise WindowTooShort("family must be nonempty")
    return float(np.mean([finite_lyapunov(n, energy, w, periodic) for w in members]))


def periodic_lyapunov(energy, w_period):
    """Exact asymptotic exponent for a periodic potential: (1/p) log of the
    spectral radius of the one-period product, branch >= 1, at a scalar
    energy (a float) or elementwise over an energy array."""
    w = np.atleast_1d(np.asarray(w_period, dtype=float))
    p = len(w)
    prod = transfer_matrix(p, energy, w)
    rho = np.max(np.abs(np.linalg.eigvals(prod.scaled)), axis=-1)
    exponent = np.maximum(prod.log_scale + _log(rho), 0.0) / p
    return float(exponent) if np.ndim(exponent) == 0 else exponent


# ---------------------------------------------------------------------------
# Thouless cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThoulessResult:
    """Both sides of the Thouless check; lhs, rhs and gap take the shape of
    the points z (numpy scalars for a scalar z)."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    gap: float | np.ndarray
    grid_size: int


# Smallest Im z at which the density-of-states integrand is smooth enough.
THOULESS_MIN_IMAG = 0.05


def thouless_check(p: int, z, w, grid_size: int = 2048, quad_tol: float = 1e-4) -> ThoulessResult:
    """Two independent routes to the Lyapunov exponent at complex energy z, a
    scalar or an array of points.

    lhs: transfer-matrix route, (1/p) log(spectral radius) of the one-period
    product. rhs: density-of-states route, the log-potential of the band
    measure computed from the scalar Bloch fibers,
    (1 / (2 pi p)) integral of sum_j log|z - lambda_j(theta)|.
    The fiber eigenvalues do not depend on z: they are computed once, on the
    grid and on its half for the convergence test, and shared by all points.
    Requires Im z >= THOULESS_MIN_IMAG so the integrand stays smooth.
    """
    zs = np.asarray(z, dtype=complex)
    shape, zs = zs.shape, zs.ravel()
    if np.any(zs.imag < THOULESS_MIN_IMAG):
        low = zs.imag[zs.imag < THOULESS_MIN_IMAG][0]
        raise ValueError(f"need Im z >= {THOULESS_MIN_IMAG} for a stable check, got {low}")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    p = int(p)
    if len(w) != p:
        raise WindowTooShort(f"potential has period {len(w)}, expected {p}")

    J = build_operator(scalar_spec(w))

    def fiber_eigenvalues(G):
        jf, _ = fiber_matrices(J, 2.0 * np.pi * np.arange(G) / G)
        return np.linalg.eigvalsh(jf)

    half = max(grid_size // 2, 16)
    lam, lam_half = fiber_eigenvalues(grid_size), fiber_eigenvalues(half)
    lhs, rhs = periodic_lyapunov(zs, w), np.empty(len(zs))
    for i, zi in enumerate(zs.tolist()):
        rhs[i] = np.sum(np.log(np.abs(zi - lam))) / (grid_size * p)
        rhs_half = np.sum(np.log(np.abs(zi - lam_half))) / (half * p)
        if abs(rhs[i] - rhs_half) > quad_tol:
            raise QuadratureNotConverged(
                f"density-of-states quadrature moved by {abs(rhs[i] - rhs_half):.2e} "
                f"between grids {grid_size // 2} and {grid_size}"
            )
    lhs, rhs = lhs.reshape(shape)[()], rhs.reshape(shape)[()]
    return ThoulessResult(lhs=lhs, rhs=rhs, gap=np.abs(lhs - rhs), grid_size=int(grid_size))


# ---------------------------------------------------------------------------
# Transport criterion integral
# ---------------------------------------------------------------------------


# Largest Simpson grid dt_criterion refines to before giving up.
DT_MAX_POINTS = 2**18 + 1


def check_dt_args(w, K: float, T: float, alpha: float = 1.0, p_period: int | None = None):
    """Raise unless dt_criterion can run on these arguments."""
    if K <= 0 or T <= 0 or not 0.0 < alpha <= 1.0:
        raise ValueError("need K > 0, T > 0, and alpha in (0, 1]")
    if p_period is not None and len(w) != int(p_period):
        raise WindowTooShort(f"potential period {len(w)} does not match declared {p_period}")


def dt_criterion(w, coupling: float, K: float, T: float, alpha: float = 1.0,
                 p_period: int | None = None, rel_tol: float = 1e-4) -> float:
    """Integral over [-K, K] of 1 / max_{1<=n<=floor(T^alpha)}
    ||Phi(n, E + i/T, coupling * w)||^2 (Damanik & Tcheremchantsev, JAMS 20
    (2007)), by composite Simpson on uniform grids.

    The first grid has spacing <= 1/T, the width of the integrand's features;
    each refinement halves the spacing and evaluates only the new midpoints.
    The estimate is accepted once two successive halvings each move it by at
    most rel_tol relative; QuadratureNotConverged is raised if that needs
    more than DT_MAX_POINTS points.

    Order-1 values signal transport (transfer matrices stay polynomially
    bounded on the spectrum); exponentially small values signal a spectral
    gap or positive Lyapunov exponent on [-K, K]. The integrand never
    exceeds 1 because every one-step factor has norm >= 1.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float)) * float(coupling)
    check_dt_args(w, K, T, alpha, p_period)
    n_max = max(1, int(math.floor(T**alpha)))
    K = float(K)

    def integrand(E):
        peak = transfer_matrix(n_max, E + 1j / T, w, periodic=True).peak_log_norm
        return np.exp(-2.0 * peak)

    intervals = 2 * math.ceil(K * T)
    if intervals + 1 > DT_MAX_POINTS:
        raise QuadratureNotConverged(
            f"a grid of spacing 1/T needs {intervals + 1} points, above {DT_MAX_POINTS}")
    f = integrand(np.linspace(-K, K, intervals + 1))
    estimates = []
    while True:
        h = 2.0 * K / intervals
        estimates.append(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                                    + 2.0 * f[2:-1:2].sum()))
        last = estimates[-3:]
        if len(last) == 3 and all(abs(b - a) <= rel_tol * abs(b) for a, b in zip(last, last[1:])):
            return float(last[-1])
        if 2 * intervals + 1 > DT_MAX_POINTS:
            raise QuadratureNotConverged(
                f"Simpson estimates {estimates[-3:]} still moving by more than "
                f"{rel_tol} relative at {intervals + 1} points")
        refined = np.empty(2 * intervals + 1)
        refined[::2] = f
        refined[1::2] = integrand(-K + h * (np.arange(intervals) + 0.5))
        f, intervals = refined, 2 * intervals


# ---------------------------------------------------------------------------
# Perturbation stability and growth certificates
# ---------------------------------------------------------------------------


def schroedinger_operator(potential):
    """Discrete Schroedinger operator (hopping 1) for a periodic potential."""
    return build_operator(scalar_spec(potential))


def check_envelope(psi: WavePacket, m_env: int):
    if psi.m != 1:
        raise PsiEnvelopeViolated("envelope bound applies to scalar packets")
    sites = psi.sites
    bound = m_env * np.exp(-np.abs(sites) / m_env)
    if np.any(np.abs(psi.coeffs[:, 0]) > bound * (1.0 + 1e-12)):
        raise PsiEnvelopeViolated(
            f"packet exceeds the envelope {m_env} exp(-|n|/{m_env})"
        )


def envelope_packet(m_env: int, cutoff: int | None = None) -> WavePacket:
    """Normalized two-sided exponential at the envelope boundary."""
    if cutoff is None:
        cutoff = int(math.ceil(m_env * 40))
    ns = np.arange(-cutoff, cutoff + 1)
    vals = m_env * np.exp(-np.abs(ns) / m_env)
    vals = vals / np.linalg.norm(vals)
    return WavePacket(-cutoff, vals.reshape(-1, 1).astype(complex))


def perturbation_stability(W, V, psi: WavePacket, t: float, p: float,
                           m_env: int) -> float:
    """|moment(t; base potential) - moment(t; perturbed potential)| with both
    evolutions run on a common truncation sized for the larger norm bound."""
    check_envelope(psi, m_env)
    jw = schroedinger_operator(W)
    jv = schroedinger_operator(V)
    half = max(required_half_width(jw, psi.support_radius(), t),
               required_half_width(jv, psi.support_radius(), t))
    mw = moment_trajectory(jw, psi, p, [t], half_width=half)
    mv = moment_trajectory(jv, psi, p, [t], half_width=half)
    return float(abs(mw.values[0] - mv.values[0]))


def _battery(m_env):
    return (("delta0", WavePacket.delta_scalar(0, 1)),
            ("envelope_exp", envelope_packet(m_env)))


def _threshold(T, p):
    return T**p / math.log(T)


def _tiled_sum(base, extra):
    """Pointwise sum of two periodic potentials, tiled to the lcm period."""
    base = np.atleast_1d(np.asarray(base, dtype=float))
    extra = np.atleast_1d(np.asarray(extra, dtype=float))
    period = math.lcm(len(base), len(extra))
    idx = np.arange(period)
    return base[idx % len(base)] + extra[idx % len(extra)]


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified (time, radius) pair for threshold-beating moment growth.

    time is the smallest dyadic time at which every battery packet clears
    twice the threshold T^p / log T under the base potential; packet_times
    holds each packet's own smallest passing time. radius is a perturbation
    size within which sampled potentials keep every packet above the
    (unhalved) threshold at that time.
    """

    time: float
    radius: float
    moment_order: float
    envelope_m: int
    battery: tuple
    packet_times: dict
    packet_moments: dict
    seed: int


def growth_certificate(W, p: float, m_env: int, seed: int = DEFAULT_SEED,
                       time_budget: float = 4096.0, n_perturbations: int = 8,
                       radius_floor: float = 1e-6) -> GrowthCertificate:
    """Search dyadic times for moment growth beating 2 T^p / log T, then
    bisect the perturbation radius that preserves T^p / log T.

    Raises NoCertificateFound when either search exhausts its budget.
    """
    W = np.atleast_1d(np.asarray(W, dtype=float))
    jw = schroedinger_operator(W)
    battery = _battery(m_env)
    packet_times: dict = {}
    packet_moments: dict = {}

    T = 1.0
    while T < max(1, m_env):
        T *= 2.0
    certified_T = None
    while T <= time_budget:
        all_pass = T > 1.0
        for name, psi in battery:
            mom = moment_trajectory(jw, psi, p, [T]).values[0]
            packet_moments.setdefault(name, {})[T] = float(mom)
            passed = T > 1.0 and mom > 2.0 * _threshold(T, p)
            if passed and name not in packet_times:
                packet_times[name] = T
            all_pass = all_pass and passed
        if all_pass:
            certified_T = T
            break
        T *= 2.0
    if certified_T is None:
        raise NoCertificateFound(
            f"no dyadic time up to {time_budget} beat twice the threshold"
        )

    def ball_ok(delta):
        rng = np.random.default_rng(seed)
        pr = max(16, 2 * len(W))
        for _ in range(n_perturbations):
            V = _tiled_sum(W, rng.uniform(-delta, delta, pr))
            jv = schroedinger_operator(V)
            for _, psi in battery:
                mom = moment_trajectory(jv, psi, p, [certified_T]).values[0]
                if not mom > _threshold(certified_T, p):
                    return False
        return True

    hi = 1.0
    while not ball_ok(hi):
        hi *= 0.5
        if hi < radius_floor:
            raise NoCertificateFound(
                f"no perturbation radius above {radius_floor} preserved the threshold"
            )
    lo_pass, hi_fail = hi, (2.0 * hi if hi < 1.0 else None)
    if hi_fail is not None:
        for _ in range(8):
            mid = 0.5 * (lo_pass + hi_fail)
            if ball_ok(mid):
                lo_pass = mid
            else:
                hi_fail = mid

    return GrowthCertificate(
        time=float(certified_T),
        radius=float(lo_pass),
        moment_order=float(p),
        envelope_m=int(m_env),
        battery=tuple(name for name, _ in battery),
        packet_times={k: float(v) for k, v in packet_times.items()},
        packet_moments={k: dict(v) for k, v in packet_moments.items()},
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Staged construction of a quasi-ballistic potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    stage: int
    potential: np.ndarray
    period: int
    delta: float
    time: float
    moment_order: float
    envelope_m: int


@dataclass(frozen=True)
class VerificationRow:
    stage: int
    time: float
    threshold: float
    worst_moment: float
    ok: bool


@dataclass(frozen=True)
class GenericConstruction:
    records: tuple
    verification: tuple
    final_potential: np.ndarray

    @property
    def all_ok(self):
        return all(row.ok for row in self.verification)


def _alternating_pattern(period, amplitude):
    """Deterministic perturbation of exact period `period`: +amplitude on the
    first half, -amplitude on the second."""
    half = period // 2
    return np.concatenate([np.full(half, amplitude), np.full(period - half, -amplitude)])


def generic_builder(stages: int, p: float, m_env: int, seed: int = DEFAULT_SEED,
                    max_attempts: int = 3) -> GenericConstruction:
    """Finite-stage realization of nested perturbation balls with certified
    moment growth.

    Stage 1 starts from the zero potential; stage k doubles the period and
    adds an alternating perturbation of size delta_{k-1}/4, then re-certifies.
    Radii are capped to enforce delta_{k+1} < delta_k / 2, so the final
    potential lies inside every stage's ball; the verification table replays
    each stage's threshold inequality with the final potential.
    """
    if not 1 <= stages <= 5:
        raise ValueError("stages must be between 1 and 5 (desk scale)")
    shrink = 1.0
    for _ in range(max_attempts):
        records = []
        potential = np.zeros(1)
        period = 1
        prev_delta = None
        try:
            for k in range(1, stages + 1):
                if k > 1:
                    period *= 2
                    eps = shrink * prev_delta / 4.0
                    potential = _tiled_sum(potential, _alternating_pattern(period, eps))
                cert = growth_certificate(potential, p, m_env, seed=seed)
                delta = cert.radius
                if prev_delta is not None:
                    delta = min(delta, 0.499 * prev_delta)
                records.append(StageRecord(
                    stage=k, potential=potential.copy(), period=period,
                    delta=float(delta), time=cert.time, moment_order=float(p),
                    envelope_m=int(m_env),
                ))
                prev_delta = delta
        except NoCertificateFound:
            shrink *= 0.5
            continue

        final_v = records[-1].potential
        jv = schroedinger_operator(final_v)
        battery = _battery(m_env)
        rows = []
        for rec in records:
            worst = min(float(moment_trajectory(jv, psi, p, [rec.time]).values[0])
                        for _, psi in battery)
            thr = _threshold(rec.time, p)
            rows.append(VerificationRow(stage=rec.stage, time=rec.time, threshold=thr,
                                        worst_moment=worst, ok=bool(worst > thr)))
        construction = GenericConstruction(records=tuple(records),
                                           verification=tuple(rows),
                                           final_potential=final_v)
        if construction.all_ok:
            return construction
        shrink *= 0.5
    raise NoCertificateFound(
        f"staged construction failed verification after {max_attempts} shrink attempts"
    )
