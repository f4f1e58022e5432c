"""Transfer matrices, Lyapunov exponents, and staged quasi-ballistic
constructions for scalar Schroedinger operators.

Potentials are real 1D arrays interpreted as periodic sequences (period =
length). The n-step transfer matrix at energy E is the ordered product

    Phi(n, E, w) = [[E - w_{n-1}, -1], [1, 0]] ... [[E - w_0, -1], [1, 0]]

(rightmost factor first). One kernel, transfer_matrix, computes it for a
whole array of energies at once. It cuts the n steps into blocks of
ceil(sqrt(n)) steps and handles all blocks together, so it takes about
2 sqrt(n) vectorized steps and sqrt(n) chained products instead of n
steps: n = 10^6 at 21 energies takes about 1 s. Per-energy running
rescaling keeps norms of order exp(10^6) representable through their
logarithms.

Growth certificates are proved, not sampled: by Duhamel,
||psi_V(T) - psi_W(T)|| <= T ||V - W||_inf, so `growth_certificate` turns
the margin of W's moments over T^p / log T into a radius by arithmetic.
`generic_builder` nests the balls (perturbations delta_{k-1}/4, radii at
most 0.499 delta_{k-1}), so its final potential lies inside every ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockjacobi import CHEBYSHEV_TAIL, WavePacket, build_operator, scalar_spec
from .dynamics import _finite_power, moment_table, required_half_width
from .errors import (
    NoCertificateFound,
    PsiEnvelopeViolated,
    QuadratureNotConverged,
    SizeLimitExceeded,
    SpecError,
    WindowTooShort,
)
from .floquet import _scan_slices, _theta_grid, check_grid, fiber_matrices

ENVELOPE_CUTOFF = 40  # envelope_packet's tail cut, in decay lengths m_env


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

    The energy's shape leads every field: scaled has shape energy.shape +
    (2, 2), the others energy.shape (scalars for a scalar energy).
    peak_log_norm is max over 1 <= m <= n of log||Phi(m)||.
    """

    scaled: np.ndarray
    log_scale: float | np.ndarray
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


def _step(m, d):
    """In place, m <- [[d, -1], [1, 0]] @ m for 2x2 matrices m[i, j, ...] and
    d broadcasting against m[0, 0]: rows (m11, m12), (m21, m22) <- d (m11, m12)
    - (m21, m22), (m11, m12)."""
    top = d * m[0]
    top -= m[1]
    m[1] = m[0]
    m[0] = top


def _matmul(a, b):
    """a @ b for 2x2 matrices a[i, j, ...] and b[i, j, ...]."""
    out = np.empty_like(b)
    for i in (0, 1):
        np.multiply(a[i, 0], b[0], out=out[i])
        out[i] += a[i, 1] * b[1]
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


def _rescale(m, abs_m, log_scale, peak_sq=None):
    """Divide each matrix of m whose largest entry exceeds RESCALE by that
    entry, in place, adding its log to log_scale (and dividing peak_sq, a
    squared norm in the same units, by its square)."""
    peak = abs_m.max(axis=(0, 1))
    big = peak > RESCALE
    if big.any():
        top = peak[big]
        m[:, :, big] /= top
        log_scale[big] += _log(top)
        if peak_sq is not None:
            peak_sq[big] /= top**2


# Each pass of the kernel holds at most this many 2x2 matrices per array
# (1 MB of complex entries). From 2^12 to 2^16 the kernel's speed did not
# change beyond run-to-run noise; smaller chunks hold less memory.
CHUNK_MATRICES = 2**14


def _block_products(n, L, E, w):
    """The three passes of transfer_matrix for one chunk of energies E:
    (Phi(n) scaled, its log scale, peak log norm), each with E's length as
    its last axis."""
    B = -(-n // L)
    last = n - (B - 1) * L
    starts = np.arange(B) * L
    eye = np.zeros((2, 2, B, E.size), dtype=complex)
    eye[0, 0] = eye[1, 1] = 1.0

    # passes 1 and 2 run in np.longdouble (80-bit extended on x86-64): the
    # block products of a periodic potential often coincide, and their
    # rounding errors would then add up coherently along the chain. Their
    # magnitudes are read in double, where numpy's reductions are fast.
    #
    # pass 1: the products of the B - 1 full blocks (the last block's is never
    # chained), all at once; blocks that start at the same offset into w are
    # the same product, so a periodic potential needs at most len(w) of them
    offsets, block = np.unique(starts[:-1] % len(w), return_inverse=True)
    prod = eye[:, :, :len(offsets)].astype(np.clongdouble)
    prod_log = np.zeros((len(offsets), E.size))
    for i in range(L if B > 1 else 0):
        _step(prod, E - w[(offsets + i) % len(w), None])
        _rescale(prod, np.abs(prod.astype(complex)), prod_log)

    # pass 2: chain them into Phi(bL), the product entering block b
    mat, log_scale = eye.copy(), np.zeros((B, E.size))
    run = mat[:, :, 0].astype(np.clongdouble)
    for b in range(B - 1):
        run = _matmul(prod[:, :, block[b]], run)
        log_scale[b + 1] = prod_log[block[b]] + log_scale[b]
        _rescale(run, np.abs(run.astype(complex)), log_scale[b + 1])
        mat[:, :, b + 1] = run

    # pass 3: replay every block from Phi(bL) for the running peak and Phi(n)
    # largest ||Phi(m)||^2 so far in each block, in units of exp(2 log_scale)
    peak_sq = np.zeros((B, E.size))
    for i in range(L):
        nb = B if i < last else B - 1
        m = mat[:, :, :nb]
        _step(m, E - w[(starts[:nb] + i) % len(w), None])
        abs_m = np.abs(m)
        np.maximum(peak_sq[:nb], _norm_sq(m, abs_m), out=peak_sq[:nb])
        _rescale(m, abs_m, log_scale[:nb], peak_sq[:nb])
    peak_log = (log_scale + 0.5 * np.log(peak_sq)).max(axis=0)
    return mat[:, :, -1], log_scale[-1], peak_log


def transfer_matrix(n: int, energy, w) -> TransferProduct:
    """Ordered products of one-step matrices over w_0 .. w_{n-1}, the
    potential w tiled periodically, at a scalar energy or at every entry of
    an energy array at once. Each product is rescaled by its largest entry
    whenever that exceeds RESCALE.

    The n steps are cut into B = ceil(n / L) blocks of L = ceil(sqrt(n))
    steps (the last may be shorter). Three passes, each a loop of at most L
    or B vectorized steps, replace the n sequential ones: pass 1 forms every
    block's product, pass 2 chains them into Phi(bL), the product entering
    block b, and pass 3 replays every block from there for the running peak
    and Phi(n) itself: 2 L vectorized steps and B - 1 chained products in
    all. Passes 1 and 2 run in np.longdouble, so on x86-64 the chain adds
    no error beyond that of replaying one block in double. L depends on n
    only, and the energies are processed in chunks of CHUNK_MATRICES // B,
    so each energy's arithmetic is the same whatever else is in the call:
    an array call is bit-identical to per-energy scalar calls.
    """
    n = int(n)
    if n < 1:
        raise WindowTooShort("need at least one step")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    E = np.asarray(energy, dtype=complex)
    shape, E = E.shape, E.ravel()
    L = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    chunk = max(1, CHUNK_MATRICES // -(-n // L))
    parts = [_block_products(n, L, E[k:k + chunk], w) for k in range(0, max(E.size, 1), chunk)]
    mat, log_scale, peak_log = (np.concatenate(part, axis=-1) for part in zip(*parts))
    return TransferProduct(scaled=np.moveaxis(mat, (0, 1), (-2, -1)).reshape(shape + (2, 2)),
                           log_scale=log_scale.reshape(shape)[()],
                           peak_log_norm=peak_log.reshape(shape)[()])


def finite_lyapunov(n: int, energy, w):
    """(1/n) log ||Phi(n, E, w)|| with the spectral norm, at a scalar energy
    or elementwise over an energy array."""
    return transfer_matrix(n, energy, w).log_norm / n


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


# Smallest Im z at which the density-of-states integrand is smooth enough,
# and the largest change of that route from the half grid to the grid.
THOULESS_MIN_IMAG = 0.05
THOULESS_QUAD_TOL = 1e-4


def thouless_check(z, w, grid_size: int = 2048) -> ThoulessResult:
    """Two independent routes to the Lyapunov exponent at complex energy z, a
    scalar or an array of points, for the potential w of period p = len(w).

    lhs: transfer-matrix route, (1/p) log(spectral radius) of the one-period
    product. rhs: density-of-states route, the log-potential of the band
    measure computed from the scalar Bloch fibers,
    (1 / (2 pi p)) integral of sum_j log|z - lambda_j(theta)|.
    The fiber eigenvalues do not depend on z: they are computed once, on the
    grid and on its half for the convergence test, and shared by all points.
    Requires Im z >= THOULESS_MIN_IMAG so the integrand stays smooth; the
    two grids must agree to THOULESS_QUAD_TOL.
    """
    G = check_grid(grid_size)
    zs = np.asarray(z, dtype=complex)
    shape, zs = zs.shape, zs.ravel()
    if np.any(zs.imag < THOULESS_MIN_IMAG):
        low = zs.imag[zs.imag < THOULESS_MIN_IMAG][0]
        raise SpecError(f"need Im z >= {THOULESS_MIN_IMAG} for a stable check, got {low}")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    p = len(w)

    J = build_operator(scalar_spec(w))

    def fiber_eigenvalues(grid):
        thetas = _theta_grid(grid)
        return np.concatenate([np.linalg.eigvalsh(fiber_matrices(J, thetas[sl])[0])
                               for sl in _scan_slices(J, grid)])

    half = G // 2
    lam, lam_half = fiber_eigenvalues(G), fiber_eigenvalues(half)
    lhs, rhs = periodic_lyapunov(zs, w), np.empty(len(zs))
    for i, zi in enumerate(zs.tolist()):
        rhs[i] = np.sum(np.log(np.abs(zi - lam))) / (G * p)
        rhs_half = np.sum(np.log(np.abs(zi - lam_half))) / (half * p)
        if abs(rhs[i] - rhs_half) > THOULESS_QUAD_TOL:
            raise QuadratureNotConverged(
                f"density-of-states quadrature moved by {abs(rhs[i] - rhs_half):.2e} "
                f"between grids {half} and {G}"
            )
    lhs, rhs = lhs.reshape(shape)[()], rhs.reshape(shape)[()]
    return ThoulessResult(lhs=lhs, rhs=rhs, gap=np.abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Transport criterion integral
# ---------------------------------------------------------------------------


# Largest Simpson grid dt_criterion refines to before giving up, and the
# relative change of its estimate that it accepts.
DT_MAX_POINTS = 2**18 + 1
DT_REL_TOL = 1e-4


def dt_criterion(w, coupling: float, K: float, T: float, alpha: float = 1.0) -> float:
    """Integral over [-K, K] of 1 / max_{1<=n<=floor(T^alpha)}
    ||Phi(n, E + i/T, coupling * w)||^2 (Damanik & Tcheremchantsev, JAMS 20
    (2007)), by composite Simpson on uniform grids.

    The first grid has spacing <= 1/T, the width of the integrand's features;
    each refinement halves the spacing and evaluates only the new midpoints.
    The estimate is accepted once two successive halvings each move it by at
    most DT_REL_TOL relative; QuadratureNotConverged is raised if that needs
    more than DT_MAX_POINTS points, and SizeLimitExceeded, before anything
    runs, if the first grid alone does.

    Order-1 values signal transport (transfer matrices stay polynomially
    bounded on the spectrum); exponentially small values signal a spectral
    gap or positive Lyapunov exponent on [-K, K]. The integrand never
    exceeds 1 because every one-step factor has norm >= 1.
    """
    if K <= 0 or T <= 0 or not 0.0 < alpha <= 1.0:
        raise SpecError("need K > 0, T > 0, and alpha in (0, 1]")
    # the first Simpson grid has 2 ceil(K T) + 1 points
    if K * T > (DT_MAX_POINTS - 1) // 2:
        raise SizeLimitExceeded(f"K T = {K * T:g} needs a grid of spacing 1/T with more "
                                f"than {DT_MAX_POINTS} points")
    w = np.atleast_1d(np.asarray(w, dtype=float)) * float(coupling)
    n_max = max(1, int(math.floor(T**alpha)))
    K = float(K)

    def integrand(E):
        peak = transfer_matrix(n_max, E + 1j / T, w).peak_log_norm
        return np.exp(-2.0 * peak)

    intervals = 2 * math.ceil(K * T)
    f = integrand(np.linspace(-K, K, intervals + 1))
    estimates = []
    while True:
        h = 2.0 * K / intervals
        estimates.append(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                                    + 2.0 * f[2:-1:2].sum()))
        last = estimates[-3:]
        if len(last) == 3 and all(abs(b - a) <= DT_REL_TOL * abs(b)
                                  for a, b in zip(last, last[1:])):
            return float(last[-1])
        if 2 * intervals + 1 > DT_MAX_POINTS:
            raise QuadratureNotConverged(
                f"Simpson estimates {estimates[-3:]} still moving by more than "
                f"{DT_REL_TOL} relative at {intervals + 1} points")
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


def envelope_packet(m_env: int) -> WavePacket:
    """Normalized two-sided exponential at the envelope boundary, cut at
    ENVELOPE_CUTOFF decay lengths."""
    cutoff = int(math.ceil(m_env * ENVELOPE_CUTOFF))
    ns = np.arange(-cutoff, cutoff + 1)
    vals = m_env * np.exp(-np.abs(ns) / m_env)
    vals = vals / np.linalg.norm(vals)
    return WavePacket(-cutoff, vals.reshape(-1, 1).astype(complex))


def perturbation_stability(W, V, psi: WavePacket, t: float, p: float,
                           m_env: int) -> float:
    """|moment(t; base potential) - moment(t; perturbed potential)|, both
    evolutions run by one `moment_table` call, on windows sized by the larger
    norm bound of the two operators."""
    check_envelope(psi, m_env)
    Js = [schroedinger_operator(W), schroedinger_operator(V)]
    mw, mv = moment_table(Js, [psi], p, [t])[0, :, 0]
    return float(abs(mw - mv))


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
    twice the threshold T^p / log T under the base potential W; packet_times
    holds each packet's own smallest passing time. radius is proved, not
    sampled: every potential V with ||V - W||_inf <= radius keeps every
    battery packet's moment M_V(time) >= T^p / log T, and strictly above it
    inside the ball (see `growth_certificate`).
    """

    time: float
    radius: float
    battery: tuple
    packet_times: dict
    packet_moments: dict


def growth_certificate(W, p: float, m_env: int,
                       time_budget: float = 4096.0) -> GrowthCertificate:
    """Search dyadic times for moment growth beating 2 T^p / log T, then
    prove the radius of the ball of potentials that keep T^p / log T.

    The proof is arithmetic on the moments M~ the time search computed on
    the window |n| <= R, R = `required_half_width` at the certified time T:
    radius = (min M~ - thr - 6 R^p CHEBYSHEV_TAIL (1 + 3 CHEBYSHEV_TAIL))
    / (2 R^p T). If ||V - W||_inf <= delta, Duhamel gives ||psi_V(T) -
    psi_W(T)|| <= T delta, so the moment restricted to |n| <= R moves by at
    most 2 R^p T delta; the computed state is within 3 CHEBYSHEV_TAIL of
    psi_W(T) (see `dynamics`), which the tail term covers; and M_V(T) is at
    least its restriction. So every V in the closed ball has M_V(T) >= thr
    up to roundoff, and M_V(T) > thr inside it.

    Raises NoCertificateFound when the time search exhausts its budget or
    the radius is not positive (the tail term grows like R^p and wins from
    p = 12 on for the zero potential), and before any evolution when R^p or
    T^p at the search's last time is not a finite float.
    """
    W = np.atleast_1d(np.asarray(W, dtype=float))
    jw = schroedinger_operator(W)
    battery = _battery(m_env)
    packets = [psi for _, psi in battery]
    support = max(psi.support_radius() for psi in packets)
    packet_times: dict = {}
    packet_moments: dict = {}

    T = 1.0
    while T < max(1, m_env):
        T *= 2.0
    times = []
    while T <= time_budget:
        times.append(T)
        T *= 2.0
    if times:
        R = required_half_width(jw, support, times[-1])
        if not (_finite_power(R, p) and _finite_power(times[-1], p)):
            raise NoCertificateFound(
                f"the moments overflow: R^p = {R}^{p:g} on the window of the last "
                f"search time T = {times[-1]:g} is not a finite float"
            )
    certified_T = None
    for T in times:
        all_pass = T > 1.0
        for (name, _), mom in zip(battery, moment_table([jw], packets, p, [T])[0, 0]):
            packet_moments.setdefault(name, {})[T] = float(mom)
            passed = T > 1.0 and mom > 2.0 * _threshold(T, p)
            if passed and name not in packet_times:
                packet_times[name] = T
            all_pass = all_pass and passed
        if all_pass:
            certified_T = T
            break
    if certified_T is None:
        raise NoCertificateFound(
            f"no dyadic time up to {time_budget} beat twice the threshold"
        )

    R = required_half_width(jw, support, certified_T)
    tail = 6.0 * R**p * CHEBYSHEV_TAIL * (1.0 + 3.0 * CHEBYSHEV_TAIL)
    margin = min(m[certified_T] for m in packet_moments.values()) - _threshold(certified_T, p)
    radius = (margin - tail) / (2.0 * R**p * certified_T)
    if not radius > 0.0:
        raise NoCertificateFound(
            f"the Chebyshev tail on the window |n| <= {R} leaves no proved radius "
            f"at T = {certified_T} (radius {radius:.3g})"
        )

    return GrowthCertificate(
        time=float(certified_T),
        radius=float(radius),
        battery=tuple(name for name, _ in battery),
        packet_times={k: float(v) for k, v in packet_times.items()},
        packet_moments={k: dict(v) for k, v in packet_moments.items()},
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


def generic_builder(stages: int, p: float, m_env: int) -> GenericConstruction:
    """Finite-stage realization of nested perturbation balls with certified
    moment growth.

    Stage 1 starts from the zero potential; stage k doubles the period, adds
    an alternating perturbation of size delta_{k-1}/4 and takes the proved
    radius of `growth_certificate`. Capping delta_k <= 0.499 delta_{k-1}
    puts the final potential V strictly inside every ball, ||V - V_k||_inf
    < delta_k / 2, so every stage's inequality holds for V by the proof.
    The verification table replays each with V as an independent check; a
    failed row is a defect and raises NoCertificateFound naming its stage.
    """
    if not 1 <= stages <= 5:
        raise SpecError(f"stages must be between 1 and 5 (desk scale), got {stages}")
    records = []
    potential = np.zeros(1)
    period = 1
    delta = math.inf
    for k in range(1, stages + 1):
        if k > 1:
            period *= 2
            potential = _tiled_sum(potential, _alternating_pattern(period, delta / 4.0))
        cert = growth_certificate(potential, p, m_env)
        delta = min(cert.radius, 0.499 * delta)
        records.append(StageRecord(
            stage=k, potential=potential.copy(), period=period,
            delta=float(delta), time=cert.time, moment_order=float(p),
            envelope_m=int(m_env),
        ))

    final_v = records[-1].potential
    moments = moment_table([schroedinger_operator(final_v)],
                           [psi for _, psi in _battery(m_env)], p,
                           [rec.time for rec in records])
    rows = []
    for rec, row in zip(records, moments[:, 0]):
        worst = float(row.min())
        thr = _threshold(rec.time, p)
        if not worst > thr:
            raise NoCertificateFound(
                f"stage {rec.stage}: the final potential's moment {worst:.6g} at "
                f"T = {rec.time} does not beat the threshold {thr:.6g}"
            )
        rows.append(VerificationRow(stage=rec.stage, time=rec.time, threshold=thr,
                                    worst_moment=worst, ok=True))
    return GenericConstruction(records=tuple(records), verification=tuple(rows),
                               final_potential=final_v)
