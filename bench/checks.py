"""Output checks for every benchmark job, against references computed here.

Each reference is an independent numpy computation of the quantity the job
reports: batched Bloch fibers, monodromy matrices, a Chebyshev propagator on
the block-tridiagonal matvec, and dense eigendecompositions of windows built
from the config. None of them imports blochdyn. A check raises CheckFailed
with the first disagreement it finds; its tolerance is stated where it is
applied.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.special import jv

from workloads import xy_blocks


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


class KnownDefect(Exception):
    """A job's output shows a documented defect of the program, within the
    band the documentation gives for it."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(value, ref, abs_tol, rel_tol, what):
    value = np.asarray(value, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    err = np.abs(value - ref)
    lim = abs_tol + rel_tol * np.abs(ref)
    if value.shape != ref.shape or np.any(err > lim):
        worst = float(np.max(err - lim)) if value.shape == ref.shape else float("nan")
        raise CheckFailed(f"{what}: exceeds tolerance (abs {abs_tol:g}, rel {rel_tol:g}) "
                          f"by {worst:.3e}")


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def read_csv(path):
    """(config, column names, rows of floats) of a transportctl CSV artifact."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines[0].startswith("# transportctl ") and lines[1].startswith("# config: "),
             f"{os.path.basename(path)}: missing '#' header lines")
    config = json.loads(lines[1][len("# config: "):])
    return config, lines[2].split(","), [[_value(x) for x in ln.split(",")] for ln in lines[3:]]


def _value(field):
    try:
        return float(field)
    except ValueError:
        return field


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Operators and fibers
# ---------------------------------------------------------------------------


def blocks(op):
    """(a, b) arrays of shape (q, m, m) from block-spec JSON."""
    m, q = op["m"], op["q"]

    def decode(entries):
        return np.array([[complex(re, im) for re, im in blk] for blk in entries]).reshape(q, m, m)

    return decode(op["a"]), decode(op["b"])


def norm_bound(a, b):
    return float(max(np.linalg.norm(x, 2) for x in b) + 2.0 * max(np.linalg.norm(x, 2) for x in a))


def fibers(a, b, thetas):
    """Batched fiber matrices (J_theta, A_theta), shape (G, mq, mq)."""
    q, m = a.shape[0], a.shape[1]
    G = len(thetas)
    jf = np.zeros((G, m * q, m * q), dtype=complex)
    af = np.zeros_like(jf)
    for k in range(q):
        sl = slice(k * m, (k + 1) * m)
        jf[:, sl, sl] += b[k]
        sr = slice(((k + 1) % q) * m, ((k + 1) % q + 1) * m)
        ph = np.exp(1j * thetas) if k == q - 1 else np.ones(G)
        fwd = ph[:, None, None] * a[k]
        bwd = np.conj(ph)[:, None, None] * a[k].conj().T
        jf[:, sl, sr] += fwd
        jf[:, sr, sl] += bwd
        af[:, sl, sr] += 1j * fwd
        af[:, sr, sl] += -1j * bwd
    return jf, af


def band_reference(a, b, G):
    """Eigenvalues (ascending) and Hellmann-Feynman velocities <v, A v> on the
    uniform grid of G quasi-momenta."""
    thetas = 2.0 * np.pi * np.arange(G) / G
    jf, af = fibers(a, b, thetas)
    w, v = np.linalg.eigh(jf)
    vel = np.real(np.einsum("gji,gjk,gki->gi", v.conj(), af, v))
    return thetas, w, vel


def monodromy(energy, w):
    """One-period transfer product T_{p-1} ... T_0 at a complex energy."""
    mat = np.eye(2, dtype=complex)
    for wj in w:
        mat = np.array([[energy - wj, -1.0], [1.0, 0.0]]) @ mat
    return mat


def spectral_radius_exponent(energy, w):
    """(1/p) log rho(M(E)), clipped at 0 like the Lyapunov exponent."""
    rho = float(np.max(np.abs(np.linalg.eigvals(monodromy(energy, w)))))
    return max(math.log(rho), 0.0) / len(w)


# ---------------------------------------------------------------------------
# Chebyshev propagator on a finite window (reference for every evolution)
# ---------------------------------------------------------------------------


class Window:
    """Open-boundary restriction of the operator to block sites [lo, hi]."""

    def __init__(self, a, b, lo, hi):
        q = a.shape[0]
        idx = np.arange(lo, hi + 1) % q
        self.lo, self.hi, self.m = lo, hi, a.shape[1]
        self.B = b[idx]
        self.A = a[idx[:-1]]
        self.AH = np.conj(np.transpose(self.A, (0, 2, 1)))
        self.bound = norm_bound(a, b)

    @property
    def sites(self):
        return np.arange(self.lo, self.hi + 1)

    def matvec(self, v):
        out = np.einsum("nij,nj->ni", self.B, v)
        out[:-1] += np.einsum("nij,nj->ni", self.A, v[1:])
        out[1:] += np.einsum("nij,nj->ni", self.AH, v[:-1])
        return out

    def dense(self):
        n, m = self.hi - self.lo + 1, self.m
        mat = np.zeros((n * m, n * m), dtype=complex)
        for i in range(n):
            sl = slice(i * m, (i + 1) * m)
            mat[sl, sl] = self.B[i]
            if i < n - 1:
                sr = slice((i + 1) * m, (i + 2) * m)
                mat[sl, sr] = self.A[i]
                mat[sr, sl] = self.AH[i]
        return mat

    def delta(self, site, comp=0):
        v = np.zeros((self.hi - self.lo + 1, self.m), dtype=complex)
        v[site - self.lo, comp] = 1.0
        return v

    def propagate(self, v, t):
        """exp(-i t H) v = sum_k (2 - delta_k0) (-i)^k J_k(s t) T_k(H / s) v,
        s = the norm bound; terms beyond s|t| + 60 are below 1e-30."""
        s = self.bound
        K = int(s * abs(t)) + 60
        coef = (-1j) ** np.arange(K + 1) * jv(np.arange(K + 1), s * t)
        coef[1:] *= 2.0
        prev, cur = v, self.matvec(v) / s
        acc = coef[0] * prev + coef[1] * cur
        for k in range(2, K + 1):
            prev, cur = cur, 2.0 * self.matvec(cur) / s - prev
            acc = acc + coef[k] * cur
        return acc


def light_cone_window(a, b, t_max, radius=0):
    """A window reaching s t_max + radius + 60 sites past the origin."""
    half = int(math.ceil(norm_bound(a, b) * t_max)) + int(radius) + 60
    return Window(a, b, -half, half)


def moment(win, v, p):
    return float(np.sum(np.abs(win.sites.astype(float)) ** p * np.sum(np.abs(v) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# Checks, one per job kind
# ---------------------------------------------------------------------------


def _check_bands(job, out, payload, peers):
    cfg = job.config
    a, b = blocks(cfg["operator"])
    G = cfg["grid_size"]
    _, _, rows = read_csv(os.path.join(out, "bands.csv"))
    nb = a.shape[0] * a.shape[1]
    _require(len(rows) == G * nb, f"bands.csv: {len(rows)} rows, expected {G * nb}")
    thetas, w_ref, v_ref = band_reference(a, b, G)
    data = np.array([r[:5] for r in rows], dtype=float).reshape(G, nb, 5)
    _close(data[:, 0, 0], thetas, 1e-15, 0.0, "bands.csv theta grid")
    order = np.argsort(data[:, :, 2], axis=1)
    lam = np.take_along_axis(data[:, :, 2], order, axis=1)
    vel = np.take_along_axis(data[:, :, 3], order, axis=1)
    _close(lam, w_ref, 1e-9, 0.0, "band energies vs batched fiber eigh")
    # Hellmann-Feynman velocities are basis-independent only where the level
    # is isolated; compare away from the flagged points and tight gaps
    gaps = np.diff(w_ref, axis=1)
    isolated = np.ones_like(w_ref, dtype=bool)
    isolated[:, :-1] &= gaps > 1e-4
    isolated[:, 1:] &= gaps > 1e-4
    isolated &= data[:, :1, 4] == 0
    _close(vel[isolated], v_ref[isolated], 1e-8, 0.0, "band velocities vs Hellmann-Feynman")
    qn = _peer_payload(peers, job.name.replace("bands", "qnorm"))["q_norm"]
    vmax = float(np.max(np.abs(data[:, :, 3])))
    _require(abs(vmax - qn) <= 1e-3,
             f"max |velocity| {vmax} differs from qnorm {qn} by more than 1e-3")


def _peer_payload(peers, name):
    _require(name in peers and peers[name] is not None, f"reference job '{name}' has no result")
    return peers[name]


def _check_qnorm(job, out, payload, peers):
    a, b = blocks(job.config["operator"])
    _, _, vel = band_reference(a, b, job.config["grid_size"])
    gmax = float(np.max(np.abs(vel)))
    qn = payload["q_norm"]
    _require(read_json(os.path.join(out, "qnorm.json"))["q_norm"] == qn,
             "qnorm.json disagrees with stdout")
    # the refined maximum can only exceed the grid maximum, and by little
    _require(gmax - 1e-9 <= qn <= gmax + 1e-3,
             f"q_norm {qn} outside [grid max - 1e-9, grid max + 1e-3], grid max {gmax}")


def _check_xy_velocity(job, out, payload, peers):
    qn = _peer_payload(peers, "qnorm-xy")["q_norm"]
    _require(abs(payload["v0"] - qn) <= 1e-9,
             f"v0 {payload['v0']} differs from qnorm of the fermion operator {qn} by more than 1e-9")


def _check_thouless(job, out, payload, peers):
    cfg = job.config
    w = np.array(cfg["potential"], dtype=float)
    p, G = len(w), cfg["grid_size"]
    _, _, rows = read_csv(os.path.join(out, "thouless.csv"))
    _require(len(rows) == len(cfg["points"]), "thouless.csv: wrong row count")
    thetas = 2.0 * np.pi * np.arange(G) / G
    jf, _ = fibers(np.ones((p, 1, 1)), w.reshape(p, 1, 1), thetas)
    lam = np.linalg.eigvalsh(jf)
    for (zr, zi), (_, _, lhs, rhs, gap) in zip(cfg["points"], rows):
        z = complex(zr, zi)
        _close(lhs, spectral_radius_exponent(z, w), 1e-9, 0.0, f"thouless lhs at {z}")
        _close(rhs, np.sum(np.log(np.abs(z - lam))) / (G * p), 1e-9, 0.0,
               f"thouless density-of-states side at {z}")
        _require(gap <= 1e-6, f"Thouless gap {gap} at {z} exceeds 1e-6")


def _check_lyapunov(job, out, payload, peers):
    """With n = k p + r, Phi(n) = Phi_r M^k, so rho^k / ||Phi_r^-1|| <=
    ||Phi(n)|| <= ||Phi_r|| cond(V) rho^k (V the eigenvectors of M). Each
    finite exponent must sit in that bracket around (1/p) log rho(M(E))."""
    cfg = job.config
    w = np.array(cfg["potential"], dtype=float)
    p = len(w)
    _, _, rows = read_csv(os.path.join(out, "lyapunov.csv"))
    _require(len(rows) == len(cfg["energies"]), "lyapunov.csv: wrong row count")
    for er, ei, n, L in rows:
        E, n = complex(er, ei), int(n)
        k, r = divmod(n, p)
        evals, vecs = np.linalg.eig(monodromy(E, w))
        log_rho = math.log(float(np.max(np.abs(evals))))
        phi_r = monodromy(E, w[:r])
        lo = (k * log_rho - math.log(np.linalg.norm(np.linalg.inv(phi_r), 2))) / n
        hi = (k * log_rho + math.log(np.linalg.norm(phi_r, 2))
              + math.log(np.linalg.cond(vecs))) / n
        _require(lo - 1e-9 <= L <= hi + 1e-9,
                 f"L({E}, n={n}) = {L} outside the monodromy bracket [{lo}, {hi}]")


DT_ACCURACY_DEFECT = "dt-criterion quadrature misses its rel_tol 1e-4"


def dt_reference(w, coupling, K, T, alpha=1.0, points=32769):
    """Composite Simpson on a uniform grid (spacing far below 1/T) of
    exp(-2 max_n log ||Phi(n, E + i/T)||), all energies at once."""
    w = np.asarray(w, dtype=float) * coupling
    n_max = max(1, int(math.floor(T ** alpha)))
    E = np.linspace(-K, K, points) + 1j / T
    m11, m12, m21, m22 = (np.ones_like(E), np.zeros_like(E), np.zeros_like(E), np.ones_like(E))
    best = np.full(points, -np.inf)
    for j in range(n_max):
        d = E - w[j % len(w)]
        m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
        fro2 = abs(m11) ** 2 + abs(m12) ** 2 + abs(m21) ** 2 + abs(m22) ** 2
        det2 = abs(m11 * m22 - m12 * m21) ** 2
        smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det2, 0.0)))
        best = np.maximum(best, 0.5 * np.log(smax2))
    f = np.exp(-2.0 * best)
    h = 2.0 * K / (points - 1)
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


def _check_dt_criterion(job, out, payload, peers):
    """Held to dt_criterion's own default rel_tol of 1e-4. Its adaptive
    Simpson misses that on ordinary integrands (relative errors of 6e-5 to
    2.6e-2 over 40 generated inputs): an error up to 10% is reported as that
    known defect, a larger one fails."""
    cfg = job.config
    ref = dt_reference(cfg["potential"], cfg["coupling"], cfg["K"], cfg["T"],
                       cfg.get("alpha", 1.0))
    err = abs(payload["integral"] - ref) / ref
    if err <= 1e-4:
        return
    _require(err <= 0.1, f"dt-criterion integral off by {err:.2e} relative, beyond 10%")
    raise KnownDefect(f"{DT_ACCURACY_DEFECT}: relative error {err:.2e}")


def _check_exponents(job, out, payload, peers):
    cfg = job.config
    a, b = blocks(cfg["operator"])
    times = sorted(cfg["times"])
    win = light_cone_window(a, b, times[-1])
    v = win.delta(cfg["state"]["delta_scalar"])
    _, _, rows = read_csv(os.path.join(out, "exponents.csv"))
    _require([r[0] for r in rows] == times, "exponents.csv: a sample time was rejected")
    prev = 0.0
    for t, row in zip(times, rows):
        v = win.propagate(v, t - prev)
        prev = t
        _close(row[1], moment(win, v, cfg["p"]), 0.0, 1e-8, f"moment at t={t}")
    bm, bp = payload["beta_minus_hat"], payload["beta_plus_hat"]
    _require(0.9 <= bm <= bp <= 1.1, f"exponents ({bm}, {bp}) not ballistic within 0.1")


def _check_evolve(job, out, payload, peers):
    cfg = job.config
    a, b = blocks(cfg["operator"])
    state = cfg["state"]
    _, _, rows = read_csv(os.path.join(out, "evolve.csv"))
    win = light_cone_window(a, b, max(cfg["times"]))
    for t in cfg["times"]:
        ref = win.propagate(win.delta(state["delta_block"], state["component"]), t)
        sel = [r for r in rows if r[0] == t]
        z = np.array([complex(r[3], r[4]) for r in sel])
        norm = float(np.sum(np.abs(z) ** 2))
        _require(abs(norm - 1.0) <= 1e-9, f"evolve at t={t}: norm {norm} differs from 1 by > 1e-9")
        zref = ref[[int(r[1]) - win.lo for r in sel], [int(r[2]) for r in sel]]
        _close(z, zref, 1e-9, 0.0, f"evolve amplitudes at t={t} vs Chebyshev")


def _check_stability(job, out, payload, peers):
    cfg = job.config
    t, p = cfg["t"], cfg["p"]
    moments = []
    for key in ("base_potential", "perturbed_potential"):
        w = np.array(cfg[key], dtype=float)
        a, b = np.ones((len(w), 1, 1)), w.reshape(-1, 1, 1)
        win = light_cone_window(a, b, t)
        moments.append(moment(win, win.propagate(win.delta(cfg["state"]["delta_scalar"]), t), p))
    _close(payload["difference"], abs(moments[0] - moments[1]), 1e-6, 1e-8,
           "moment difference vs Chebyshev")


def q_reference(a, b, site, G):
    """Q delta_site of a scalar (m = 1) operator on the sites from -(G//2) q
    on, by fiberwise quadrature with the Hellmann-Feynman velocity fiber of
    nondegenerate bands."""
    q, m = a.shape[0], a.shape[1]
    thetas = 2.0 * np.pi * np.arange(G) / G
    jf, af = fibers(a, b, thetas)
    w, v = np.linalg.eigh(jf)
    _require(np.min(np.diff(w, axis=1)) > 1e-6, "Q reference: near-degenerate fiber")
    vel = np.real(np.einsum("gji,gjk,gki->gi", v.conj(), af, v))
    vfib = np.einsum("gij,gj,gkj->gik", v, vel, v.conj())
    hat = np.zeros((G, q * m), dtype=complex)
    l, k = divmod(site, q)
    hat[:, k * m] = np.exp(-1j * l * thetas)
    y = np.einsum("gij,gj->gi", vfib, hat)
    ls = np.arange(-(G // 2), G - G // 2)
    coeff = np.exp(1j * np.outer(ls, thetas)) @ y / G
    return int(ls[0]) * q, coeff.reshape(len(ls) * q, m)


def _check_ballistic(job, out, payload, peers):
    cfg = job.config
    a, b = blocks(cfg["operator"])
    site = cfg["state"]["delta_scalar"]
    times = sorted(cfg["times"])
    win = light_cone_window(a, b, times[-1])
    base, qcoef = q_reference(a, b, site, 4096)
    qvec = qcoef[win.lo - base: win.hi - base + 1]
    x = win.sites.astype(float)[:, None]
    _, _, rows = read_csv(os.path.join(out, "ballistic.csv"))
    _require([r[0] for r in rows] == times, "ballistic.csv: wrong sample times")
    psi = win.delta(site)
    for t, (_, err) in zip(times, rows):
        pulled = win.propagate(x * win.propagate(psi, t), -t)
        _close(err, np.linalg.norm(pulled / t - qvec), 1e-7, 0.0, f"ballistic error at t={t}")


def _envelope(m_env):
    cutoff = int(math.ceil(m_env * 40))
    vals = m_env * np.exp(-np.abs(np.arange(-cutoff, cutoff + 1)) / m_env)
    return cutoff, vals / np.linalg.norm(vals)


def _check_generic(job, out, payload, peers):
    cfg = job.config
    _require(payload["all_ok"] is True, "generic: all_ok is false")
    stages = read_json(os.path.join(out, "generic_stages.json"))["stages"]
    _require(len(stages) == cfg["stages"], "generic: wrong stage count")
    deltas = [s["delta"] for s in stages]
    _require(all(d2 < d1 / 2.0 for d1, d2 in zip(deltas, deltas[1:])),
             f"generic: radii {deltas} do not halve")
    w = np.array(stages[-1]["potential"], dtype=float)
    a, b = np.ones((len(w), 1, 1)), w.reshape(-1, 1, 1)
    cutoff, env = _envelope(cfg["m_env"])
    _, _, rows = read_csv(os.path.join(out, "generic_verification.csv"))
    _require(len(rows) == cfg["stages"], "generic_verification.csv: wrong row count")
    for stage, T, thr, worst, ok in rows:
        win = light_cone_window(a, b, T, radius=cutoff)
        packets = [win.delta(0), np.zeros_like(win.delta(0))]
        packets[1][-cutoff - win.lo: cutoff - win.lo + 1, 0] = env
        ref = min(moment(win, win.propagate(v, T), cfg["p"]) for v in packets)
        _close(worst, ref, 0.0, 1e-8, f"generic stage {int(stage)} worst moment")
        _close(thr, T ** cfg["p"] / math.log(T), 0.0, 1e-12, f"generic stage {int(stage)} threshold")
        _require(ok == 1 and worst > thr, f"generic stage {int(stage)} fails its threshold")


def _check_localization(job, out, payload, peers):
    cfg = job.config
    a, b = blocks(cfg["operator"])
    H = cfg["half_width"]
    win = Window(a, b, -H, H)
    w, u = np.linalg.eigh(win.dense())
    step = 0.1 * 2.0 * np.pi / win.bound
    t_grid = np.arange(0.0, cfg["t_max"] + 1e-12, step)
    phases = np.exp(-1j * np.outer(t_grid, w))
    _, _, rows = read_csv(os.path.join(out, "localization.csv"))
    _require(len(rows) == len(cfg["pairs"]), "localization.csv: wrong row count")
    lo = -H * win.m
    for (l, r), row in zip(cfg["pairs"], rows):
        sup = float(np.max(np.abs(phases @ (u[l - lo] * u[r - lo].conj()))))
        _close(row[3], sup, 1e-12, 1e-8, f"sup amplitude of pair ({l}, {r})")
    verdict = "localized" if payload["slope"] < -0.05 and payload["r_squared"] > 0.9 else "not_localized"
    _require(payload["verdict"] == verdict, "localization verdict disagrees with its own fit")


def _check_derivative(job, out, payload, peers):
    _require(payload["residual"] <= 1e-6,
             f"derivative identity residual {payload['residual']} exceeds 1e-6")


def _check_corollary(job, out, payload, peers):
    cfg = job.config
    a, b = blocks(cfg["operator"])
    _require(payload["all_ok"] is True, "corollary-probe: all_ok is false")
    _, _, rows = read_csv(os.path.join(out, "corollary.csv"))
    _require(len(rows) == len(cfg["times"]), "corollary.csv: wrong row count")
    ts = np.array([r[0] for r in rows])
    masses = np.array([r[3] for r in rows])
    _close(payload["c_tilde"], np.sum(masses / ts) / np.sum(1.0 / ts ** 2), 0.0, 1e-12,
           "c_tilde vs least squares on the reported masses")
    m = a.shape[1]
    for T, n_star, k_star, mass, ok in rows:
        win = light_cone_window(a, b, T, radius=cfg["K"] // m + 1)
        v = win.propagate(win.delta(int(k_star) // m, int(k_star) % m), T)
        ref = abs(v[int(n_star) // m - win.lo, int(n_star) % m]) ** 2
        _close(mass, ref, 1e-12, 1e-8, f"propagator mass at T={T}")


_LOWER_ROWS = {1: (False, False), 2: (False, True), 3: (True, True), 4: (True, False)}


def _check_xy_verify(job, out, payload, peers):
    cfg = job.config
    lo, hi = cfg["window"]
    win = Window(*xy_blocks(cfg["mu"], cfg["gamma"], cfg["nu"]), lo, hi)
    w, u = np.linalg.eigh(win.dense())
    _require(payload["all_ok"] is True, "xy-verify: all_ok is false")
    resolved, _, rows = read_csv(os.path.join(out, "xy_verify.csv"))
    expected = len(cfg["pairs"]) * len(cfg["times"]) * (2 + len(resolved["cases"]))
    _require(payload["checks"] == expected == len(rows),
             f"xy-verify: {payload['checks']} checks, expected {expected}")

    def row(site, dagger):  # annihilator rows are even, creator rows odd
        return 2 * (int(site) - lo) + int(dagger)

    for name, l, r, t, lhs, rhs, ok in rows:
        _require(ok == 1, f"xy-verify row {name} ({l}, {r}, t={t}) not ok")
        mt = u @ (np.exp(-1j * t * w)[:, None] * u.conj().T)
        if name.startswith("lower_case"):
            l_dag, r_dag = _LOWER_ROWS[int(name[-1])]
            _close(rhs, abs(mt[row(l, l_dag), row(r, r_dag)]), 1e-10, 1e-9,
                   f"{name} propagator entry")
        elif name == "upper":
            tail = float(np.sum(np.abs(mt[: row(l, False) + 1, row(r, False):])))
            _close(rhs, 8.0 * tail, 1e-10, 1e-9, "upper-bound tail sum")
        else:
            _require(lhs < 1e-8, f"free-fermion residual {lhs} at t={t} exceeds 1e-8")


CHECKS = {
    "bands": _check_bands,
    "qnorm": _check_qnorm,
    "xy-velocity": _check_xy_velocity,
    "thouless": _check_thouless,
    "lyapunov": _check_lyapunov,
    "dt-criterion": _check_dt_criterion,
    "exponents": _check_exponents,
    "evolve": _check_evolve,
    "stability": _check_stability,
    "ballistic-check": _check_ballistic,
    "generic": _check_generic,
    "localization": _check_localization,
    "derivative-check": _check_derivative,
    "corollary-probe": _check_corollary,
    "xy-verify": _check_xy_verify,
}
