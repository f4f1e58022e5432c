"""Seeded job lists for the transportctl benchmark.

A job is one `transportctl` command with its JSON config. Every size in a
workload is fixed; the seed only changes values (potentials, XY parameters,
energies, pairs, sample seeds). Where a window size would follow from the
operator norm bound, one entry of each periodic sequence is pinned to the
sequence's maximum modulus, so the bound, and with it every window
dimension, is the same for all seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bloch-scan", "light-cone", "reuse")

# ROADMAP defect 1: the adaptive Simpson tolerance is scaled by the integrand
# at -K, 0, K, which all lie outside the spectrum here, so the rule runs out
# of depth and the command exits 3 after a few seconds.
DEFECT1_CONFIG = {"potential": [1.0, -1.0], "coupling": 1.0, "K": 3.0, "T": 50.0}
DEFECT1_LABEL = "ROADMAP defect 1: dt-criterion exits 3 (adaptive Simpson depth exhausted)"

# Pinned maxima of the generated sequences; the resulting norm bounds are
# 3.0 (period-2 scalar), 3.5 (period-5 scalar) and 7.5 (XY fermion operator).
SCALAR2_MAX = 1.0
SCALAR5_MAX = 1.5
XY_MU_MAX, XY_GAMMA_MAX, XY_NU_MAX = 1.0, 0.5, 0.75


@dataclass(frozen=True)
class Job:
    """One transportctl invocation.

    known_defect names a documented failure the job reproduces and
    defect_error the error it exits 3 with; such a job is labelled a known
    failure when it fails exactly so, and is checked like any other job once
    the defect is fixed.
    """

    name: str
    command: str
    config: dict
    known_defect: str | None = None
    defect_error: str | None = None


# ---------------------------------------------------------------------------
# Operators as transportctl block-spec JSON
# ---------------------------------------------------------------------------


def _encode(blocks):
    return [[[float(z.real), float(z.imag)] for z in np.asarray(blk).reshape(-1)]
            for blk in blocks]


def operator_json(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return {"m": int(a.shape[1]), "q": int(a.shape[0]), "a": _encode(a), "b": _encode(b)}


def scalar_operator(potential):
    """Discrete Schroedinger operator (hopping 1) with a periodic potential."""
    w = np.asarray(potential, dtype=float)
    return operator_json(np.ones((len(w), 1, 1)), w.reshape(-1, 1, 1))


def xy_blocks(mu, gamma, nu):
    """Blocks of the XY free-fermion operator (m = 2, q = lcm of the periods):
    b_k = 2 diag(nu_k, -nu_k), a_k = 2 [[-mu_k, -mu_k g_k], [mu_k g_k, mu_k]]."""
    q = math.lcm(len(mu), len(gamma), len(nu))
    a = np.empty((q, 2, 2))
    b = np.empty((q, 2, 2))
    for k in range(q):
        m_, g, n_ = mu[k % len(mu)], gamma[k % len(gamma)], nu[k % len(nu)]
        a[k] = 2.0 * np.array([[-m_, -m_ * g], [m_ * g, m_]])
        b[k] = 2.0 * np.diag([n_, -n_])
    return a, b


def xy_operator(xy):
    return operator_json(*xy_blocks(xy["mu"], xy["gamma"], xy["nu"]))


# ---------------------------------------------------------------------------
# Seeded values
# ---------------------------------------------------------------------------


def _pinned(rng, n, amp, floor=0.0):
    """n values with floor <= |x| <= amp and one entry at exactly +-amp."""
    vals = rng.uniform(floor, amp, n) * rng.choice([-1.0, 1.0], n)
    vals[rng.integers(n)] = amp * rng.choice([-1.0, 1.0])
    return [float(x) for x in vals]


def _xy_params(rng):
    """Periods 2, 3, 2 for mu, gamma, nu: the fermion operator has q = 6."""
    return {"mu": _pinned(rng, 2, XY_MU_MAX, floor=0.3),
            "gamma": _pinned(rng, 3, XY_GAMMA_MAX),
            "nu": _pinned(rng, 2, XY_NU_MAX)}


def _bloch_scan(rng):
    w5 = _pinned(rng, 5, SCALAR5_MAX)
    xy = _xy_params(rng)
    energies = [[float(e), 0.0] for e in np.sort(rng.uniform(-3.5, 3.5, 21))]
    points = [[float(x), float(y)] for x, y in
              zip(rng.uniform(-2.5, 2.5, 4), rng.uniform(0.2, 1.0, 4))]
    # period-2 potential [a, -a]: the spectrum is +-[|a|, sqrt(a^2 + 4)], and
    # K = 1.5 lies inside it, so the integrand is of order one at +-K
    amp = float(rng.uniform(0.3, 0.8))
    return [
        Job("bands-scalar", "bands", {"operator": scalar_operator(w5), "grid_size": 2048}),
        Job("bands-xy", "bands", {"operator": xy_operator(xy), "grid_size": 2048}),
        Job("qnorm-scalar", "qnorm", {"operator": scalar_operator(w5), "grid_size": 2048}),
        Job("qnorm-xy", "qnorm", {"operator": xy_operator(xy), "grid_size": 2048}),
        Job("xy-velocity", "xy-velocity", dict(xy, grid_size=2048)),
        Job("thouless", "thouless", {"potential": w5, "points": points, "grid_size": 2048}),
        Job("lyapunov-1e3", "lyapunov", {"potential": w5, "energies": energies, "n": 1000}),
        Job("lyapunov-1e4", "lyapunov", {"potential": w5, "energies": energies, "n": 10000}),
        Job("dt-criterion", "dt-criterion",
            {"potential": [amp, -amp], "coupling": 1.0, "K": 1.5, "T": 50.0}),
        Job("dt-criterion-defect1", "dt-criterion", dict(DEFECT1_CONFIG),
            known_defect=DEFECT1_LABEL, defect_error="QuadratureNotConverged"),
    ]


def _light_cone(rng):
    # the two values differ by at least 0.5, which keeps the gap at theta = pi
    # open: below a difference of about 0.15, ballistic-check's velocity
    # quadrature cannot reach 1e-8 on its default grid of 1024 and exits 3
    pin = SCALAR2_MAX * rng.choice([-1.0, 1.0])
    w2 = [float(pin), float(pin - np.sign(pin) * rng.uniform(0.5, 2.0 * SCALAR2_MAX))]
    xy = _xy_params(rng)
    # the perturbation moves the entry that is not pinned, so both
    # potentials keep max |w| = 1 and share one window
    base = _pinned(rng, 2, SCALAR2_MAX)
    free = 1 - int(np.argmax(np.abs(base)))
    base[free] *= 0.9
    perturbed = list(base)
    perturbed[free] += float(rng.uniform(-0.1, 0.1))
    return [
        Job("exponents", "exponents",
            {"operator": scalar_operator(w2), "state": {"delta_scalar": 0},
             "times": [25.0, 50.0, 100.0, 200.0, 400.0], "p": 2.0}),
        Job("evolve", "evolve",
            {"operator": xy_operator(xy),
             "state": {"delta_block": 0, "component": int(rng.integers(2))},
             "times": [40.0]}),
        Job("stability", "stability",
            {"base_potential": base, "perturbed_potential": perturbed,
             "state": {"delta_scalar": 0}, "t": 200.0, "p": 2.0, "m_env": 1}),
        Job("ballistic-check", "ballistic-check",
            {"operator": scalar_operator(w2), "state": {"delta_scalar": 0},
             "times": [50.0, 100.0, 150.0, 200.0]}),
        Job("generic", "generic",
            {"stages": 2, "p": 2.0, "m_env": 1, "seed": int(rng.integers(1, 2**31))}),
    ]


def _reuse(rng):
    w5 = _pinned(rng, 5, SCALAR5_MAX)
    xy = _xy_params(rng)
    starts = rng.integers(-60, 61, 20)
    dists = rng.choice(np.arange(2, 121), 20, replace=False)
    sites = rng.choice(np.arange(9), 4, replace=False)
    xy_pairs = [sorted(int(s) for s in sites[:2]), sorted(int(s) for s in sites[2:])]
    return [
        Job("localization", "localization",
            {"operator": scalar_operator(w5), "half_width": 300,
             "pairs": [[int(l), int(l + d)] for l, d in zip(starts, dists)],
             "t_max": 60.0}),
        Job("derivative-check", "derivative-check",
            {"operator": xy_operator(xy),
             "state": {"delta_block": 0, "component": int(rng.integers(2))},
             "T": 10.0, "quad_steps": 1024}),
        # from T = 20 on the ballistic shell lies past the 21 sources; at
        # T = 10 it overlaps them and the probe measures neighbours
        Job("corollary-probe", "corollary-probe",
            {"operator": scalar_operator(w5), "epsilon": 0.2, "K": 10,
             "times": [20.0, 40.0, 80.0]}),
        Job("xy-verify", "xy-verify",
            dict(xy, window=[0, 8], pairs=xy_pairs, times=[0.5, 1.0, 2.0])),
    ]


_JOB_LISTS = {"bloch-scan": _bloch_scan, "light-cone": _light_cone, "reuse": _reuse}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same (workload, seed) gives the same jobs."""
    index = WORKLOADS.index(workload)
    return _JOB_LISTS[workload](np.random.default_rng([int(seed), index]))
