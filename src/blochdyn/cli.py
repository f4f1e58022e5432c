"""transportctl: every experiment as a subcommand with a JSON config.

Usage:
    transportctl <command> --config file.json [--out dir]

Configs are strict: unknown keys are rejected and all defaults are echoed
back into the outputs. CSV artifacts start with '#' header lines carrying
the resolved config; JSON artifacts embed it under a "config" key. Exit
codes: 0 success, 2 config/validation error (including a window too large
for the dense or block storage limits), 3 numerical failure (or any other
error at run time). Errors are reported as a single JSON object on
stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dynamics, floquet, limitperiodic, xychain
from .blockjacobi import BlockSpec, WavePacket, build_operator
from .errors import ConfigInvalid, SizeLimitExceeded

REQUIRED = object()


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _resolve(raw, schema, command):
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = sorted(set(raw) - set(schema) - {"command"})
    if unknown:
        raise ConfigInvalid(f"unknown config fields for '{command}': {unknown}")
    if "command" in raw and raw["command"] != command:
        raise ConfigInvalid(
            f"config names command '{raw['command']}' but '{command}' was invoked"
        )
    resolved = {"command": command}
    for key, default in schema.items():
        if key in raw:
            resolved[key] = raw[key]
        elif default is REQUIRED:
            raise ConfigInvalid(f"missing required config field '{key}'")
        else:
            resolved[key] = default
    return resolved


def _operator(resolved, key="operator"):
    data = resolved[key]
    if not isinstance(data, dict):
        raise ConfigInvalid(f"'{key}' must be a block-spec JSON object")
    return build_operator(BlockSpec.from_json_dict(data))


def _integer(data, key, default=None):
    value = data.get(key, default)
    if not _is_integer(value):
        raise ConfigInvalid(f"state '{key}' must be an integer, got {value!r}")
    return value


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_positive_integer(x):
    return _is_integer(x) and x >= 1


def _is_positive_number(x):
    return _is_number(x) and math.isfinite(x) and x > 0


def _number_pair(z, what):
    """complex(re, im) from a [re, im] pair of JSON numbers."""
    if isinstance(z, list) and len(z) == 2 and all(_is_number(x) for x in z):
        return complex(z[0], z[1])
    raise ConfigInvalid(f"{what} must be [re, im] pairs of numbers, got {z!r}")


def _packet(data, m):
    if not isinstance(data, dict):
        raise ConfigInvalid("'state' must be a JSON object")
    if "delta_scalar" in data:
        return WavePacket.delta_scalar(_integer(data, "delta_scalar"), m)
    if "delta_block" in data:
        component = _integer(data, "component", 0)
        if not 0 <= component < m:
            raise ConfigInvalid(f"state component must lie in [0, {m - 1}], got {component}")
        return WavePacket.delta_block(_integer(data, "delta_block"), component, m)
    if "base" in data and "coeffs" in data:
        coeffs = data["coeffs"]
        if not (isinstance(coeffs, list) and coeffs
                and all(isinstance(block, list) and len(block) == m for block in coeffs)):
            raise ConfigInvalid(f"state coeffs must be a nonempty list of blocks of {m} "
                                "[re, im] pairs")
        arr = np.array([[_number_pair(z, "state coeffs") for z in block] for block in coeffs],
                       dtype=complex)
        return WavePacket(_integer(data, "base"), arr)
    raise ConfigInvalid(
        "state needs 'delta_scalar', 'delta_block', or 'base' + 'coeffs'"
    )


def _xy_spec(resolved):
    return xychain.XYChainSpec(mu=resolved["mu"], gamma=resolved["gamma"],
                               nu=resolved["nu"])


def _cells(values):
    """One CSV column as strings: floats by repr, ints by str, bools as 1/0,
    strings as they are."""
    arr = np.asarray(values)
    values = arr.tolist()
    if arr.dtype.kind == "b":
        return ["1" if x else "0" for x in values]
    return list(map(repr if arr.dtype.kind == "f" else str, values))


def _write_csv(path, resolved, columns):
    """Write the '#' config lines, the header and the rows of columns, a dict
    of equally long value sequences keyed by header name."""
    lines = [
        f"# transportctl {resolved['command']}",
        "# config: " + json.dumps(resolved, sort_keys=True),
        ",".join(columns),
    ]
    lines.extend(map(",".join, zip(*map(_cells, columns.values()))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, resolved, payload):
    body = dict(payload)
    body["config"] = resolved
    with open(path, "w") as fh:
        json.dump(body, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

SCHEMAS = {
    "bands": {"operator": REQUIRED, "grid_size": 512, "gap_tol": 1e-8},
    "qnorm": {"operator": REQUIRED, "grid_size": 512},
    "evolve": {"operator": REQUIRED, "state": REQUIRED, "times": REQUIRED,
               "half_width": None, "threshold": 1e-12},
    "exponents": {"operator": REQUIRED, "state": REQUIRED, "times": REQUIRED,
                  "p": 2.0, "half_width": None},
    "ballistic-check": {"operator": REQUIRED, "state": REQUIRED, "times": REQUIRED,
                        "grid_size": 1024, "half_width": None},
    "derivative-check": {"operator": REQUIRED, "state": REQUIRED, "T": 1.0,
                         "quad_steps": 256, "half_width": None},
    "corollary-probe": {"operator": REQUIRED, "epsilon": REQUIRED, "K": REQUIRED,
                        "times": REQUIRED, "grid_size": 512},
    "localization": {"operator": REQUIRED, "half_width": REQUIRED, "pairs": REQUIRED,
                     "t_max": 20.0, "t_step": None},
    "xy-velocity": {"mu": REQUIRED, "gamma": REQUIRED, "nu": REQUIRED,
                    "grid_size": 512},
    "xy-verify": {"mu": REQUIRED, "gamma": REQUIRED, "nu": REQUIRED,
                  "window": REQUIRED, "pairs": REQUIRED, "times": REQUIRED,
                  "checks": ["free-fermion", "lower", "upper"],
                  "cases": [1, 2, 3, 4]},
    "lyapunov": {"potential": REQUIRED, "energies": REQUIRED, "n": 1000},
    "thouless": {"potential": REQUIRED, "points": REQUIRED, "grid_size": 2048},
    "dt-criterion": {"potential": REQUIRED, "coupling": REQUIRED, "K": REQUIRED,
                     "T": REQUIRED, "alpha": 1.0, "p_period": None},
    "stability": {"base_potential": REQUIRED, "perturbed_potential": REQUIRED,
                  "state": REQUIRED, "t": REQUIRED, "p": 2.0, "m_env": 1},
    "generic": {"stages": REQUIRED, "p": 2.0, "m_env": 1,
                "seed": limitperiodic.DEFAULT_SEED},
}


def cmd_bands(resolved, outdir):
    J = _operator(resolved)
    G = int(resolved["grid_size"])
    bs = floquet.band_structure(J, G, gap_tol=float(resolved["gap_tol"]))
    n = bs.bands.shape[1]
    _write_csv(os.path.join(outdir, "bands.csv"), resolved, {
        "theta": np.repeat(bs.thetas, n),
        "band_index": np.tile(np.arange(n), G),
        "lambda": bs.bands.ravel(),
        "velocity": bs.velocities.ravel(),
        "degenerate_flag": np.repeat(bs.degenerate, n),
    })
    return None


def cmd_qnorm(resolved, outdir):
    J = _operator(resolved)
    G = int(resolved["grid_size"])
    vm = floquet.velocity_maximum(J, grid_size=G)
    payload = {"q_norm": vm.value, "argmax_theta": vm.theta, "argmax_band": vm.band}
    _write_json(os.path.join(outdir, "qnorm.json"), resolved, payload)
    return payload


def cmd_evolve(resolved, outdir):
    J = _operator(resolved)
    psi = _packet(resolved["state"], J.m)
    times = [float(t) for t in resolved["times"]]
    half = resolved["half_width"]
    if half is None:
        half = dynamics.required_half_width(J, psi.support_radius(), max(abs(t) for t in times))
    trunc = J.truncate(half)
    thr = float(resolved["threshold"])
    columns = {"t": [], "site": [], "component": [], "re": [], "im": []}
    for t in times:
        pt = dynamics.evolve(trunc, psi, t)
        # entries in site-major order, as (site, component) pairs
        keep = np.abs(pt.coeffs).ravel() > thr
        z = pt.coeffs.ravel()[keep]
        columns["t"].append(np.full(len(z), t))
        columns["site"].append(np.repeat(pt.sites, pt.m)[keep])
        columns["component"].append(np.tile(np.arange(pt.m), len(pt.sites))[keep])
        columns["re"].append(z.real)
        columns["im"].append(z.imag)
    _write_csv(os.path.join(outdir, "evolve.csv"), resolved,
               {key: np.concatenate(parts) for key, parts in columns.items()})
    return None


def cmd_exponents(resolved, outdir):
    J = _operator(resolved)
    psi = _packet(resolved["state"], J.m)
    times = [float(t) for t in resolved["times"]]
    p = float(resolved["p"])
    traj = dynamics.moment_trajectory(J, psi, p, times, half_width=resolved["half_width"])
    est = dynamics.exponent_estimate(traj)
    slopes = np.diff(np.log(traj.values)) / (p * np.diff(np.log(traj.times)))
    _write_csv(os.path.join(outdir, "exponents.csv"), resolved, {
        "t": traj.times, "moment": traj.values,
        "running_slope": np.concatenate([[np.nan], slopes]),
    })
    payload = {"beta_plus_hat": est.beta_plus_hat, "beta_minus_hat": est.beta_minus_hat,
               "residual": est.residual}
    _write_json(os.path.join(outdir, "exponents.json"), resolved, payload)
    return payload


def cmd_ballistic_check(resolved, outdir):
    J = _operator(resolved)
    psi = _packet(resolved["state"], J.m)
    times = sorted(float(t) for t in resolved["times"])
    G = int(resolved["grid_size"])
    errors = dynamics.check_ballistic_limit(J, psi, times, grid_size=G,
                                            half_width=resolved["half_width"])
    _write_csv(os.path.join(outdir, "ballistic.csv"), resolved, {"t": times, "error": errors})
    return None


def cmd_derivative_check(resolved, outdir):
    J = _operator(resolved)
    psi = _packet(resolved["state"], J.m)
    residual = dynamics.check_derivative_identity(
        J, psi, float(resolved["T"]), int(resolved["quad_steps"]),
        half_width=resolved["half_width"])
    payload = {"residual": residual, "T": float(resolved["T"]),
               "quad_steps": int(resolved["quad_steps"])}
    _write_json(os.path.join(outdir, "derivative.json"), resolved, payload)
    return payload


def cmd_corollary_probe(resolved, outdir):
    J = _operator(resolved)
    result = dynamics.corollary_probe(J, float(resolved["epsilon"]),
                                      [float(t) for t in resolved["times"]],
                                      resolved["K"],
                                      grid_size=int(resolved["grid_size"]))
    records = result.records
    _write_csv(os.path.join(outdir, "corollary.csv"), resolved, {
        "T": [r.time for r in records],
        "n_star": [r.n_star for r in records],
        "k_star": [r.k_star for r in records],
        "mass": [r.mass for r in records],
        "threshold_ok": [r.threshold_ok for r in records],
    })
    payload = {"c_tilde": result.c_tilde, "all_ok": result.all_ok}
    _write_json(os.path.join(outdir, "corollary.json"), resolved, payload)
    return payload


def cmd_localization(resolved, outdir):
    J = _operator(resolved)
    trunc = J.truncate(resolved["half_width"])
    step = resolved["t_step"]
    if step is None:
        step = 0.1 * 2.0 * math.pi / trunc.norm_bound
    t_grid = np.arange(0.0, float(resolved["t_max"]) + 1e-12, float(step))
    pairs = [(int(l), int(r)) for l, r in resolved["pairs"]]
    report = dynamics.localization_diagnostic(trunc, pairs, t_grid)
    ls, rs = np.array(report.pairs, dtype=int).reshape(-1, 2).T
    _write_csv(os.path.join(outdir, "localization.csv"), resolved, {
        "l": ls, "r": rs, "distance": np.abs(rs - ls), "sup_amp": report.sup_amplitudes,
    })
    payload = {"slope": report.slope, "r_squared": report.r_squared,
               "decay_rate": report.decay_rate,
               "verdict": "localized" if report.localized else "not_localized"}
    _write_json(os.path.join(outdir, "localization.json"), resolved, payload)
    return payload


def cmd_xy_velocity(resolved, outdir):
    spec = _xy_spec(resolved)
    v0 = xychain.lr_velocity_bound(spec, grid_size=int(resolved["grid_size"]))
    payload = {"v0": v0}
    _write_json(os.path.join(outdir, "xy_velocity.json"), resolved, payload)
    return payload


def cmd_xy_verify(resolved, outdir):
    spec = _xy_spec(resolved)
    lo, hi = resolved["window"]
    chain = xychain.build_spin_hamiltonian(spec, (lo, hi))
    pairs = [(int(l), int(r)) for l, r in resolved["pairs"]]
    times = [float(t) for t in resolved["times"]]
    checks = resolved["checks"]
    cases = [int(c) for c in resolved["cases"]]
    rows = []
    if "free-fermion" in checks:
        for l, _ in pairs:
            for t in times:
                res = xychain.free_fermion_residual(chain, spec, l, t)
                rows.append(("free_fermion", l, l, t, res, 1e-8, res < 1e-8))
    if "lower" in checks:
        for l, r in pairs:
            for t in times:
                for case in cases:
                    chk = xychain.propagation_lower_bound(chain, spec, l, r, t, case)
                    rows.append((f"lower_case{case}", l, r, t, chk.commutator,
                                 chk.entry_abs, chk.ok))
    if "upper" in checks:
        for l, r in pairs:
            for t in times:
                chk = xychain.propagation_upper_bound(chain, spec, l, r, t)
                rows.append(("upper", l, r, t, chk.lhs, chk.rhs, chk.ok))
    header = ("check_name", "l", "r", "t", "lhs", "rhs", "ok")
    columns = zip(*rows) if rows else [()] * len(header)
    _write_csv(os.path.join(outdir, "xy_verify.csv"), resolved, dict(zip(header, columns)))
    payload = {"checks": len(rows), "all_ok": bool(all(r[-1] for r in rows))}
    _write_json(os.path.join(outdir, "xy_verify.json"), resolved, payload)
    return payload


def cmd_lyapunov(resolved, outdir):
    w = [float(x) for x in resolved["potential"]]
    ns = resolved["n"]
    if not isinstance(ns, list):
        ns = [ns]
    energies = np.array([_number_pair(pair, "energies") for pair in resolved["energies"]])
    exponents = [limitperiodic.finite_lyapunov(n, energies, w, periodic=True) for n in ns]
    # energy-major rows: every n for the first energy, then the next
    _write_csv(os.path.join(outdir, "lyapunov.csv"), resolved, {
        "E_re": np.repeat(energies.real, len(ns)),
        "E_im": np.repeat(energies.imag, len(ns)),
        "n": np.tile(ns, len(energies)),
        "L": np.stack(exponents, axis=-1).ravel(),
    })
    return None


def cmd_thouless(resolved, outdir):
    w = [float(x) for x in resolved["potential"]]
    G = int(resolved["grid_size"])
    zs = np.array([_number_pair(pair, "points") for pair in resolved["points"]], dtype=complex)
    res = limitperiodic.thouless_check(len(w), zs, w, grid_size=G)
    _write_csv(os.path.join(outdir, "thouless.csv"), resolved, {
        "z_re": zs.real, "z_im": zs.imag, "lhs": res.lhs, "rhs": res.rhs, "gap": res.gap,
    })
    return None


def cmd_dt_criterion(resolved, outdir):
    value = limitperiodic.dt_criterion(
        [float(x) for x in resolved["potential"]], float(resolved["coupling"]),
        float(resolved["K"]), float(resolved["T"]), float(resolved["alpha"]),
        p_period=resolved["p_period"])
    payload = {"integral": value, "K": float(resolved["K"]),
               "T": float(resolved["T"]), "alpha": float(resolved["alpha"])}
    _write_json(os.path.join(outdir, "dt_criterion.json"), resolved, payload)
    return payload


def cmd_stability(resolved, outdir):
    psi = _packet(resolved["state"], 1)
    diff = limitperiodic.perturbation_stability(
        [float(x) for x in resolved["base_potential"]],
        [float(x) for x in resolved["perturbed_potential"]],
        psi, float(resolved["t"]), float(resolved["p"]), int(resolved["m_env"]))
    payload = {"difference": diff, "t": float(resolved["t"]), "p": float(resolved["p"])}
    _write_json(os.path.join(outdir, "stability.json"), resolved, payload)
    return payload


def cmd_generic(resolved, outdir):
    construction = limitperiodic.generic_builder(
        resolved["stages"], float(resolved["p"]), int(resolved["m_env"]),
        seed=int(resolved["seed"]))
    stage_payload = []
    for rec in construction.records:
        stage_payload.append({
            "stage": rec.stage,
            "period": rec.period,
            "potential": [float(x) for x in rec.potential],
            "delta": rec.delta,
            "T": rec.time,
            "p": rec.moment_order,
            "m_env": rec.envelope_m,
        })
    _write_json(os.path.join(outdir, "generic_stages.json"), resolved,
                {"stages": stage_payload})
    rows = construction.verification
    _write_csv(os.path.join(outdir, "generic_verification.csv"), resolved, {
        "stage": [v.stage for v in rows], "T": [v.time for v in rows],
        "threshold": [v.threshold for v in rows],
        "worst_moment": [v.worst_moment for v in rows], "ok": [v.ok for v in rows],
    })
    payload = {"stages": len(stage_payload),
               "deltas": [rec.delta for rec in construction.records],
               "all_ok": construction.all_ok}
    return payload


RUNNERS = {
    "bands": cmd_bands,
    "qnorm": cmd_qnorm,
    "evolve": cmd_evolve,
    "exponents": cmd_exponents,
    "ballistic-check": cmd_ballistic_check,
    "derivative-check": cmd_derivative_check,
    "corollary-probe": cmd_corollary_probe,
    "localization": cmd_localization,
    "xy-velocity": cmd_xy_velocity,
    "xy-verify": cmd_xy_verify,
    "lyapunov": cmd_lyapunov,
    "thouless": cmd_thouless,
    "dt-criterion": cmd_dt_criterion,
    "stability": cmd_stability,
    "generic": cmd_generic,
}

# cheap precondition checks promoted to the validation phase (exit code 2)
def _validate_phase(command, resolved):
    if "grid_size" in resolved:
        floquet.check_grid(resolved["grid_size"])
    if "operator" in resolved:
        J = _operator(resolved)
    if "state" in resolved:
        _packet(resolved["state"], J.m if "operator" in resolved else 1)
    if "half_width" in resolved:
        half = resolved["half_width"]
        nullable = SCHEMAS[command]["half_width"] is None
        if not (_is_positive_integer(half) or (nullable and half is None)):
            raise ConfigInvalid(f"'half_width' must be a positive integer"
                                f"{' or null' if nullable else ''}, got {half!r}")
    for key in ("potential", "base_potential", "perturbed_potential"):
        if key in resolved:
            w = resolved[key]
            if not (isinstance(w, list) and w and all(_is_number(x) for x in w)):
                raise ConfigInvalid(f"'{key}' must be a nonempty list of numbers, got {w!r}")
    for key in ("energies", "points"):
        if key in resolved:
            if not isinstance(resolved[key], list):
                raise ConfigInvalid(f"'{key}' must be a list of [re, im] pairs")
            for z in resolved[key]:
                _number_pair(z, key)
    if command == "lyapunov":
        ns = resolved["n"]
        if not (_is_positive_integer(ns) or (isinstance(ns, list) and ns
                                             and all(_is_positive_integer(n) for n in ns))):
            raise ConfigInvalid(f"'n' must be a positive integer or a nonempty list of "
                                f"them, got {ns!r}")
    if command == "thouless":
        for z in resolved["points"]:
            if z[1] < limitperiodic.THOULESS_MIN_IMAG:
                raise ConfigInvalid(f"points need Im z >= {limitperiodic.THOULESS_MIN_IMAG}, "
                                    f"got {z!r}")
    if command == "dt-criterion":
        if not all(_is_number(resolved[key]) for key in ("coupling", "K", "T", "alpha")):
            raise ConfigInvalid("'coupling', 'K', 'T' and 'alpha' must be numbers")
        limitperiodic.check_dt_args(resolved["potential"], resolved["K"], resolved["T"],
                                    resolved["alpha"], resolved["p_period"])
    if command == "derivative-check":
        if not _is_positive_integer(resolved["quad_steps"]):
            raise ConfigInvalid(f"'quad_steps' must be a positive integer, "
                                f"got {resolved['quad_steps']!r}")
        if not (_is_number(resolved["T"]) and math.isfinite(resolved["T"])):
            raise ConfigInvalid(f"'T' must be a finite number, got {resolved['T']!r}")
    if command in ("xy-velocity", "xy-verify"):
        _xy_spec(resolved)
    if command == "exponents":
        times = resolved["times"]
        if not (isinstance(times, list) and all(_is_positive_number(t) for t in times)
                and len(set(times)) == len(times) >= 2):
            raise ConfigInvalid(f"'times' must be at least two distinct positive finite "
                                f"numbers, got {times!r}")
    if command == "corollary-probe":
        if not (_is_integer(resolved["K"]) and resolved["K"] >= 0):
            raise ConfigInvalid(f"'K' must be a nonnegative integer, got {resolved['K']!r}")
    if command == "localization":
        t_max, step = resolved["t_max"], resolved["t_step"]
        if not (_is_positive_number(t_max) and (step is None or _is_positive_number(step))):
            raise ConfigInvalid(f"'t_max' must be a positive finite number and 't_step' one "
                                f"or null, got {t_max!r} and {step!r}")
    if command == "xy-verify":
        window = resolved["window"]
        if not (isinstance(window, list) and len(window) == 2
                and all(_is_integer(x) for x in window)):
            raise ConfigInvalid(f"'window' must be a pair of integer sites, got {window!r}")
        lo, hi = window
        if hi - lo + 1 > xychain.MAX_SITES:
            raise ConfigInvalid(f"window [{lo}, {hi}] exceeds {xychain.MAX_SITES} sites")
        pairs = resolved["pairs"]
        if not isinstance(pairs, list):
            raise ConfigInvalid("'pairs' must be a list of [l, r] site pairs")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(_is_integer(x) for x in pair)
                    and lo <= pair[0] < pair[1] <= hi):
                raise ConfigInvalid(f"pairs must be [l, r] integer sites with "
                                    f"{lo} <= l < r <= {hi}, got {pair!r}")
    if command == "generic":
        stages = resolved["stages"]
        if not (_is_integer(stages) and 1 <= stages <= 5):
            raise ConfigInvalid(f"'stages' must be an integer between 1 and 5, got {stages!r}")


def _error_json(exc, command):
    return json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "command": command,
    }, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transportctl",
        description="Transport experiments for periodic block Jacobi matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    command = args.command
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(_error_json(ConfigInvalid(f"cannot read config: {exc}"), command),
              file=sys.stderr)
        return 2

    try:
        resolved = _resolve(raw, SCHEMAS[command], command)
        _validate_phase(command, resolved)
    except Exception as exc:
        print(_error_json(exc, command), file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        payload = RUNNERS[command](resolved, args.out)
    except Exception as exc:  # numerical failures and anything unforeseen
        print(_error_json(exc, command), file=sys.stderr)
        # a window beyond the dense or block storage limit is a config error
        return 2 if isinstance(exc, SizeLimitExceeded) else 3
    if payload is not None:
        print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
