"""transportctl: every experiment as a subcommand with a JSON config.

Usage:
    transportctl <command> --config file.json [--out dir]

Configs are strict: unknown keys are rejected, every field is parsed once by
the kind SCHEMAS names for it, and all defaults are echoed back into the
outputs (a field with no effect is validated, then dropped). CSV artifacts
start with '#' header lines carrying the resolved config; JSON artifacts
embed it under a "config" key. Exit codes: 0 success,
2 config error: any SpecError, raised while the config is parsed or by the
library once the command runs (a rule the library owns is checked there
only), 3 any other error (a numerical failure or anything unforeseen).
Errors are reported as a single JSON object on stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .blockjacobi import MAX_WINDOW_DIM, BlockSpec, WavePacket, build_operator
from .errors import ConfigInvalid, SizeLimitExceeded, SpecError

REQUIRED = object()
XY_CHECKS = ("free-fermion", "lower", "upper")


# ---------------------------------------------------------------------------
# Field kinds: parsers (key, value, parsed) -> typed value raising
# ConfigInvalid, where parsed holds the fields of the command parsed so far
# ---------------------------------------------------------------------------


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_positive_integer(x):
    return _is_integer(x) and x >= 1


def _is_number_pair(z):
    return isinstance(z, list) and len(z) == 2 and all(map(_is_number, z))


def _is_integer_pair(z):
    return isinstance(z, list) and len(z) == 2 and all(map(_is_integer, z))


def _kind(what, accepts, convert=None):
    """The kind taking the values `accepts` passes, through `convert`."""
    def parse(key, value, parsed):
        if not accepts(value):
            raise ConfigInvalid(f"'{key}' must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


def _list_kind(what, accepts, convert, collect=list):
    """The kind taking nonempty lists whose every entry `accepts` passes."""
    return _kind(f"a nonempty list of {what}",
                 lambda v: isinstance(v, list) and len(v) > 0 and all(map(accepts, v)),
                 lambda v: collect([convert(x) for x in v]))


_number = _kind("a finite number", _is_number, float)
_positive = _kind("a positive finite number", lambda x: _is_number(x) and x > 0, float)
_nonnegative = _kind("a nonnegative finite number", lambda x: _is_number(x) and x >= 0, float)
_positive_int = _kind("a positive integer", _is_positive_integer)
_nonnegative_int = _kind("a nonnegative integer", lambda x: _is_integer(x) and x >= 0)
_positive_ints = _kind("a positive integer or a nonempty list of them",
                       lambda v: _is_positive_integer(v) or (
                           isinstance(v, list) and len(v) > 0
                           and all(map(_is_positive_integer, v))),
                       lambda v: v if isinstance(v, list) else [v])
_numbers = _list_kind("finite numbers", _is_number, float)
_positive_numbers = _list_kind("positive finite numbers", lambda x: _is_number(x) and x > 0,
                               float)
_complex_pairs = _list_kind("[re, im] pairs of finite numbers", _is_number_pair,
                            lambda z: complex(*z), np.array)
_int_pair = _kind("an [l, r] pair of integers", _is_integer_pair, tuple)
_int_pairs = _list_kind("[l, r] pairs of integers", _is_integer_pair, tuple)
_integers = _list_kind("integers", _is_integer, int)
_check_names = _list_kind(f"check names from {list(XY_CHECKS)}", lambda x: x in XY_CHECKS, str)


def _grid(key, value, parsed):
    from . import floquet
    return floquet.check_grid(value)


def _operator(key, value, parsed):
    if not isinstance(value, dict):
        raise ConfigInvalid(f"'{key}' must be a block-spec JSON object")
    return build_operator(BlockSpec.from_json_dict(value))


def _state_integer(data, key, default=None):
    value = data.get(key, default)
    if not _is_integer(value):
        raise ConfigInvalid(f"state '{key}' must be an integer, got {value!r}")
    return value


def _state(key, value, parsed):
    """A wave packet with the block dimension of the parsed operator, else 1."""
    m = parsed["operator"].m if "operator" in parsed else 1
    if not isinstance(value, dict):
        raise ConfigInvalid(f"'{key}' must be a JSON object")
    keys = set(value)
    if keys == {"delta_scalar"}:
        return WavePacket.delta_scalar(_state_integer(value, "delta_scalar"), m)
    if keys in ({"delta_block"}, {"delta_block", "component"}):
        component = _state_integer(value, "component", 0)
        if not 0 <= component < m:
            raise ConfigInvalid(f"state component must lie in [0, {m - 1}], got {component}")
        return WavePacket.delta_block(_state_integer(value, "delta_block"), component, m)
    if keys == {"base", "coeffs"}:
        coeffs = value["coeffs"]
        if not (isinstance(coeffs, list) and coeffs
                and all(isinstance(block, list) and len(block) == m
                        and all(map(_is_number_pair, block)) for block in coeffs)):
            raise ConfigInvalid(f"state coeffs must be a nonempty list of blocks of {m} "
                                f"[re, im] pairs of finite numbers, got {coeffs!r}")
        arr = np.array([[complex(*z) for z in block] for block in coeffs], dtype=complex)
        return WavePacket(_state_integer(value, "base"), arr)
    raise ConfigInvalid("state must have exactly the keys 'delta_scalar', or 'delta_block' "
                        f"and optionally 'component', or 'base' and 'coeffs'; got {sorted(keys)}")


# ---------------------------------------------------------------------------
# Schemas: field -> (default, kind); a field whose default is None also
# takes null
# ---------------------------------------------------------------------------

_XY = {"mu": (REQUIRED, _numbers), "gamma": (REQUIRED, _numbers), "nu": (REQUIRED, _numbers)}

SCHEMAS = {
    "bands": {"operator": (REQUIRED, _operator), "grid_size": (512, _grid)},
    "qnorm": {"operator": (REQUIRED, _operator), "grid_size": (512, _grid)},
    "evolve": {"operator": (REQUIRED, _operator), "state": (REQUIRED, _state),
               "times": (REQUIRED, _numbers), "threshold": (1e-12, _nonnegative)},
    "exponents": {"operator": (REQUIRED, _operator), "state": (REQUIRED, _state),
                  "times": (REQUIRED, _positive_numbers), "p": (2.0, _positive)},
    "ballistic-check": {"operator": (REQUIRED, _operator), "state": (REQUIRED, _state),
                        "times": (REQUIRED, _positive_numbers), "grid_size": (1024, _grid)},
    "derivative-check": {"operator": (REQUIRED, _operator), "state": (REQUIRED, _state),
                         "T": (1.0, _number), "quad_steps": (256, _positive_int)},
    "corollary-probe": {"operator": (REQUIRED, _operator), "epsilon": (REQUIRED, _positive),
                        "K": (REQUIRED, _nonnegative_int),
                        "times": (REQUIRED, _positive_numbers), "grid_size": (512, _grid)},
    "localization": {"operator": (REQUIRED, _operator), "half_width": (REQUIRED, _positive_int),
                     "pairs": (REQUIRED, _int_pairs), "t_max": (20.0, _positive),
                     "t_step": (None, _positive)},
    "xy-velocity": dict(_XY, grid_size=(512, _grid)),
    "xy-verify": dict(_XY, window=(REQUIRED, _int_pair), pairs=(REQUIRED, _int_pairs),
                      times=(REQUIRED, _numbers), checks=(list(XY_CHECKS), _check_names),
                      cases=([1, 2, 3, 4], _integers)),
    "lyapunov": {"potential": (REQUIRED, _numbers), "energies": (REQUIRED, _complex_pairs),
                 "n": (1000, _positive_ints)},
    "thouless": {"potential": (REQUIRED, _numbers), "points": (REQUIRED, _complex_pairs),
                 "grid_size": (2048, _grid)},
    "dt-criterion": {"potential": (REQUIRED, _numbers), "coupling": (REQUIRED, _number),
                     "K": (REQUIRED, _positive), "T": (REQUIRED, _positive),
                     "alpha": (1.0, _positive)},
    "stability": {"base_potential": (REQUIRED, _numbers),
                  "perturbed_potential": (REQUIRED, _numbers), "state": (REQUIRED, _state),
                  "t": (REQUIRED, _number), "p": (2.0, _positive), "m_env": (1, _positive_int)},
    "generic": {"stages": (REQUIRED, _positive_int), "p": (2.0, _positive),
                "m_env": (1, _positive_int), "seed": (0, _nonnegative_int)},
}


# fields validated but with no effect, so neither passed on nor echoed:
# generic's radius is proved, so its seed seeds nothing
_NO_EFFECT = {"generic": ("seed",)}

# fields whose entries must be distinct: a repeat in xy-verify would repeat
# its rows
_DISTINCT = {"xy-verify": ("pairs", "times", "cases")}


def _check_across_fields(command, a):
    """The rules on what the CLI itself computes (xy-verify's rows,
    localization's time grid); the library owns every other rule. Adds the
    XY chain spec and fills in localization's default time step."""
    if "mu" in a:
        from . import xychain
        a["spec"] = xychain.XYChainSpec(a["mu"], a["gamma"], a["nu"]).validate_free_fermion()
    for key in _DISTINCT.get(command, ()):
        if len(set(a[key])) != len(a[key]):
            raise ConfigInvalid(f"'{key}' must be distinct, got {json.dumps(a[key])}")
    if command == "localization":
        from . import dynamics
        J = a["operator"]
        a["t_step"] = a["t_step"] or dynamics.localization_step(J)
        samples = math.ceil((a["t_max"] + 1e-12) / a["t_step"])
        rows = (2 * a["half_width"] + 1) * J.m
        if samples * rows > MAX_WINDOW_DIM:
            raise SizeLimitExceeded(f"{samples} time samples of {rows} window rows "
                                    f"exceed {MAX_WINDOW_DIM} entries")


def _resolve(raw, command):
    """(resolved, parsed): the config with every default filled in, echoed
    into the artifacts unchanged, and its fields parsed by their kinds."""
    schema = SCHEMAS[command]
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = sorted(set(raw) - set(schema) - {"command"})
    if unknown:
        raise ConfigInvalid(f"unknown config fields for '{command}': {unknown}")
    if "command" in raw and raw["command"] != command:
        raise ConfigInvalid(
            f"config names command '{raw['command']}' but '{command}' was invoked"
        )
    resolved, parsed = {"command": command}, {}
    for key, (default, kind) in schema.items():
        if key in raw:
            value = raw[key]
        elif default is REQUIRED:
            raise ConfigInvalid(f"missing required config field '{key}'")
        else:
            value = default
        resolved[key] = value
        parsed[key] = None if value is None and default is None else kind(key, value, parsed)
    for key in _NO_EFFECT.get(command, ()):
        del resolved[key], parsed[key]
    _check_across_fields(command, parsed)
    return resolved, parsed


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _cells(values):
    """One CSV column as a lazy iterable of strings: floats by repr, ints by
    str, bools as 1/0, strings as they are."""
    arr = np.asarray(values)
    values = arr.tolist()
    if arr.dtype.kind == "b":
        return ("1" if x else "0" for x in values)
    return map(repr if arr.dtype.kind == "f" else str, values)


class _Artifacts:
    """Writes a command's files into outdir, each carrying the resolved config."""

    def __init__(self, outdir, resolved):
        self.outdir = outdir
        self.resolved = resolved

    def write_csv(self, name, columns):
        """The '#' config lines, the header and the rows of columns, a dict
        of equally long value sequences keyed by header name; each row is
        written as it is formatted."""
        with open(os.path.join(self.outdir, name), "w") as fh:
            fh.write(f"# transportctl {self.resolved['command']}\n"
                     f"# config: {json.dumps(self.resolved, sort_keys=True)}\n"
                     f"{','.join(columns)}\n")
            for row in zip(*map(_cells, columns.values())):
                fh.write(",".join(row) + "\n")

    def write_json(self, name, payload):
        with open(os.path.join(self.outdir, name), "w") as fh:
            json.dump(dict(payload, config=self.resolved), fh, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Commands: each reads only its parsed fields
# ---------------------------------------------------------------------------


def cmd_bands(a, out):
    from . import floquet
    G = a["grid_size"]
    bs = floquet.band_structure(a["operator"], G)
    n = bs.bands.shape[1]
    out.write_csv("bands.csv", {
        "theta": np.repeat(bs.thetas, n),
        "band_index": np.tile(np.arange(n), G),
        "lambda": bs.bands.ravel(),
        "velocity": bs.velocities.ravel(),
        "degenerate_flag": np.repeat(bs.degenerate, n),
    })
    return None


def cmd_qnorm(a, out):
    from . import floquet
    vm = floquet.velocity_maximum(a["operator"], grid_size=a["grid_size"])
    payload = {"q_norm": vm.value, "argmax_theta": vm.theta, "argmax_band": vm.band}
    out.write_json("qnorm.json", payload)
    return payload


def cmd_evolve(a, out):
    from . import dynamics
    columns = {"t": [], "site": [], "component": [], "re": [], "im": []}
    for t, pt in zip(a["times"], dynamics.evolve(a["operator"], a["state"], a["times"])):
        # entries in site-major order, as (site, component) pairs
        keep = np.abs(pt.coeffs).ravel() > a["threshold"]
        z = pt.coeffs.ravel()[keep]
        columns["t"].append(np.full(len(z), t))
        columns["site"].append(np.repeat(pt.sites, pt.m)[keep])
        columns["component"].append(np.tile(np.arange(pt.m), len(pt.sites))[keep])
        columns["re"].append(z.real)
        columns["im"].append(z.imag)
    out.write_csv("evolve.csv", {key: np.concatenate(parts) for key, parts in columns.items()})
    return None


def cmd_exponents(a, out):
    from . import dynamics
    dynamics._check_fit_times(sorted(a["times"]))
    traj = dynamics.moment_trajectory(a["operator"], a["state"], a["p"], a["times"])
    est = dynamics.exponent_estimate(traj)
    out.write_csv("exponents.csv", {
        "t": traj.times, "moment": traj.values,
        "running_slope": np.concatenate([[np.nan], est.running_slopes]),
    })
    payload = {"beta_plus_hat": est.beta_plus_hat, "beta_minus_hat": est.beta_minus_hat,
               "residual": est.residual}
    out.write_json("exponents.json", payload)
    return payload


def cmd_ballistic_check(a, out):
    from . import dynamics
    times = sorted(a["times"])
    errors = dynamics.check_ballistic_limit(a["operator"], a["state"], times,
                                            grid_size=a["grid_size"])
    out.write_csv("ballistic.csv", {"t": times, "error": errors})
    return None


def cmd_derivative_check(a, out):
    from . import dynamics
    residual = dynamics.check_derivative_identity(a["operator"], a["state"], a["T"],
                                                  a["quad_steps"])
    payload = {"residual": residual, "T": a["T"], "quad_steps": a["quad_steps"]}
    out.write_json("derivative.json", payload)
    return payload


def cmd_corollary_probe(a, out):
    from . import dynamics
    result = dynamics.corollary_probe(a["operator"], a["epsilon"], a["times"], a["K"],
                                      grid_size=a["grid_size"])
    records = result.records
    out.write_csv("corollary.csv", {
        "T": [r.time for r in records],
        "n_star": [r.n_star for r in records],
        "k_star": [r.k_star for r in records],
        "mass": [r.mass for r in records],
        "threshold_ok": [r.threshold_ok for r in records],
    })
    payload = {"c_tilde": result.c_tilde, "all_ok": result.all_ok}
    out.write_json("corollary.json", payload)
    return payload


def cmd_localization(a, out):
    from . import dynamics
    trunc = a["operator"].truncate(a["half_width"])
    t_grid = np.arange(0.0, a["t_max"] + 1e-12, a["t_step"])
    report = dynamics.localization_diagnostic(trunc, a["pairs"], t_grid)
    ls, rs = np.array(report.pairs, dtype=int).reshape(-1, 2).T
    out.write_csv("localization.csv", {
        "l": ls, "r": rs, "distance": np.abs(rs - ls), "sup_amp": report.sup_amplitudes,
    })
    payload = {"slope": report.slope, "r_squared": report.r_squared,
               "decay_rate": report.decay_rate,
               "verdict": "localized" if report.localized else "not_localized"}
    out.write_json("localization.json", payload)
    return payload


def cmd_xy_velocity(a, out):
    from . import xychain
    payload = {"v0": xychain.lr_velocity_bound(a["spec"], grid_size=a["grid_size"])}
    out.write_json("xy_velocity.json", payload)
    return payload


def cmd_xy_verify(a, out):
    from . import xychain
    pairs, times, checks = a["pairs"], a["times"], a["checks"]
    # every pair and case refused before any sector eigensolve
    for l, r in pairs:
        xychain.check_pair(a["window"], l, r)
    for case in a["cases"]:
        xychain.check_case(case)
    chain = xychain.SpinChain(a["spec"], a["window"])
    # Rows are computed time by time, since the chain keeps e^{itH} for the
    # latest time only, and written check by check, pair by pair, time by time.
    found = {}
    for t in times:
        for l, r in pairs:
            if "free-fermion" in checks:
                res = xychain.free_fermion_residual(chain, l, t)
                found["free_fermion", l, r, t] = (l, l, t, res, 1e-8, res < 1e-8)
            if "lower" in checks:
                for case in a["cases"]:
                    chk = xychain.propagation_lower_bound(chain, l, r, t, case)
                    found[f"lower_case{case}", l, r, t] = (l, r, t, chk.commutator,
                                                           chk.entry_abs, chk.ok)
            if "upper" in checks:
                chk = xychain.propagation_upper_bound(chain, l, r, t)
                found["upper", l, r, t] = (l, r, t, chk.lhs, chk.rhs, chk.ok)
    groups = {"free-fermion": ["free_fermion"], "upper": ["upper"],
              "lower": [f"lower_case{case}" for case in a["cases"]]}
    rows = [(name,) + found[name, l, r, t]
            for check in ("free-fermion", "lower", "upper") if check in checks
            for l, r in pairs for t in times for name in groups[check]]
    header = ("check_name", "l", "r", "t", "lhs", "rhs", "ok")
    out.write_csv("xy_verify.csv", dict(zip(header, zip(*rows))))
    payload = {"checks": len(rows), "all_ok": bool(all(r[-1] for r in rows))}
    out.write_json("xy_verify.json", payload)
    return payload


def cmd_lyapunov(a, out):
    from . import limitperiodic
    ns, energies = a["n"], a["energies"]
    exponents = [limitperiodic.finite_lyapunov(n, energies, a["potential"]) for n in ns]
    # energy-major rows: every n for the first energy, then the next
    out.write_csv("lyapunov.csv", {
        "E_re": np.repeat(energies.real, len(ns)),
        "E_im": np.repeat(energies.imag, len(ns)),
        "n": np.tile(ns, len(energies)),
        "L": np.stack(exponents, axis=-1).ravel(),
    })
    return None


def cmd_thouless(a, out):
    from . import limitperiodic
    w, zs = a["potential"], a["points"]
    res = limitperiodic.thouless_check(zs, w, grid_size=a["grid_size"])
    out.write_csv("thouless.csv", {
        "z_re": zs.real, "z_im": zs.imag, "lhs": res.lhs, "rhs": res.rhs, "gap": res.gap,
    })
    return None


def cmd_dt_criterion(a, out):
    from . import limitperiodic
    value = limitperiodic.dt_criterion(a["potential"], a["coupling"], a["K"], a["T"], a["alpha"])
    payload = {"integral": value, "K": a["K"], "T": a["T"], "alpha": a["alpha"]}
    out.write_json("dt_criterion.json", payload)
    return payload


def cmd_stability(a, out):
    from . import limitperiodic
    diff = limitperiodic.perturbation_stability(
        a["base_potential"], a["perturbed_potential"], a["state"], a["t"], a["p"],
        a["m_env"])
    payload = {"difference": diff, "t": a["t"], "p": a["p"]}
    out.write_json("stability.json", payload)
    return payload


def cmd_generic(a, out):
    from . import limitperiodic
    construction = limitperiodic.generic_builder(a["stages"], a["p"], a["m_env"])
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
    out.write_json("generic_stages.json", {"stages": stage_payload})
    rows = construction.verification
    out.write_csv("generic_verification.csv", {
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
        resolved, parsed = _resolve(raw, command)
    except Exception as exc:
        print(_error_json(exc, command), file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        payload = RUNNERS[command](parsed, _Artifacts(args.out, resolved))
    except Exception as exc:
        print(_error_json(exc, command), file=sys.stderr)
        # a SpecError is a config error wherever it is raised; a numerical
        # failure or anything unforeseen is not
        return 2 if isinstance(exc, SpecError) else 3
    if payload is not None:
        print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
