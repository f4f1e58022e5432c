import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import blochdyn
from blochdyn import cli, errors
from blochdyn.cli import SCHEMAS, main

FREE_OPERATOR = {"m": 1, "q": 1, "a": [[[1.0, 0.0]]], "b": [[[0.0, 0.0]]]}
PERIOD2 = {"m": 1, "q": 2,
           "a": [[[1.0, 0.0]], [[1.0, 0.0]]],
           "b": [[[1.0, 0.0]], [[-1.0, 0.0]]]}

GAPPED5_POTENTIAL = [1.5, -0.4, 0.9, -1.2, 0.3]
GAPPED5 = {"m": 1, "q": 5, "a": [[[1.0, 0.0]]] * 5,
           "b": [[[v, 0.0]] for v in GAPPED5_POTENTIAL]}


def run(tmp_path, capsys, command, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qnorm_stdout_and_file(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "qnorm", {"operator": FREE_OPERATOR})
    assert code == 0
    payload = json.loads(out)
    assert payload["q_norm"] == pytest.approx(2.0, abs=1e-9)
    assert set(payload) == {"q_norm", "argmax_theta", "argmax_band"}
    saved = json.loads((tmp_path / "qnorm.json").read_text())
    assert saved["q_norm"] == payload["q_norm"]
    assert saved["config"]["grid_size"] == 512  # default echoed


def test_qnorm_deterministic(tmp_path, capsys):
    c1 = run(tmp_path, capsys, "qnorm", {"operator": PERIOD2})
    f1 = (tmp_path / "qnorm.json").read_bytes()
    c2 = run(tmp_path, capsys, "qnorm", {"operator": PERIOD2})
    f2 = (tmp_path / "qnorm.json").read_bytes()
    assert c1 == c2
    assert f1 == f2


def test_bands_grid_too_coarse_exits_2(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "bands",
                         {"operator": FREE_OPERATOR, "grid_size": 8})
    assert code == 2
    assert json.loads(err)["error"] == "GridTooCoarse"


def test_workers_flag_is_a_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"operator": FREE_OPERATOR}))
    with pytest.raises(SystemExit) as exc:
        main(["qnorm", "--config", str(path), "--out", str(tmp_path), "--workers", "1"])
    assert exc.value.code == 2


def test_bands_csv_output(tmp_path, capsys):
    code, _, _ = run(tmp_path, capsys, "bands",
                     {"operator": FREE_OPERATOR, "grid_size": 16})
    assert code == 0
    lines = (tmp_path / "bands.csv").read_text().splitlines()
    assert lines[0] == "# transportctl bands"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "theta,band_index,lambda,velocity,degenerate_flag"
    assert len(lines) == 3 + 16


def test_bands_csv_formats_each_theta_as_a_float_column(tmp_path, capsys):
    # theta is formatted once per grid point; the rows are those of the
    # repeated float column, byte for byte
    from blochdyn import band_structure, build_operator, scalar_spec

    code, _, _ = run(tmp_path, capsys, "bands", {"operator": GAPPED5, "grid_size": 64})
    assert code == 0
    bs = band_structure(build_operator(scalar_spec(GAPPED5_POTENTIAL)), 64)
    columns = {"theta": np.repeat(bs.thetas, 5), "band_index": np.tile(np.arange(5), 64),
               "lambda": bs.bands.ravel(), "velocity": bs.velocities.ravel(),
               "degenerate_flag": np.repeat(bs.degenerate, 5)}
    rows = [",".join(row) for row in zip(*map(cli._cells, columns.values()))]
    assert (tmp_path / "bands.csv").read_text().splitlines()[3:] == rows


def test_streamed_csv_bytes_equal_the_joined_file(tmp_path):
    # 24576 rows, the size of bands.csv for 12 bands at grid 2048, written
    # row by row; the bytes are those of the whole file joined in memory
    rng = np.random.default_rng(5)
    n = 24576
    columns = {"theta": rng.standard_normal(n), "band_index": np.arange(n) % 12,
               "degenerate_flag": rng.random(n) < 0.1, "name": ["x"] * n}
    resolved = {"command": "bands", "grid_size": 2048}
    cli._Artifacts(str(tmp_path), resolved).write_csv("rows.csv", columns)
    lines = ["# transportctl bands", "# config: " + json.dumps(resolved, sort_keys=True),
             "theta,band_index,degenerate_flag,name"]
    lines += [f"{t!r},{b},{int(f)},{s}" for t, b, f, s in
              zip(columns["theta"].tolist(), columns["band_index"].tolist(),
                  columns["degenerate_flag"].tolist(), columns["name"])]
    assert (tmp_path / "rows.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_unknown_field_rejected(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, "qnorm",
                       {"operator": FREE_OPERATOR, "bogus": 1})
    assert code == 2
    assert json.loads(err)["error"] == "ConfigInvalid"


def test_missing_field_rejected(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, "qnorm", {})
    assert code == 2
    assert "operator" in json.loads(err)["message"]


def test_command_mismatch_rejected(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, "qnorm",
                       {"command": "bands", "operator": FREE_OPERATOR})
    assert code == 2


def test_invalid_spec_exits_2(tmp_path, capsys):
    bad = {"m": 1, "q": 1, "a": [[[0.0, 0.0]]], "b": [[[0.0, 0.0]]]}
    code, _, err = run(tmp_path, capsys, "qnorm", {"operator": bad})
    assert code == 2
    assert json.loads(err)["error"] == "SingularOffDiagonal"


def test_runtime_failure_exits_3(tmp_path, capsys):
    # a gap of 0.05 is too narrow for the velocity-operator quadrature at
    # the default grid, which only the run itself finds out
    near_free = {"m": 1, "q": 2, "a": [[[1.0, 0.0]], [[1.0, 0.0]]],
                 "b": [[[1.0, 0.0]], [[0.95, 0.0]]]}
    cfg = {"operator": near_free, "state": {"delta_scalar": 0}, "times": [5.0]}
    code, _, err = run(tmp_path, capsys, "ballistic-check", cfg)
    assert code == 3
    assert json.loads(err)["error"] == "QuadratureNotConverged"


def _one_json_error(err):
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("state", [
    {"base": 0, "coeffs": [[1]]},
    {"base": 0, "coeffs": [[[1.0, 0.0], [0.0, 1.0]]]},
    {"base": 0, "coeffs": [[["1", 0.0]]]},
    {"base": 0, "coeffs": []},
])
def test_bad_state_coeffs_exit_2(tmp_path, capsys, state):
    cfg = {"operator": FREE_OPERATOR, "state": state, "times": [1.0]}
    code, _, err = run(tmp_path, capsys, "evolve", cfg)
    assert code == 2
    assert _one_json_error(err)["error"] == "ConfigInvalid"


@pytest.mark.parametrize("state", [{"delta_scalar": "x"}, {"delta_scalar": 1.5},
                                   {"delta_block": "0"}, {"delta_block": 0, "component": 1}])
def test_bad_state_integers_exit_2(tmp_path, capsys, state):
    cfg = {"operator": FREE_OPERATOR, "state": state, "times": [1.0]}
    code, _, err = run(tmp_path, capsys, "evolve", cfg)
    assert code == 2
    assert _one_json_error(err)["error"] == "ConfigInvalid"


@pytest.mark.parametrize("energies", [[1.0], [[1.0]], [[1.0, "0"]], 1.0])
def test_bad_energies_exit_2(tmp_path, capsys, energies):
    cfg = {"potential": [0.0], "energies": energies, "n": 10}
    code, _, err = run(tmp_path, capsys, "lyapunov", cfg)
    assert code == 2
    assert _one_json_error(err)["error"] == "ConfigInvalid"


@pytest.mark.parametrize("command, cfg", [
    ("dt-criterion", {"potential": [1.0, -1.0], "coupling": 1.0, "K": -1.0, "T": 50.0}),
    ("dt-criterion", {"potential": [1.0, -1.0], "coupling": 1.0, "K": 1.0, "T": 50.0,
                      "alpha": 2.0}),
    ("dt-criterion", {"potential": [1.0, -1.0], "coupling": 1.0, "K": 1.0, "T": 50.0,
                      "p_period": 3}),
    ("lyapunov", {"potential": [0.0], "energies": [[1.0, 0.0]], "n": 0}),
    ("lyapunov", {"potential": [0.0], "energies": [[1.0, 0.0]], "n": []}),
    ("lyapunov", {"potential": [], "energies": [[1.0, 0.0]], "n": 10}),
    ("thouless", {"potential": [0.0], "points": [[0.5, 0.01]]}),
    ("thouless", {"potential": [], "points": [[0.5, 1.0]]}),
    ("xy-verify", {"mu": [1.0], "gamma": [0.5], "nu": [1.0], "window": [1, 4],
                   "pairs": [[3, 1]], "times": [0.5]}),
    ("xy-verify", {"mu": [1.0], "gamma": [0.5], "nu": [1.0], "window": [1, 4],
                   "pairs": [[1, 7]], "times": [0.5]}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "quad_steps": 0}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "quad_steps": -4}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "quad_steps": 1.5}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "quad_steps": "8"}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "T": "1"}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "T": float("inf")}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "half_width": "x"}),
    ("evolve", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}, "times": [1.0],
                "half_width": 2.7}),
    ("evolve", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}, "times": [1.0],
                "half_width": 0}),
    ("exponents", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                   "times": [1.0, 2.0], "half_width": True}),
    ("ballistic-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                         "times": [5.0], "half_width": -5}),
    ("localization", {"operator": FREE_OPERATOR, "half_width": None, "pairs": [[0, 4]]}),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 40.0, "pairs": [[0, 4]]}),
])
def test_bad_transfer_and_pair_configs_exit_2(tmp_path, capsys, command, cfg):
    code, _, err = run(tmp_path, capsys, command, cfg)
    assert code == 2
    assert _one_json_error(err)["command"] == command
    assert not list(tmp_path.glob("*.csv"))


XY_SMALL = {"mu": [1.0], "gamma": [0.5], "nu": [1.0], "pairs": [[1, 3]], "times": [0.5]}
DELTA0 = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}}


@pytest.mark.parametrize("command, cfg, error", [
    ("bands", {"operator": FREE_OPERATOR, "grid_size": 64.9}, "GridTooCoarse"),
    ("qnorm", {"operator": FREE_OPERATOR, "grid_size": 64.0}, "GridTooCoarse"),
    ("xy-verify", dict(XY_SMALL, window=[1.5, 4]), "ConfigInvalid"),
    ("xy-verify", dict(XY_SMALL, window=[1, 4, 5]), "ConfigInvalid"),
    ("corollary-probe", {"operator": FREE_OPERATOR, "epsilon": 0.2, "K": 2.7,
                         "times": [10.0]}, "ConfigInvalid"),
    ("corollary-probe", {"operator": FREE_OPERATOR, "epsilon": 0.2, "K": -1,
                         "times": [10.0]}, "ConfigInvalid"),
    ("generic", {"stages": 1.9}, "ConfigInvalid"),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4]],
                      "t_step": "x"}, "ConfigInvalid"),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4]],
                      "t_step": 0.0}, "ConfigInvalid"),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4]],
                      "t_max": -1}, "ConfigInvalid"),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4]],
                      "t_max": float("inf")}, "ConfigInvalid"),
    ("exponents", dict(DELTA0, times=[0.0, 5.0]), "ConfigInvalid"),
    ("exponents", dict(DELTA0, times=[5.0]), "SpecError"),
    ("exponents", dict(DELTA0, times=["5", 10.0]), "ConfigInvalid"),
    ("exponents", dict(DELTA0, times=[5.0, 5.0]), "SpecError"),
    ("exponents", dict(DELTA0, times=[-5.0, 10.0]), "ConfigInvalid"),
    ("qnorm", {"operator": dict(FREE_OPERATOR, m=1.5, q="1", bogus=3)}, "DimensionMismatch"),
    ("qnorm", {"operator": dict(FREE_OPERATOR, m=1.5)}, "DimensionMismatch"),
    ("qnorm", {"operator": dict(FREE_OPERATOR, q="1")}, "DimensionMismatch"),
    ("qnorm", {"operator": dict(FREE_OPERATOR, m=True)}, "DimensionMismatch"),
    ("qnorm", {"operator": dict(FREE_OPERATOR, q=0)}, "DimensionMismatch"),
    ("qnorm", {"operator": {"m": 1, "q": 1, "b": [[[0.0, 0.0]]]}}, "DimensionMismatch"),
    ("evolve", dict(DELTA0, times=[1.0], state={"delta_scalar": 0, "delta_block": 5,
                                                "bogus": 1}), "ConfigInvalid"),
    ("evolve", dict(DELTA0, times=[1.0], state={"delta_scalar": 0, "delta_block": 5}),
     "ConfigInvalid"),
    ("evolve", dict(DELTA0, times=[1.0], state={"delta_scalar": 0, "component": 0}),
     "ConfigInvalid"),
    ("evolve", dict(DELTA0, times=[1.0], state={"base": 0, "coeffs": [[[1.0, 0.0]]],
                                                "delta_block": 0}), "ConfigInvalid"),
    # NaN and Infinity are JSON numbers to Python's parser: refused as
    # non-finite blocks, before any Floquet fiber or light cone sees them
    ("qnorm", {"operator": dict(FREE_OPERATOR, b=[[[float("nan"), 0.0]]])}, "SpecError"),
    ("evolve", dict(DELTA0, times=[1.0], operator=dict(FREE_OPERATOR, a=[[[float("inf"), 0.0]]])),
     "SpecError"),
    # rules the library owns, refused once the command runs
    ("stability", {"base_potential": [0.0], "perturbed_potential": [0.1, -0.1],
                   "state": {"delta_scalar": 5}, "t": 2.0, "m_env": 1}, "PsiEnvelopeViolated"),
    # a step of 1.0 is coarser than 0.1 * 2pi / 2 on the free Laplacian
    ("localization", {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4]],
                      "t_step": 1.0}, "SpecError"),
    ("xy-verify", dict(XY_SMALL, window=[1, 13]), "ChainTooLong"),
    ("dt-criterion", {"potential": [1.0, -1.0], "coupling": 1.0, "K": 1.0, "T": 50.0,
                      "p_period": 2}, "ConfigInvalid"),
    # a repeated xy-verify pair, time or case would repeat its rows
    ("xy-verify", dict(XY_SMALL, window=[1, 4], pairs=[[1, 3], [1, 3]]), "ConfigInvalid"),
    ("xy-verify", dict(XY_SMALL, window=[1, 4], times=[0.5, 0.5]), "ConfigInvalid"),
    ("xy-verify", dict(XY_SMALL, window=[1, 4], cases=[1, 1]), "ConfigInvalid"),
])
def test_non_integer_and_bad_time_configs_exit_2(tmp_path, capsys, command, cfg, error):
    # integer fields are never truncated, operator and state specs are
    # strict, times are validated before any evolution runs, and a rule the
    # library owns exits 2 like a parse error
    code, out, err = run(tmp_path, capsys, command, cfg)
    assert code == 2
    assert out == ""
    assert _one_json_error(err)["error"] == error
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# one valid config per command: the schema test breaks one field at a time
VALID = {
    "bands": {"operator": FREE_OPERATOR},
    "qnorm": {"operator": FREE_OPERATOR},
    "evolve": dict(DELTA0, times=[1.0]),
    "exponents": dict(DELTA0, times=[1.0, 2.0]),
    "ballistic-check": dict(DELTA0, times=[5.0]),
    "derivative-check": DELTA0,
    "corollary-probe": {"operator": FREE_OPERATOR, "epsilon": 0.2, "K": 0, "times": [10.0]},
    "localization": {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4], [0, 8]]},
    "xy-velocity": {"mu": [1.0], "gamma": [0.5], "nu": [1.0]},
    "xy-verify": dict(XY_SMALL, window=[1, 4]),
    "lyapunov": {"potential": [0.0], "energies": [[1.0, 0.0]]},
    "thouless": {"potential": [0.0], "points": [[0.5, 1.0]]},
    "dt-criterion": {"potential": [1.0, -1.0], "coupling": 1.0, "K": 1.0, "T": 50.0},
    "stability": {"base_potential": [0.0], "perturbed_potential": [0.1, -0.1],
                  "state": {"delta_scalar": 0}, "t": 2.0},
    "generic": {"stages": 1},
}
WRONG_VALUES = [True, "x", None, float("nan"), float("inf"), [], {}, ["x"]]


def _assert_rejected(tmp_path, capsys, command, cfg):
    code, out, err = run(tmp_path, capsys, command, cfg)
    assert (code, out) == (2, ""), (command, cfg, err)
    assert _one_json_error(err)["command"] == command
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_valid_configs_cover_every_command():
    assert set(VALID) == set(SCHEMAS)
    for command, cfg in VALID.items():
        cli._resolve(cfg, command)


def test_readme_field_table_matches_schemas():
    # each row of the README's per-command table names its command's schema
    # fields, in schema order, each optionally followed by "(default)"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Per-command fields", 1)[1].split("\n\n")[1].splitlines()
    assert table[0] == "| command | fields |"
    rows = [line.strip("|").split("|") for line in table[2:]]
    listed = [(command.strip(), [re.fullmatch(r"\s*(\w+)( \(.*\))?\s*", f).group(1)
                                 for f in fields.split(",")])
              for command, fields in rows]
    assert listed == [(command, list(schema)) for command, schema in SCHEMAS.items()]


@pytest.mark.parametrize("command", sorted(VALID))
def test_reruns_are_byte_identical(tmp_path, capsys, command):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        code, stdout, err = run(out, capsys, command, VALID[command])
        assert code == 0, (command, err)
        artifacts = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(artifacts) > 1, artifacts
        runs.append((stdout, artifacts))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command, field",
                         [(command, field) for command in SCHEMAS for field in SCHEMAS[command]])
def test_every_schema_field_rejects_wrong_values(tmp_path, capsys, command, field):
    # null is a wrong value unless the field defaults to null
    nullable = SCHEMAS[command][field][0] is None
    for i, wrong in enumerate(WRONG_VALUES):
        if wrong is None and nullable:
            continue
        out = tmp_path / str(i)
        out.mkdir()
        _assert_rejected(out, capsys, command, dict(VALID[command], **{field: wrong}))


@pytest.mark.parametrize("command, cfg", [
    ("ballistic-check", dict(DELTA0, times=[0.0, 5.0])),
    ("evolve", dict(DELTA0, times=["x"])),
    ("evolve", dict(DELTA0, times=[1.0], threshold="x")),
    ("stability", dict(VALID["stability"], t="x")),
    ("stability", dict(VALID["stability"], m_env=0)),
    ("corollary-probe", dict(VALID["corollary-probe"], epsilon=-0.2)),
    ("corollary-probe", dict(VALID["corollary-probe"], times=[0.0])),
    ("xy-verify", dict(VALID["xy-verify"], checks=["bogus"])),
    ("xy-verify", dict(VALID["xy-verify"], cases=[5])),
    ("xy-verify", dict(VALID["xy-verify"], times="x")),
    ("xy-verify", dict(VALID["xy-verify"], gamma=[1.0])),
    ("xy-velocity", dict(VALID["xy-velocity"], gamma=[-1.0])),
    ("xy-velocity", dict(VALID["xy-velocity"], mu=1.0)),
    ("generic", {"stages": 1, "p": "x"}),
    ("generic", {"stages": 1, "seed": 1.5}),
    ("generic", {"stages": 6}),
    ("exponents", dict(DELTA0, times=[1.0, 2.0], p=0)),
    ("exponents", dict(DELTA0, times=[1.0, 2.0, 2.0])),
    # gap_tol is no longer a bands field
    ("bands", {"operator": FREE_OPERATOR, "gap_tol": 1e-8}),
    ("localization", dict(VALID["localization"], pairs=[[0]])),
    ("localization", dict(VALID["localization"], pairs=[[0, 400]])),
    ("localization", dict(VALID["localization"], pairs=[[-41, 0]])),
    ("localization", dict(VALID["localization"], t_max=1e9)),
    ("dt-criterion", dict(VALID["dt-criterion"], p_period="2")),
    ("lyapunov", dict(VALID["lyapunov"], energies=[[1.0, float("nan")]])),
    ("thouless", dict(VALID["thouless"], points=[])),
    ("evolve", dict(VALID["evolve"], state={"base": 0, "coeffs": [[[float("inf"), 0.0]]]})),
    ("evolve", dict(VALID["evolve"], half_width=40)),
    ("exponents", dict(VALID["exponents"], half_width=40)),
    ("ballistic-check", dict(VALID["ballistic-check"], half_width=40)),
    ("derivative-check", dict(VALID["derivative-check"], half_width=40)),
])
def test_config_errors_exit_2_before_running(tmp_path, capsys, command, cfg):
    _assert_rejected(tmp_path, capsys, command, cfg)


def test_xy_verify_cases_refused_before_the_chain(tmp_path, capsys, monkeypatch):
    # the cases rule is xychain.check_case's; the CLI runs it on every case
    # before any spin chain is built
    def no_chain(*args):
        raise AssertionError("chain built")

    monkeypatch.setattr(blochdyn.xychain, "SpinChain", no_chain)
    code, out, err = run(tmp_path, capsys, "xy-verify", dict(VALID["xy-verify"], cases=[1, 5]))
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SpecError"


def test_oversized_time_grid_is_a_size_error(tmp_path, capsys):
    # (time samples) x (window rows) over MAX_WINDOW_DIM, refused before the
    # grid is allocated
    cfg = dict(VALID["localization"], t_max=1e9)
    code, _, err = run(tmp_path, capsys, "localization", cfg)
    assert code == 2
    assert _one_json_error(err)["error"] == "SizeLimitExceeded"


def test_oversized_dt_grid_is_a_size_error(tmp_path, capsys):
    # K T = 3e5 asks for a first Simpson grid of 600001 points, over
    # DT_MAX_POINTS; the config alone decides that, so nothing runs
    cfg = {"potential": [1, -1], "coupling": 1, "K": 3000, "T": 100}
    code, out, err = run(tmp_path, capsys, "dt-criterion", cfg)
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SizeLimitExceeded"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_huge_time_is_refused_before_the_light_cone_is_tabulated(tmp_path, capsys):
    # t = 1e8 on the free Laplacian needs a window of more than 4e8 rows;
    # sizing its light cone would take about 10 GB, the refusal a few kB
    cfg = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}, "times": [1e8]}
    tracemalloc.start()
    try:
        code, out, err = run(tmp_path, capsys, "evolve", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SizeLimitExceeded"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert peak < 2e6


@pytest.mark.parametrize("command, cfg", [
    ("evolve", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                "times": [1.1e6]}),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 5000,
                      "pairs": [[0, 4], [0, 8]]}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "T": 2100.0}),
    # 256 fibers of 2048x2048: two stacks of 2^30 entries
    ("xy-velocity", {"mu": [1.0], "gamma": [0.5], "nu": [1.0] * 1024, "grid_size": 256}),
    # 40001 sources on a window of about 40000 rows
    ("corollary-probe", {"operator": FREE_OPERATOR, "epsilon": 0.2, "K": 20000,
                         "times": [10.0]}),
])
def test_oversized_window_exits_2(tmp_path, capsys, command, cfg):
    # over MAX_WINDOW_DIM (evolve) or MAX_DENSE_DIM (the eigensolving
    # commands), or a fiber stack or source block of more than MAX_DENSE_DIM^2
    # entries; each is refused before the large arrays are allocated
    tracemalloc.start()
    try:
        code, out, err = run(tmp_path, capsys, command, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SizeLimitExceeded"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert peak < 4e6, peak


@pytest.mark.parametrize("exc, code", [
    (errors.SpecError("refused"), 2),
    (errors.PsiEnvelopeViolated("refused"), 2),
    (errors.NumericsError("failed"), 3),
    (errors.QuadratureNotConverged("failed"), 3),
])
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, exc, code):
    # once a command runs, a SpecError from anywhere exits 2 and any other
    # error 3; nothing is printed on stdout
    def raising(parsed, out):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "qnorm", raising)
    assert run(tmp_path, capsys, "qnorm", {"operator": FREE_OPERATOR})[:2] == (code, "")


def test_xy_verify_bad_pair_is_refused_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    solves = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solves.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = dict(XY_SMALL, window=[0, 6], pairs=[[1, 4], [2, 7]])
    code, out, err = run(tmp_path, capsys, "xy-verify", cfg)
    assert (code, out) == (2, "")
    assert "0 <= l < r <= 6" in _one_json_error(err)["message"]
    assert solves == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_unforeseen_runtime_error_exits_3(tmp_path, capsys, monkeypatch):
    import blochdyn.cli as cli

    def broken(resolved, outdir):
        raise TypeError("unforeseen")

    monkeypatch.setitem(cli.RUNNERS, "qnorm", broken)
    code, _, err = run(tmp_path, capsys, "qnorm", {"operator": FREE_OPERATOR})
    assert code == 3
    assert _one_json_error(err) == {"command": "qnorm", "error": "TypeError",
                                    "message": "unforeseen"}


def test_evolve_csv(tmp_path, capsys):
    cfg = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}, "times": [0.5]}
    code, _, _ = run(tmp_path, capsys, "evolve", cfg)
    assert code == 0
    lines = (tmp_path / "evolve.csv").read_text().splitlines()
    assert lines[2] == "t,site,component,re,im"
    assert len(lines) > 4


def test_xy_velocity(tmp_path, capsys):
    cfg = {"mu": [0.5], "gamma": [0.0], "nu": [0.0]}
    code, out, _ = run(tmp_path, capsys, "xy-velocity", cfg)
    assert code == 0
    assert json.loads(out)["v0"] == pytest.approx(2.0, abs=1e-6)


def test_xy_verify_small(tmp_path, capsys):
    cfg = {"mu": [1.0], "gamma": [0.5], "nu": [1.0], "window": [1, 4],
           "pairs": [[1, 3]], "times": [0.5]}
    code, out, _ = run(tmp_path, capsys, "xy-verify", cfg)
    assert code == 0
    assert json.loads(out)["all_ok"] is True
    lines = (tmp_path / "xy_verify.csv").read_text().splitlines()
    assert lines[2] == "check_name,l,r,t,lhs,rhs,ok"
    names = {ln.split(",")[0] for ln in lines[3:]}
    assert names == {"free_fermion", "lower_case1", "lower_case2",
                     "lower_case3", "lower_case4", "upper"}


def test_exponents(tmp_path, capsys):
    cfg = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
           "times": [5.0, 10.0, 20.0], "p": 2.0}
    code, out, _ = run(tmp_path, capsys, "exponents", cfg)
    assert code == 0
    payload = json.loads(out)
    assert 0.9 < payload["beta_plus_hat"] < 1.1


def test_exponents_one_time_is_refused_before_evolving(tmp_path, capsys, monkeypatch):
    # the exponent fit needs two times; a lone t = 20000 would run a
    # light-cone recurrence of about 80000 window rows before the fit refused it
    calls = []

    def bloch_states(*args):
        calls.append(args)
        yield from ()

    monkeypatch.setattr(blochdyn.TruncatedOperator, "propagate",
                        lambda self, *args: calls.append(args))
    monkeypatch.setattr(blochdyn.dynamics, "_bloch_states", bloch_states)
    cfg = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}, "times": [20000.0]}
    code, out, err = run(tmp_path, capsys, "exponents", cfg)
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SpecError"
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_exponents_zero_packet_is_refused(tmp_path, capsys):
    # every moment of the zero packet is 0: one SpecError line and exit 2,
    # not NaN exponents after numpy warnings
    cfg = {"operator": FREE_OPERATOR, "state": {"base": 0, "coeffs": [[[0.0, 0.0]]]},
           "times": [5.0, 10.0]}
    code, out, err = run(tmp_path, capsys, "exponents", cfg)
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SpecError"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_lyapunov_csv(tmp_path, capsys):
    cfg = {"potential": [0.0], "energies": [[3.0, 0.0]], "n": 500}
    code, _, _ = run(tmp_path, capsys, "lyapunov", cfg)
    lines = (tmp_path / "lyapunov.csv").read_text().splitlines()
    assert code == 0
    assert lines[2] == "E_re,E_im,n,L"
    assert len(lines) == 4


def test_lyapunov_one_kernel_call_per_n(tmp_path, capsys, monkeypatch):
    import blochdyn.limitperiodic as lp

    calls = []
    kernel = lp.transfer_matrix

    def counting(n, energy, *args, **kwargs):
        calls.append((n, np.shape(energy)))
        return kernel(n, energy, *args, **kwargs)

    monkeypatch.setattr(lp, "transfer_matrix", counting)
    energies = [[float(e), 0.0] for e in np.linspace(-3.5, 3.5, 21)]
    cfg = {"potential": [0.5, -0.2, 1.0], "energies": energies, "n": [1000, 10000]}
    code, _, _ = run(tmp_path, capsys, "lyapunov", cfg)
    assert code == 0
    assert calls == [(1000, (21,)), (10000, (21,))]
    lines = (tmp_path / "lyapunov.csv").read_text().splitlines()
    assert [ln.split(",")[2] for ln in lines[3:7]] == ["1000", "10000", "1000", "10000"]
    assert len(lines) == 3 + 42


def test_thouless_cmd(tmp_path, capsys):
    cfg = {"potential": [0.0], "points": [[0.0, 3.0]], "grid_size": 256}
    code, _, _ = run(tmp_path, capsys, "thouless", cfg)
    assert code == 0
    row = (tmp_path / "thouless.csv").read_text().splitlines()[3].split(",")
    assert abs(float(row[4])) < 1e-3  # gap column


def test_thouless_unconverged_grid_exits_3(tmp_path, capsys):
    # 8 and 16 fibers disagree at Im z = 0.05: one JSON error, no artifact
    cfg = {"potential": [0.0], "points": [[0.3, 0.05]], "grid_size": 16}
    code, out, err = run(tmp_path, capsys, "thouless", cfg)
    assert code == 3
    error = _one_json_error(err)
    assert error["error"] == "QuadratureNotConverged"
    assert "between grids 8 and 16" in error["message"]
    assert out == ""
    assert not (tmp_path / "thouless.csv").exists()


def test_dt_criterion_cmd(tmp_path, capsys):
    cfg = {"potential": [3.0, -3.0], "coupling": 1.0, "K": 1.0, "T": 50.0}
    code, out, _ = run(tmp_path, capsys, "dt-criterion", cfg)
    assert code == 0
    assert json.loads(out)["integral"] < 1e-3


def test_stability_cmd(tmp_path, capsys):
    cfg = {"base_potential": [0.0], "perturbed_potential": [0.1, -0.1],
           "state": {"delta_scalar": 0}, "t": 2.0, "p": 2.0, "m_env": 1}
    code, out, _ = run(tmp_path, capsys, "stability", cfg)
    assert code == 0
    assert json.loads(out)["difference"] >= 0.0


def test_generic_cmd(tmp_path, capsys):
    cfg = {"stages": 1, "p": 2.0, "m_env": 1}
    code, out, _ = run(tmp_path, capsys, "generic", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    stages = json.loads((tmp_path / "generic_stages.json").read_text())
    assert stages["stages"][0]["T"] == 8.0
    lines = (tmp_path / "generic_verification.csv").read_text().splitlines()
    assert lines[2] == "stage,T,threshold,worst_moment,ok"


def test_generic_seed_has_no_effect(tmp_path, capsys):
    # the certificate radius is proved, not sampled: seed is still validated
    # but neither reaches the library nor the echoed config
    files = ("generic_stages.json", "generic_verification.csv")
    outputs = []
    for seed in (1, 2):
        out = tmp_path / str(seed)
        out.mkdir()
        code, _, _ = run(out, capsys, "generic", {"stages": 2, "seed": seed})
        assert code == 0
        outputs.append([(out / name).read_bytes() for name in files])
    assert outputs[0] == outputs[1]
    assert b"seed" not in outputs[0][0]


def test_generic_refuses_a_non_positive_radius(tmp_path, capsys):
    # at p = 12 the Chebyshev term of the certificate beats the margin, so
    # no radius is proved: a numerical failure, exit 3
    code, out, err = run(tmp_path, capsys, "generic", {"stages": 1, "p": 12.0})
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NoCertificateFound"
    assert not (tmp_path / "generic_stages.json").exists()


def test_generic_huge_p_is_one_json_line(tmp_path):
    # at p = 200 the moment weights |n|^p and T^p overflow: the run exits 3
    # before any evolution, and stderr (of a fresh process, where numpy's
    # warnings would print) is exactly one JSON line with no warning
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg = tmp_path / "hugep.json"
    cfg.write_text(json.dumps({"stages": 1, "p": 200.0}))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "blochdyn.cli", "generic", "--config", str(cfg),
                           "--out", str(out)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "NoCertificateFound"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, cfg", [
    ("exponents", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                   "times": [25.0, 50.0, 400.0], "p": 200.0}),
    ("stability", {"base_potential": [0.0], "perturbed_potential": [0.1, -0.1],
                   "state": {"delta_scalar": 0}, "t": 400.0, "p": 200.0}),
])
def test_moment_weights_that_overflow_are_one_json_line(tmp_path, command, cfg):
    # at p = 200 the weight N^p of the light-cone window overflows a float:
    # the run exits 3 before any evolution instead of printing NaN, and
    # stderr (of a fresh process, where numpy's warnings would print) is
    # exactly one JSON line with no warning
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "blochdyn.cli", command, "--config", str(path),
                           "--out", str(out)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert _one_json_error(proc.stderr)["error"] == "NumericsError"
    assert not out.exists() or not any(out.iterdir())


def test_corollary_cmd(tmp_path, capsys):
    cfg = {"operator": FREE_OPERATOR, "epsilon": 0.2, "K": 0,
           "times": [10.0, 20.0], "grid_size": 64}
    code, out, _ = run(tmp_path, capsys, "corollary-probe", cfg)
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_localization_cmd(tmp_path, capsys):
    cfg = {"operator": FREE_OPERATOR, "half_width": 40,
           "pairs": [[0, d] for d in range(4, 21, 4)], "t_max": 12.0}
    code, out, _ = run(tmp_path, capsys, "localization", cfg)
    assert code == 0
    assert json.loads(out)["verdict"] == "not_localized"


@pytest.mark.parametrize("pairs", [[[0, 4]], [[0, 4], [-2, 2]]])
def test_localization_one_distance_exits_2(tmp_path, capsys, pairs):
    # the decay fit needs two distances |r - l|; with one, the free
    # Laplacian read "localized"
    cfg = {"operator": FREE_OPERATOR, "half_width": 40, "pairs": pairs}
    code, out, err = run(tmp_path, capsys, "localization", cfg)
    assert (code, out) == (2, "")
    assert _one_json_error(err)["error"] == "SpecError"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_ballistic_cmd(tmp_path, capsys):
    cfg = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
           "times": [20.0, 40.0], "grid_size": 64}
    code, _, _ = run(tmp_path, capsys, "ballistic-check", cfg)
    assert code == 0
    lines = (tmp_path / "ballistic.csv").read_text().splitlines()
    assert lines[2] == "t,error"
    assert float(lines[4].split(",")[1]) < 0.1


def test_derivative_cmd(tmp_path, capsys):
    cfg = {"operator": PERIOD2, "state": {"delta_scalar": 0},
           "T": 1.0, "quad_steps": 128}
    code, out, _ = run(tmp_path, capsys, "derivative-check", cfg)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-6


def test_import_loads_no_scipy(tmp_path):
    # scipy is imported inside the functions that need it, so starting a
    # command does not pay for it; bands on a gapped operator never needs
    # the assignment solver, because every greedy match is certified
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scipy_modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = f"import sys, blochdyn.cli; print({scipy_modules})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"

    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({"operator": GAPPED5, "grid_size": 2048}))
    argv = ["bands", "--config", str(cfg), "--out", str(tmp_path)]
    code = f"import sys; from blochdyn.cli import main; print(main({argv!r}), {scipy_modules})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "0 []"
    assert len((tmp_path / "bands.csv").read_text().splitlines()) == 3 + 2048 * 5


def test_commands_load_only_the_modules_they_run(tmp_path):
    # blochdyn resolves its names on first use and cli imports the library
    # layers inside the commands, so starting the CLI loads no layer it does
    # not run, and bands loads neither the dynamics nor the XY chain
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    layers = ("dynamics", "limitperiodic", "xychain")
    loaded = f"[m for m in {['blochdyn.' + m for m in layers]!r} if m in sys.modules]"
    proc = subprocess.run([sys.executable, "-c", f"import sys, blochdyn.cli; print({loaded})"],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"

    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({"operator": GAPPED5, "grid_size": 16}))
    argv = ["bands", "--config", str(cfg), "--out", str(tmp_path)]
    code = f"import sys; from blochdyn.cli import main; print(main({argv!r}), {loaded})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "0 []"


def test_package_names_resolve_to_their_modules():
    # the package namespace loads each name's module on first access
    from blochdyn import dynamics, floquet, xychain

    assert blochdyn.evolve is dynamics.evolve
    assert blochdyn.q_norm is floquet.q_norm
    assert blochdyn.SpinChain is xychain.SpinChain
    with pytest.raises(AttributeError):
        blochdyn.no_such_name


def test_generic_leaves_numpy_random_unimported(tmp_path):
    # the certificate radius is proved, so no command path samples anything
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg = tmp_path / "generic.json"
    cfg.write_text(json.dumps({"stages": 2, "seed": 1}))
    argv = ["generic", "--config", str(cfg), "--out", str(tmp_path)]
    code = f"import sys; from blochdyn.cli import main; print(main({argv!r}), 'numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command, cfg", [
    ("generic", {"stages": 1}),
    ("corollary-probe", {"operator": PERIOD2, "epsilon": 0.2, "K": 3, "times": [20.0, 10.0]}),
])
def test_commands_leave_numpy_ma_unimported(tmp_path, command, cfg):
    # on numpy 2.x, np.unique without return_inverse imports numpy.ma, which
    # adds about 1 MB to a command's peak RSS; no command path needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    code = ("import sys; from blochdyn.cli import main; "
            f"code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_thouless_eigensolves_once_per_command(tmp_path, capsys, monkeypatch):
    from blochdyn.limitperiodic import thouless_check

    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    points = [[-2.0, 0.5], [0.1, 0.2], [1.0, 1.0], [2.2, 0.7]]
    cfg = {"potential": GAPPED5_POTENTIAL, "points": points, "grid_size": 2048}
    code, _, _ = run(tmp_path, capsys, "thouless", cfg)
    assert code == 0
    # the real potential's fibers 0 .. 1024 of 2048; the half grid of 1024
    # is the even ones
    assert shapes == [(1025, 5, 5)]
    rows = (tmp_path / "thouless.csv").read_text().splitlines()[3:]
    assert len(rows) == len(points)
    # each row is what a call at that point alone gives
    for (x, y), row in zip(points, rows):
        res = thouless_check(complex(x, y), GAPPED5_POTENTIAL, grid_size=2048)
        assert row == ",".join(repr(float(v)) for v in (x, y, res.lhs, res.rhs, res.gap))
