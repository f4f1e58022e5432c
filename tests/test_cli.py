import json
import os
import subprocess
import sys

import numpy as np
import pytest

import blochdyn
from blochdyn import cli
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
    cfg = {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
           "times": [50.0], "half_width": 30}
    code, _, err = run(tmp_path, capsys, "evolve", cfg)
    assert code == 3
    assert json.loads(err)["error"] == "WindowTooSmall"


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
    ("exponents", dict(DELTA0, times=[5.0]), "ConfigInvalid"),
    ("exponents", dict(DELTA0, times=["5", 10.0]), "ConfigInvalid"),
    ("exponents", dict(DELTA0, times=[5.0, 5.0]), "ConfigInvalid"),
    ("exponents", dict(DELTA0, times=[-5.0, 10.0]), "ConfigInvalid"),
])
def test_non_integer_and_bad_time_configs_exit_2(tmp_path, capsys, command, cfg, error):
    # integer fields are never truncated, and times are validated before any
    # evolution runs
    code, out, err = run(tmp_path, capsys, command, cfg)
    assert code == 2
    assert out == ""
    assert _one_json_error(err)["error"] == error
    assert not list(tmp_path.glob("*.csv"))


# one valid config per command: the schema test breaks one field at a time
VALID = {
    "bands": {"operator": FREE_OPERATOR},
    "qnorm": {"operator": FREE_OPERATOR},
    "evolve": dict(DELTA0, times=[1.0]),
    "exponents": dict(DELTA0, times=[1.0, 2.0]),
    "ballistic-check": dict(DELTA0, times=[5.0]),
    "derivative-check": DELTA0,
    "corollary-probe": {"operator": FREE_OPERATOR, "epsilon": 0.2, "K": 0, "times": [10.0]},
    "localization": {"operator": FREE_OPERATOR, "half_width": 40, "pairs": [[0, 4]]},
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
    ("bands", {"operator": FREE_OPERATOR, "gap_tol": "x"}),
    ("localization", dict(VALID["localization"], pairs=[[0]])),
    ("localization", dict(VALID["localization"], pairs=[[0, 400]])),
    ("localization", dict(VALID["localization"], pairs=[[-41, 0]])),
    ("localization", dict(VALID["localization"], t_max=1e9)),
    ("dt-criterion", dict(VALID["dt-criterion"], p_period="2")),
    ("lyapunov", dict(VALID["lyapunov"], energies=[[1.0, float("nan")]])),
    ("thouless", dict(VALID["thouless"], points=[])),
    ("evolve", dict(VALID["evolve"], state={"base": 0, "coeffs": [[[float("inf"), 0.0]]]})),
])
def test_config_errors_exit_2_before_running(tmp_path, capsys, command, cfg):
    _assert_rejected(tmp_path, capsys, command, cfg)


def test_oversized_time_grid_is_a_size_error(tmp_path, capsys):
    # (time samples) x (window rows) over MAX_WINDOW_DIM, refused before the
    # grid is allocated
    cfg = dict(VALID["localization"], t_max=1e9)
    code, _, err = run(tmp_path, capsys, "localization", cfg)
    assert code == 2
    assert _one_json_error(err)["error"] == "SizeLimitExceeded"


@pytest.mark.parametrize("command, cfg", [
    ("evolve", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0}, "times": [1.0],
                "half_width": 3000000}),
    ("localization", {"operator": FREE_OPERATOR, "half_width": 5000, "pairs": [[0, 4]]}),
    ("derivative-check", {"operator": FREE_OPERATOR, "state": {"delta_scalar": 0},
                          "half_width": 5000}),
])
def test_oversized_window_exits_2(tmp_path, capsys, command, cfg):
    # over MAX_WINDOW_DIM (evolve) or MAX_DENSE_DIM (the eigensolving commands)
    code, _, err = run(tmp_path, capsys, command, cfg)
    assert code == 2
    assert _one_json_error(err)["error"] == "SizeLimitExceeded"


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
    assert shapes == [(2048, 5, 5), (1024, 5, 5)]
    rows = (tmp_path / "thouless.csv").read_text().splitlines()[3:]
    assert len(rows) == len(points)
    # each row is what a call at that point alone gives
    for (x, y), row in zip(points, rows):
        res = thouless_check(5, complex(x, y), GAPPED5_POTENTIAL, grid_size=2048)
        assert row == ",".join(repr(float(v)) for v in (x, y, res.lhs, res.rhs, res.gap))
