"""Self-tests of the benchmark's own code: python3 -m pytest bench -q"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, parent, start, end):
    return spans.Span(name, parent, None, start, end)


def test_self_time_of_nested_and_overlapping_children():
    tree = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),     # overlaps b, as pooled children do
        _span("b", 0, 3.0, 6.0),
        _span("a.leaf", 1, 2.0, 3.0),
        _span("b.leaf", 2, 5.0, 7.0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0, 2.0])
    assert min(spans.self_times(tree)) >= 0.0


def test_union_and_per_name_metrics():
    tracer = spans.Tracer()
    tracer.spans = [
        _span("floquet.apply_q", None, 0.0, 4.0),
        _span("floquet.apply_q", 0, 1.0, 2.0),   # recursion is counted once
        _span("floquet.fiber_matrices", 1, 1.0, 1.5),
        _span("dynamics.moment_trajectory", None, 5.0, 9.0),
        _span("blockjacobi.TruncatedOperator.eigensystem", 3, 6.0, 8.0),
        _span("limitperiodic.dt_criterion", None, 10.0, 11.0),
    ]
    tracer.spans[-1].raised = True
    values = spans.layer_metrics(tracer, {"blochdyn": 0.5, "blochdyn.cli": 0.1}, 0.02)
    assert values["floquet.apply_q.s"] == pytest.approx(4.0)
    assert values["floquet.fiber_matrices.calls"] == 1.0
    assert values["floquet.fibers_per_s"] == pytest.approx(2.0)
    assert values["dynamics.moment_trajectory.self_s"] == pytest.approx(2.0)
    assert values["import.blochdyn_s"] == pytest.approx(0.6)
    assert values["import.scipy_optimize_s"] == 0.0
    assert values["trace.overhead_frac"] == 0.02
    assert values["limitperiodic.dt_criterion.failed"] == 1.0
    assert set(values) == {name for name, _, _ in spans.PER_LAYER}


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        300 |   scipy.optimize\n"
            "import time:      1000 |     500000 | blochdyn\n")
    assert spans.parse_importtime(text) == {"scipy.optimize": 3e-4, "blochdyn": 0.5}


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == [name for name, _ in run.END_TO_END]
    assert layers == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in e2e + [name for name, _, _ in layers] + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


DEFECT = Job("dt", "dt-criterion", {}, known_defect="defect 1",
             defect_error="QuadratureNotConverged")
PLAIN = Job("dt", "dt-criterion", {})
NOT_CONVERGED = json.dumps({"command": "dt-criterion", "error": "QuadratureNotConverged",
                            "message": "adaptive Simpson depth exhausted"})


def test_parse_result_exit_codes():
    assert run.parse_result(PLAIN, 0, '{"integral": 0.5}\n', "") == ("ok", "", {"integral": 0.5})
    assert run.parse_result(PLAIN, 0, "", "") == ("ok", "", None)
    assert run.parse_result(DEFECT, 3, "", NOT_CONVERGED)[0] == "known-defect"
    status, reason, _ = run.parse_result(PLAIN, 3, "", NOT_CONVERGED)
    assert status == "fail" and reason.startswith("exit 3: QuadratureNotConverged")
    other = NOT_CONVERGED.replace("QuadratureNotConverged", "WindowTooSmall")
    assert run.parse_result(DEFECT, 3, "", other)[0] == "fail"
    assert run.parse_result(DEFECT, 1, "", "Traceback ...\nTypeError: x")[0] == "fail"
    assert run.parse_result(PLAIN, 0, "not json", "")[0] == "fail"


def test_wrong_output_fails_its_check(tmp_path):
    from blochdyn import build_operator, q_norm
    from blochdyn.blockjacobi import BlockSpec

    jobs = [j for j in make_jobs("bloch-scan", 1) if j.name in ("qnorm-xy", "xy-velocity")]
    op = build_operator(BlockSpec.from_json_dict(jobs[0].config["operator"]))
    qn = q_norm(op, grid_size=jobs[0].config["grid_size"])
    (tmp_path / "qnorm.json").write_text(json.dumps({"q_norm": qn}))

    def results(v0):
        return [run.JobResult("qnorm-xy", 0, 1.0, 80.0, "ok", "", {"q_norm": qn}),
                run.JobResult("xy-velocity", 0, 1.0, 80.0, "ok", "", {"v0": v0})]

    good = results(qn)
    run.check_results(jobs, good, [tmp_path, tmp_path])
    assert [r.status for r in good] == ["ok", "ok"]
    bad = results(qn + 1e-6)
    run.check_results(jobs, bad, [tmp_path, tmp_path])
    assert bad[0].status == "ok"
    assert bad[1].status == "fail" and "differs from qnorm" in bad[1].reason


def test_jobs_are_seeded_and_sizes_do_not_depend_on_the_seed():
    for workload in WORKLOADS:
        assert make_jobs(workload, 7) == make_jobs(workload, 7)
        assert make_jobs(workload, 7) != make_jobs(workload, 8)
        for seed in range(1, 6):
            for a, b in zip(make_jobs(workload, 1), make_jobs(workload, seed)):
                assert a.name == b.name and a.command == b.command
                if "operator" in a.config:
                    ops = [checks.blocks(job.config["operator"]) for job in (a, b)]
                    assert checks.norm_bound(*ops[0]) == checks.norm_bound(*ops[1])


def test_chebyshev_reference_matches_dense_exponential():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal((3, 2, 2))
    b = b + np.transpose(b, (0, 2, 1))
    win = checks.Window(a.astype(complex), b.astype(complex), -20, 20)
    w, u = np.linalg.eigh(win.dense())
    v = win.delta(0, 1)
    exact = (u @ (np.exp(-2.5j * w) * (u.conj().T @ v.reshape(-1)))).reshape(v.shape)
    np.testing.assert_allclose(win.propagate(v, 2.5), exact, atol=1e-12)


def test_tracer_wraps_imported_names_and_restores_them():
    from blochdyn import dynamics, floquet, scalar_spec, build_operator

    original = dynamics.q_norm
    tracer = spans.Tracer()
    with tracer.installed():
        assert dynamics.q_norm is floquet.q_norm is not original
        dynamics.q_norm(build_operator(scalar_spec([1.0, -1.0])), grid_size=16)
    assert dynamics.q_norm is original
    names = [s.name for s in tracer.spans]
    assert names.count("floquet.q_norm") == 1 and "floquet.velocity_maximum" in names
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "floquet.fiber_matrices"}
    assert parents <= {"floquet.velocity_maximum"}
    assert min(spans.self_times(tracer.spans)) >= 0.0


def test_launch_reports_exit_rss_and_kills_on_timeout(tmp_path):
    code, seconds, rss = run.launch([sys.executable, "-c", "import sys; sys.exit(3)"],
                                    tmp_path / "out", tmp_path / "err")
    assert code == 3 and seconds > 0 and rss > 1.0
    code, seconds, _ = run.launch([sys.executable, "-c", "import time; time.sleep(30)"],
                                  tmp_path / "out", tmp_path / "err", timeout=0.5)
    assert code == -9 and seconds < 10
