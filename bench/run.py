"""transportctl benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout of blochdyn (the program is imported from src/,
nothing is installed). With --trace 0 each job of the workload runs as a
fresh `transportctl` process, one after another (a closed loop with one
client), and the end-to-end metrics are reported. Whole passes over the job
list repeat while the next one is expected to end within --seconds; there
are always at least two. With --trace 1 the same jobs are replayed in this
process, once plain and once with spans around every layer, and the
per-layer metrics are reported. The last line of stdout is the result
object; the lines before it describe the environment and every job. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fixed thread counts for BLAS and OpenMP, at most nproc; they apply to this
# process and its children only. TRANSPORTCTL_WORKERS is left unset and no
# --workers flag is passed, so jobs take the default worker path.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_LAUNCHES = 5
# every run repeats the job list at least twice: the median pass is reported
# and the rerun's artifacts are compared byte for byte with the first pass
MIN_PASSES = 2
IMPORTTIME_LAUNCHES = 3
# a job past this is killed and fails, so a hung job cannot stall a run
JOB_TIMEOUT_S = 60.0
CLI = "import sys; from blochdyn.cli import main; sys.exit(main())"

END_TO_END = [
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]


@dataclass
class JobResult:
    """Outcome of one job. status is "ok" (exit 0, output checked),
    "known-defect" (failed exactly as its documented defect predicts) or
    "fail" (anything else: a wrong answer, an unexpected exit)."""

    name: str
    exit_code: int
    seconds: float
    rss_mb: float
    status: str
    reason: str
    payload: dict | None


def parse_result(job, exit_code, stdout, stderr):
    """(status, reason, payload) of a job before its output check."""
    if exit_code == 0:
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        try:
            payload = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return "fail", "exit 0 but stdout is not JSON", None
        return "ok", "", payload
    try:
        err = json.loads(stderr.strip().splitlines()[-1])
        error = f"{err['error']}: {err['message']}"
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        err, error = {}, stderr.strip()[-300:] or "no error report"
    if job.known_defect and exit_code == 3 and err.get("error") == job.defect_error:
        return "known-defect", job.known_defect, None
    return "fail", f"exit {exit_code}: {error}", None


def check_results(jobs, results, outdirs):
    """Run every job's output check; a failed check turns "ok" into "fail"."""
    from checks import CHECKS, CheckFailed, KnownDefect

    peers = {r.name: r.payload for r in results if r.status == "ok"}
    for job, res, out in zip(jobs, results, outdirs):
        if res.status != "ok":
            continue
        try:
            CHECKS[job.command](job, out, res.payload, peers)
        except KnownDefect as exc:
            res.status, res.reason = "known-defect", str(exc)
        except (CheckFailed, OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            res.status, res.reason = "fail", f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "TRANSPORTCTL_WORKERS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv, stdout_path, stderr_path, timeout=JOB_TIMEOUT_S):
    """Run argv to completion: (exit code, wall seconds, peak RSS in MB).

    os.wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would give
    the running maximum over every child so far. Linux carries the launching
    process's peak RSS over into the child's through fork and exec, so the
    benchmark launches jobs before it builds any large reference arrays."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_pass(jobs, pass_dir):
    """One closed-loop pass: each job in a fresh process, in order."""
    outdirs, results = [], []
    for job in jobs:
        out = pass_dir / job.name
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(job.config))
        outdirs.append(out)
    start = time.perf_counter()
    for job, out in zip(jobs, outdirs):
        argv = [sys.executable, "-c", CLI, job.command, "--config", str(out / "config.json"),
                "--out", str(out)]
        code, seconds, rss = launch(argv, out / "stdout.txt", out / "stderr.txt")
        status, reason, payload = parse_result(
            job, code, (out / "stdout.txt").read_text(), (out / "stderr.txt").read_text())
        results.append(JobResult(job.name, code, seconds, rss, status, reason, payload))
    wall = time.perf_counter() - start
    return wall, results


def import_seconds(run_dir, launches):
    """Median wall time of fresh interpreters that import blochdyn.cli."""
    times = []
    for i in range(launches):
        code, seconds, _ = launch([sys.executable, "-c", "import blochdyn.cli"],
                                  run_dir / f"setup{i}.out", run_dir / f"setup{i}.err")
        if code != 0:
            raise RuntimeError((run_dir / f"setup{i}.err").read_text())
        times.append(seconds)
    return statistics.median(times)


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "threads": PINNED_ENV,
            "transportctl_workers": "unset (default path)", "numpy_config": blas}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def end_to_end(jobs, run_dir, seconds):
    # the warm-up launch compiles .pyc files and faults in the shared
    # libraries; it is discarded
    launch([sys.executable, "-c", "import blochdyn.cli, numpy; numpy.linalg.eigh(numpy.eye(64))"],
           run_dir / "warmup.out", run_dir / "warmup.err")
    setup = import_seconds(run_dir, SETUP_LAUNCHES)
    passes = []
    start = time.perf_counter()
    while True:
        wall, results = run_pass(jobs, run_dir / f"pass{len(passes)}")
        passes.append((wall, results))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + wall > seconds:
            break
    # checks run once every pass is done: a launching process that has grown
    # would raise the peak RSS its children report (see launch)
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"launcher peak_rss_mb={floor:.1f} (a lower bound on every job's reading)")
    for i, (_, results) in enumerate(passes):
        check_results(jobs, results, [run_dir / f"pass{i}" / job.name for job in jobs])
        if i:
            same_artifacts(run_dir / "pass0", run_dir / f"pass{i}", results)
    results = [r for _, rs in passes for r in rs]
    metrics = {
        "wall_s": statistics.median(w for w, _ in passes),
        "slowest_job_s": statistics.median(max(r.seconds for r in rs) for _, rs in passes),
        "setup_s": setup,
        "peak_rss_mb": max(r.rss_mb for r in results),
        "ok_frac": sum(r.status == "ok" for r in results) / len(results),
    }
    return metrics, results


def same_artifacts(first, again, results):
    """Identical configs must give byte-identical artifacts: a job of the
    rerun whose artifacts differ from the first run's fails."""
    for res in results:
        for path in sorted((again / res.name).iterdir()):
            if path.name in ("config.json", "stderr.txt"):
                continue
            twin = first / res.name / path.name
            if not twin.is_file() or twin.read_bytes() != path.read_bytes():
                res.status, res.reason = "fail", f"{path.name} differs between identical runs"


def replay(jobs, run_dir, cli, tracer=None):
    """Run the jobs in this process through cli.main: (total seconds,
    results). Peak RSS is not per job in one process and reads 0."""
    results, outdirs, total = [], [], 0.0
    for job in jobs:
        out = run_dir / job.name
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(job.config))
        outdirs.append(out)
        argv = [job.command, "--config", str(out / "config.json"), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job.name
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed job, not a crash
                code, stderr = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        total += seconds
        status, reason, payload = parse_result(job, code, stdout.getvalue(), stderr.getvalue())
        results.append(JobResult(job.name, code, seconds, 0.0, status, reason, payload))
    check_results(jobs, results, outdirs)
    return total, results


def traced(jobs, run_dir):
    import spans

    imports = []
    for i in range(IMPORTTIME_LAUNCHES):
        launch([sys.executable, "-X", "importtime", "-c", "import blochdyn.cli"],
               run_dir / f"importtime{i}.out", run_dir / f"importtime{i}.err")
        imports.append(spans.parse_importtime((run_dir / f"importtime{i}.err").read_text()))
    imports = {name: statistics.median(d.get(name, 0.0) for d in imports)
               for name in ("blochdyn", "blochdyn.cli", "scipy.optimize")}

    sys.path.insert(0, str(SRC))
    from blochdyn import cli

    plain_s, _ = replay(jobs, run_dir / "plain", cli)
    tracer = spans.Tracer()
    with tracer.installed():
        traced_s, results = replay(jobs, run_dir / "traced", cli, tracer)
    same_artifacts(run_dir / "plain", run_dir / "traced", results)
    (run_dir / "spans.json").write_text(json.dumps([vars(s) for s in tracer.spans]))
    if any(own < 0.0 for own in spans.self_times(tracer.spans)):
        raise RuntimeError("negative span self time")
    metrics = spans.layer_metrics(tracer, imports, (traced_s - plain_s) / plain_s)
    return metrics, results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "blochdyn" / "cli.py").is_file():
        print(f"bench: no blochdyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # before numpy is imported, so the replay and the references are pinned too
    os.environ.update(PINNED_ENV)
    os.environ.pop("TRANSPORTCTL_WORKERS", None)
    from workloads import WORKLOADS, make_jobs

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if args.trace:
        import spans

        metrics, results = traced(jobs, run_dir)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics, results = end_to_end(jobs, run_dir, args.seconds)
        units = dict(END_TO_END)

    env = environment()
    (run_dir / "environment.json").write_text(json.dumps(env, indent=1, default=str))
    print("environment " + json.dumps({k: v for k, v in env.items() if k != "numpy_config"}))

    for r in results:
        rss = "" if args.trace else f" rss={r.rss_mb:6.1f}MB"
        print(f"job {r.name:22s} exit={r.exit_code} {r.seconds:8.3f}s{rss} "
              f"{r.status}{': ' + r.reason if r.reason else ''}")
    failed = sum(r.status == "fail" for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
