"""tilekit benchmark: one workload of `tilekit` CLI jobs, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tilekit is imported from src/.
The load is a closed loop with one client: jobs run one after another,
each in its own `python -m tilekit.cli` process, as users run the tool.

--trace 0 runs the workload's job list in order, then keeps cycling
through the jobs that still fit in S seconds, and reports

  wall_s       sum over the jobs of each job's median wall time (s)
  setup_s      median time of a fresh interpreter importing tilekit.cli (s)
  peak_rss_mb  highest peak resident memory of any job process (MB)

--trace 1 makes one pass in which every job runs twice, untraced and
then under bench/tracer.py, checks that both print the same bytes, and
reports per-layer calls, inclusive time (total_s), self time (self_s)
and counters summed over the pass.  One pass, whatever S is, so that
every count repeats exactly.

Every job's exit code and report are checked (see jobs.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs as jobs_mod
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
JOBS_ENV = "TILEKIT_JOBS"

SETUP_SAMPLES = 9
#: Every run must end within 180 s; a job still running this long after
#: the start is killed and counted as failed.
HARD_LIMIT_S = 160.0

#: Per-layer metric -> (span name, statistic).  Statistics: calls, total_s,
#: self_s and the tracer's hook counters.
LAYER_STATS = {
    "lattice.relevant_vectors.calls": ("lattice.relevant_vectors", "calls"),
    "lattice.relevant_vectors.self_s": ("lattice.relevant_vectors", "self_s"),
    "lattice.venkov_check_cell.total_s": ("lattice.venkov_check_cell", "total_s"),
    "ratpoly._extreme_rays.calls": ("ratpoly._extreme_rays", "calls"),
    "ratpoly._extreme_rays.self_s": ("ratpoly._extreme_rays", "self_s"),
    "ratpoly._extreme_rays.rows_in": ("ratpoly._extreme_rays", "rows_in"),
    "ratpoly._extreme_rays.rays_out": ("ratpoly._extreme_rays", "rays_out"),
    "ratpoly.from_halfspaces.calls": ("ratpoly.from_halfspaces", "calls"),
    "ratpoly.from_halfspaces.total_s": ("ratpoly.from_halfspaces", "total_s"),
    "ratpoly.from_vertices.calls": ("ratpoly.from_vertices", "calls"),
    "ratpoly.from_vertices.total_s": ("ratpoly.from_vertices", "total_s"),
    "ratpoly.from_vertices.under_from_halfspaces_s":
        ("ratpoly.from_vertices", "under_from_halfspaces_s"),
    "ratpoly.face_lattice.total_s": ("ratpoly.face_lattice", "total_s"),
    "ratpoly.is_skinny.calls": ("ratpoly.is_skinny", "calls"),
    "ratpoly.is_skinny.total_s": ("ratpoly.is_skinny", "total_s"),
    # Metric names must start with a letter, so _lp reports as lp.
    "lp.maximize.calls": ("_lp.maximize", "calls"),
    "lp.maximize.self_s": ("_lp.maximize", "self_s"),
    "lp.maximize.tableau_cells": ("_lp.maximize", "tableau_cells"),
    "lp.strictly_feasible.calls": ("_lp.strictly_feasible", "calls"),
    "tiling.build_complex.calls": ("tiling.build_complex", "calls"),
    "tiling.build_complex.self_s": ("tiling.build_complex", "self_s"),
    "tiling.dual_cell.calls": ("tiling.dual_cell", "calls"),
    "tiling.dual_cell.total_s": ("tiling.dual_cell", "total_s"),
    "tiling.skinny_audit.total_s": ("tiling.skinny_audit", "total_s"),
    "tiling.is_3_irreducible.total_s": ("tiling.is_3_irreducible", "total_s"),
    "scaling.build_frame.total_s": ("scaling.build_frame", "total_s"),
    "scaling.propagate.total_s": ("scaling.propagate", "total_s"),
    "scaling.verify_canonical.total_s": ("scaling.verify_canonical", "total_s"),
    "scaling.test_coherence.total_s": ("scaling.test_coherence", "total_s"),
    "lifting.build_generatrissa.total_s": ("lifting.build_generatrissa", "total_s"),
    "lifting.verify_lifting.total_s": ("lifting.verify_lifting", "total_s"),
    "hypercomb.enumerate_6_11_matchings.calls":
        ("hypercomb.enumerate_6_11_matchings", "calls"),
    "hypercomb.enumerate_6_11_matchings.total_s":
        ("hypercomb.enumerate_6_11_matchings", "total_s"),
    "hypercomb.find_5_10_or_6_11.total_s": ("hypercomb.find_5_10_or_6_11", "total_s"),
    "hypercomb.moment_audit.total_s": ("hypercomb.moment_audit", "total_s"),
    "syssolve.cone_test_pipeline.total_s": ("syssolve.cone_test_pipeline", "total_s"),
    "syssolve.cone_test_pipeline.self_s": ("syssolve.cone_test_pipeline", "self_s"),
    "syssolve.run_all_cases.total_s": ("syssolve.run_all_cases", "total_s"),
    "syssolve.final_case_check.total_s": ("syssolve.final_case_check", "total_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Runner:
    """Starts job processes against src/ and records what they cost."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", JOBS_ENV)}
        self.env["PYTHONPATH"] = str(SRC)
        self.peak_rss_kb = 0

    def run(self, argv: list[str], extra_env: dict, stderr_path: Path):
        """(wall seconds, exit code, stdout bytes) of one process."""
        env = {**self.env, **extra_env}
        t0 = time.perf_counter()
        with open(stderr_path, "wb") as err:
            p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env,
                                 cwd=ROOT, start_new_session=True)
        # Kill the whole process group (pool workers too) if a job overruns.
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                   _kill_group, (p.pid,))
        watchdog.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, p.returncode, out


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _cli(job: jobs_mod.Job) -> list[str]:
    return [sys.executable, "-m", "tilekit.cli", *job.args]


def _traced_cli(job: jobs_mod.Job, spans: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(spans), job.id, "--", *job.args]


def measure_setup(runner: Runner, work: Path, samples: int) -> float:
    """Median wall time of a fresh interpreter importing tilekit.cli;
    also checks that it is imported from SRC."""
    probe = [sys.executable, "-c", "import tilekit.cli; print(tilekit.cli.__file__)"]
    times = []
    for _ in range(samples):
        wall, rc, out = runner.run(probe, {}, work / "setup.err")
        where = Path(out.decode().strip()).resolve()
        if rc != 0 or SRC.resolve() not in where.parents:
            raise SystemExit(f"tilekit.cli did not import from {SRC}: "
                             f"rc={rc} {out!r}")
        times.append(wall)
    return statistics.median(times)


def machine() -> dict:
    """Where a result was measured, and of which sources.  The checkout
    may not be a git repository, so the sources are also hashed."""
    src = hashlib.sha256()
    for f in sorted((SRC / "tilekit").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "src_sha256": src.hexdigest(), "platform": platform.platform()}


def _judge(job, rc, out, seen, digests, work: Path) -> list:
    errs = jobs_mod.judge(job, rc, out, seen, digests)
    seen[job.id] = out
    if errs:
        tail = (work / "job.err").read_text(errors="replace")[-400:]
        print(f"FAILED {job.id}: {'; '.join(errs)}\n  stderr: {tail}", file=sys.stderr)
    return errs


def run_timed(workload, job_list, seconds, runner, work, digests):
    """Closed loop; returns (attempted, failed, per-job wall samples)."""
    samples: dict[str, list[float]] = {j.id: [] for j in job_list}
    rcs: dict[str, int] = {}
    seen: dict[str, bytes] = {}
    attempted = failed = 0
    end = time.perf_counter() + seconds
    first_pass = True
    while True:
        ran = False
        for job in job_list:
            if time.monotonic() > runner.deadline:
                break
            # After one full pass, run a job again only if it fits.
            if not first_pass and time.perf_counter() + samples[job.id][-1] > end:
                continue
            wall, rc, out = runner.run(_cli(job), job.env, work / "job.err")
            attempted += 1
            failed += bool(_judge(job, rc, out, seen, digests, work))
            samples[job.id].append(wall)
            rcs[job.id] = rc
            ran = True
        first_pass = False
        if not ran:
            break
    for job in job_list:
        s = samples[job.id]
        if not s:
            attempted += 1
            failed += 1
            print(f"FAILED {job.id}: not run before the time limit", file=sys.stderr)
            continue
        print(f"job workload={workload} id={job.id} runs={len(s)} "
              f"median_s={statistics.median(s):.4f} rc={rcs[job.id]} "
              f"samples_s={','.join(f'{x:.3f}' for x in s)} why={job.why}")
    return attempted, failed, samples


def run_traced(workload, job_list, runner, work, digests):
    """One pass of untraced/traced pairs; returns (attempted, failed, metrics)."""
    seen: dict[str, bytes] = {}
    failed = 0
    totals: dict[str, dict[str, int]] = {}
    wall_plain = wall_traced = 0.0
    for k, job in enumerate(job_list):
        wall_u, rc_u, out_u = runner.run(_cli(job), job.env, work / "job.err")
        errs = _judge(job, rc_u, out_u, seen, digests, work)
        spans = work / f"spans-{k}.jsonl"
        wall_t, rc_t, out_t = runner.run(_traced_cli(job, spans), job.env,
                                         work / "job.err")
        if (rc_t, out_t) != (rc_u, out_u):
            errs.append("traced run printed different bytes or exit code")
            tail = (work / "job.err").read_text(errors="replace")[-400:]
            print(f"FAILED {job.id}: traced output differs\n  stderr: {tail}",
                  file=sys.stderr)
        failed += bool(errs)
        wall_plain += wall_u
        wall_traced += wall_t
        stats = tracer_mod.summarize(spans) if spans.exists() else {}
        for name, s in stats.items():
            acc = totals.setdefault(name, {})
            for key, v in s.items():
                acc[key] = acc.get(key, 0) + v
        calls = {n: stats.get(n, {}).get("calls", 0)
                 for n in ("_lp.maximize", "lattice.relevant_vectors",
                           "tiling.build_complex", "ratpoly._extreme_rays")}
        print(f"trace workload={workload} id={job.id} wall_s={wall_u:.4f} "
              f"traced_s={wall_t:.4f} " + " ".join(f"{n.lstrip('_')}.calls={c}" for n, c in calls.items()))
    return len(job_list), failed, _layer_metrics(totals, len(job_list),
                                                 wall_traced - wall_plain)


def _layer_metrics(totals, njobs: int, overhead_s: float) -> dict:
    def stat(name: str, key: str) -> float:
        s = totals.get(name, {})
        if key.endswith("_s"):
            return s.get(key[:-2] + "_ns", 0) / 1e9
        return s.get(key, 0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {metric: stat(*src) for metric, src in LAYER_STATS.items()}
    m["lattice.relevant_vectors.per_complex"] = share(
        stat("lattice.relevant_vectors", "calls"), stat("tiling.build_complex", "calls"))
    m["lp.maximize.infeasible_share"] = share(
        stat("_lp.maximize", "infeasible"), stat("_lp.maximize", "calls"))
    m["lp.strictly_feasible.found_share"] = share(
        stat("_lp.strictly_feasible", "found"), stat("_lp.strictly_feasible", "calls"))
    m["cli.jobs"] = njobs
    m["trace_overhead_s"] = overhead_s
    units = {"lattice.relevant_vectors.per_complex": "ratio",
             "lp.maximize.infeasible_share": "ratio",
             "lp.strictly_feasible.found_share": "ratio"}
    return {k: {"value": v, "unit": units.get(k, _unit(k))} for k, v in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "tilekit" / "cli.py").is_file():
        print(f"error: no tilekit sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    digests = jobs_mod.load_digests()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(time.monotonic() + HARD_LIMIT_S)
        job_list = jobs_mod.WORKLOADS[args.workload](args.seed, work)
        setup_s = measure_setup(runner, work, 1 if args.trace else SETUP_SAMPLES)
        if args.trace:
            attempted, failed, metrics = run_traced(
                args.workload, job_list, runner, work, digests)
        else:
            attempted, failed, samples = run_timed(
                args.workload, job_list, args.seconds, runner, work, digests)
            metrics = {
                "wall_s": {"value": sum(statistics.median(s) for s in samples.values() if s),
                           "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": runner.peak_rss_kb / 1024, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    row = " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
    print(f"row workload={args.workload} seed={args.seed} trace={args.trace} {row} "
          f"failed_share={failed}/{attempted} nproc={info['nproc']} "
          f"python={info['python']} git_sha={info['git_sha']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
