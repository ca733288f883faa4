"""The idealconv benchmark: seeded CLI job mixes, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-estimate --seed 1 \
        --seconds 25 --trace 0

Load shape: a closed loop with one client.  A fresh worker process runs the
run's fixed job list one job after another, each as
``idealconv.cli.main(argv + ["--out", prefix])``; the program sees only the
generated argv.  ``--seconds`` fixes the number of job rounds through a
nominal per-round cost (``jobs.ROUND_SECONDS``), so the list, and with it the
output digest, depends only on workload, seed and seconds.  Output checks run
after the timed loop, in this process.

Job times are reported in reference seconds.  The shared host's CPU speed
swings by tens of percent within a second, so the worker times a fixed probe
(``worker.probe``, no idealconv code) right before every job and after the
last, and each job's wall time is scaled by ``PROBE_NOMINAL`` over the mean
of the two probes around it: the time the job would take on the reference
host at its usual speed.  A change to idealconv moves these times as it moves
wall time; the raw wall-clock figures are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the list once
untraced and once with spans around each module's public functions (in two
fresh workers) and prints the per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work"
TRACES = HERE / ".traces"
SETUP_RUNS = 10
# time of one host-speed probe (worker.probe) on the reference host, a
# 2-vCPU Xeon container with Python 3.11 and numpy 2.4
PROBE_NOMINAL = 0.0005
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import idealconv.cli; "
              "from idealconv.ideals import builtin, builtin_names; "
              "[builtin(n) for n in builtin_names()]")


def child_env() -> dict:
    """The environment every child runs in: the interpreter's defaults for
    the int-to-str digit limit, no path injections, and numpy's BLAS pool at
    one thread (idealconv makes no BLAS calls; starting the pool on a 2-vCPU
    machine only adds noise to the set-up time)."""
    env = dict(os.environ)
    for key in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(key, None)
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return env


def measure_setup(count: int) -> list[float]:
    """Fresh interpreter through ``import idealconv.cli`` and every built-in
    ideal handle, as a CLI user pays it."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                       env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(jobs: list[dict], tag: str, spans: Path | None = None) -> dict:
    """Run the job list in a fresh worker; with ``spans``, traced, keeping
    the span arrays in that file."""
    jobs_file = WORK / f"{tag}.jobs.json"
    result_file = WORK / f"{tag}.result.json"
    jobs_file.write_text(json.dumps([{"argv": j["argv"], "out": j["out"]}
                                     for j in jobs]))
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_file),
           str(result_file)] + (["--trace", str(spans)] if spans else [])
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return json.loads(result_file.read_text())


def reference_seconds(result: dict) -> list[float]:
    """Each job's wall time scaled to the reference host speed: times
    ``PROBE_NOMINAL`` over the mean of the host-speed probes taken just
    before and just after the job."""
    probes = result["probes"]
    return [rec["seconds"] * 2 * PROBE_NOMINAL / (probes[i] + probes[i + 1])
            for i, rec in enumerate(result["records"])]


def output_digest(jobs: list[dict]) -> str:
    """sha256 over the primary outputs (.json, .csv) in job order."""
    h = hashlib.sha256()
    for job in jobs:
        for suffix in (".json", ".csv"):
            path = Path(job["out"] + suffix)
            if path.exists():
                h.update(f"{job['out']}{suffix}\n".encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    value = ordered[int(rank) - 1]
    return value, sum(1 for v in ordered if v > value)


def check_outputs(jobs, records, seed):
    import oracle
    failures, known, findings = 0, {}, []
    decided = undecided = 0
    for i, (job, rec) in enumerate(zip(jobs, records)):
        out = oracle.check_job(job, rec, seed, i)
        decided += out.decided
        undecided += out.undecided
        if out.problems:
            failures += 1
            if out.known is not None:
                known[out.known] = known.get(out.known, 0) + 1
            else:
                findings.append({"job": i, "argv": " ".join(job["argv"])[:300],
                                 "problems": [p for p, _ in out.problems][:5]})
    return failures, known, findings, decided, undecided


def env_block() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def say(text: str) -> None:
    print(text, flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "idealconv" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from the root of an idealconv "
                         "checkout (src/idealconv not found)\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import jobs as jobmod
    if args.workload not in jobmod.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(jobmod.WORKLOADS)}\n")
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return run(args, jobmod)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def run(args, jobmod) -> int:
    outdir = str((WORK / "out").relative_to(ROOT))
    # traced, the run holds one plain and one traced pass of half the length
    seconds = args.seconds / 2 if args.trace else args.seconds
    jobs = jobmod.make_jobs(args.workload, args.seed, seconds, outdir)
    say(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs")
    say("env " + json.dumps(env_block()))

    if args.trace:
        plain = run_worker(jobs, "plain")
        digest_plain = output_digest(jobs)
        shutil.rmtree(WORK / "out", ignore_errors=True)
        TRACES.mkdir(exist_ok=True)
        spans = TRACES / f"{args.workload}-seed{args.seed}.spans.npz"
        result = run_worker(jobs, "traced", spans)
        say(f"spans written to {spans.relative_to(ROOT)}")
    else:
        # half the set-up starts before the jobs and half after, so one slow
        # phase of the machine does not set the median; the first start
        # (bytecode compile) is not counted
        setup = measure_setup(SETUP_RUNS // 2 + 1)[1:]
        result = run_worker(jobs, "plain")
        setup += measure_setup(SETUP_RUNS - len(setup))

    records = result["records"]
    digest = output_digest(jobs)
    failures, known, findings, decided, undecided = check_outputs(
        jobs, records, args.seed)
    n = len(jobs)
    say(f"digest sha256 {digest}")
    for name, count in sorted(known.items()):
        say(f"known failure {name}: {count} job(s)")
    for f in findings:
        say("FINDING " + json.dumps(f))
    correct = not findings

    if args.trace:
        import tracer
        if digest != digest_plain:
            say("tracing changed the outputs")
            correct = False
        metrics = tracer.per_layer_metrics(
            result["trace"], n / plain["elapsed"], n / result["elapsed"])
    else:
        wall = [r["seconds"] for r in records]
        times = reference_seconds(result)
        p90, above = percentile(times, 90)
        say(f"wall clock: jobs_per_s {n / sum(wall):.6g}, job_s.p50 "
            f"{statistics.median(wall):.6g}, job_s.p90 "
            f"{percentile(wall, 90)[0]:.6g}; host speed "
            f"{PROBE_NOMINAL / statistics.median(result['probes']):.4g} "
            f"of the reference")
        say(f"job_s.p90 from {n} samples, {above} above it; "
            f"fail_share {failures}/{n}; undecided_share "
            f"{undecided}/{decided + undecided}")
        metrics = {
            "jobs_per_s": (n / sum(times), "1/s"),
            "job_s.p50": (statistics.median(times), "s"),
            "job_s.p90": (p90, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
            "ok_share": (1 - failures / n, "ratio"),
            "decided_share": (decided / max(1, decided + undecided), "ratio"),
        }
    for name, (value, unit) in metrics.items():
        say(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
