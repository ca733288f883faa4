"""Run one job list through ``idealconv.cli.main``, one job after another.

Usage: python3 perfbench/worker.py JOBS.json RESULT.json [--trace SPANS.npz]

This is the process whose time and memory the benchmark reports.  Each job is
``cli.main(argv + ["--out", prefix])``; anything that escapes it (including
``SystemExit``) is caught and recorded, never retried.  Nothing here raises
interpreter limits such as the int-to-str digit limit.  A host-speed probe
runs before every job and after the last, outside the job timings and the
elapsed time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def probe() -> float:
    """Time a fixed slice of interpreter, Fraction and numpy work that does
    not touch idealconv: the host's speed at this moment.  The faster of two
    back-to-back slices is kept."""
    import numpy as np
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        f = Fraction(0)
        for k in range(1, 30):
            f += Fraction(1, k)
        acc += int(np.cumsum(np.arange(1 << 14, dtype=np.int64) & 7)[-1])
        best = min(best, time.perf_counter() - t0)
    return best


def run(jobs: list[dict], tracer=None) -> dict:
    from idealconv import cli

    records = []
    probes = []             # probes[i] just before job i, the last after all
    probe_wall = 0.0
    t_start = time.perf_counter()
    for i, job in enumerate(jobs):
        t_p = time.perf_counter()
        probes.append(probe())
        probe_wall += time.perf_counter() - t_p
        argv = job["argv"] + ["--out", job["out"]]
        err = io.StringIO()
        rc, exc = None, None
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(err):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:          # the failure is the measurement
            exc = {"type": type(e).__name__, "detail": str(e)[:500]}
        t1 = time.perf_counter()
        records.append({"seconds": t1 - t0, "rc": rc, "exception": exc,
                        "stderr": err.getvalue()[-2000:]})
    elapsed = time.perf_counter() - t_start - probe_wall
    probes.append(probe())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"records": records, "elapsed": elapsed, "probes": probes,
            "peak_rss_mib": peak_kib / 1024.0}


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    jobs_file, result_file = sys.argv[1], sys.argv[2]
    spans_file = sys.argv[4] if sys.argv[3:4] == ["--trace"] else None
    jobs = json.loads(Path(jobs_file).read_text())
    tracer = None
    if spans_file is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = run(jobs, tracer)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(Path(spans_file))
    Path(result_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
