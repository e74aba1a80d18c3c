"""Run one benchmark workload and print its metrics as one JSON line.

    python3 modembench/run.py --workload train-toy --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds `src/modem`. The run imports
the checkout's own `src/modem` (never an installed copy), sets up five
times (and, for restore-paper, trains its checkpoint once), runs
whole rounds until `--seconds` have passed, checks the outputs and prints,
as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
spans are recorded around every layer call and the metrics are the
per-layer ones, reduced from the spans of the timed rounds. The spans
themselves go to `modembench/_work/trace-<workload>-seed<n>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 5


def single_thread_blas() -> None:
    """One process and one compute thread: BLAS pools are pinned to a
    single thread, before numpy is imported. A second OpenBLAS thread left
    the wall time of a paper-width restore unchanged on a 2-CPU machine
    while using 60 % more CPU time."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t = time.perf_counter(); import modem.cli, modem.train; "
    "print(time.perf_counter() - t)")


def import_modem() -> float:
    """Import the checkout's modem package. Returns the median time a
    fresh interpreter takes to import it (numpy excluded), over SETUPS
    child processes, each waited for."""
    if not os.path.isfile(os.path.join(SRC, "modem", "__init__.py")):
        raise SystemExit(f"error: no modem package under {SRC}")
    times = []
    for _ in range(SETUPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout.split()[-1]))
    sys.path.insert(0, SRC)
    import modem.cli  # noqa: F401 - pulls in every layer
    import modem.train  # noqa: F401
    if not os.path.abspath(modem.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported modem from {modem.__file__}")
    return statistics.median(times)


def main(argv=None) -> int:
    single_thread_blas()
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    import_s = import_modem()

    import checks
    import tracer as tr
    import workloads

    work = os.path.join(HERE, "_work")
    workdir = os.path.join(work, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    tracer = tr.Tracer(enabled=bool(args.trace))
    probes = tr.Probes()
    instr = tr.Instrumentation(tracer, probes)
    instr.install()
    wl = workloads.Workload(workloads.SPECS[args.workload], args.seed, workdir,
                            tracer, probes)
    try:
        setup_times = []
        for k in range(SETUPS):
            tracer.op = f"setup:{k}"
            if os.path.isdir(workdir):
                shutil.rmtree(workdir)
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        wl.prepare()

        t_start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - t_start < args.seconds:
            probes.capture = r == 0
            wl.round(r)
            r += 1
        probes.capture = False

        tracer.op = "check"
        log = checks.CheckLog()
        wl.check(log)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        e2e = wl.metrics()
        e2e["setup_s"] = import_s + statistics.median(setup_times)
        e2e["peak_rss_mb"] = peak_mb
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in sorted(e2e.items())}
        if args.trace:
            # the traced run's own end-to-end figures go with the spans, so
            # the tracing overhead can be read against an untraced run
            tracer.dump(os.path.join(work, f"trace-{args.workload}"
                                           f"-seed{args.seed}.json"),
                        {"end_to_end_traced": metrics})
            metrics = tr.reduce_spans(tracer.spans, wl.timed_ops)
    finally:
        instr.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": log.correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


UNITS = {"setup_s": "s", "train_step_s": "s", "distill_step_s": "s",
         "restore_s": "s", "restore_mpix_per_s": "Mpx/s", "peak_rss_mb": "MB"}


if __name__ == "__main__":
    sys.exit(main())
