"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload cell-grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance.  With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``op_p50_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer self times and counts, plus the
tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started (10 ms resolution), or 0 where
    the start time cannot be read."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


#: perf_counter() reading at process start.
PROCESS_START = time.perf_counter() - _process_age()

#: Thread pools are pinned before numpy loads: one process, one thread
#: of numeric work (mpsim ranks aside), so the host's scheduler does not
#: shape the figures.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The program's own knobs (chunk sizes, tracing, caches) stay at defaults.
for _var in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cell-grid", "sweep-grid", "sweep-paper", "execute-paper")
#: Set-ups per run; ``setup_s`` is the median import time (this process
#: and SETUP_REPEATS - 1 fresh ones started with IMPORT_PROBE) plus the
#: median time of the workload's set-up stages, run SETUP_REPEATS times.
SETUP_REPEATS = 3
IMPORT_PROBE = "--import-probe"
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_sha() -> str | None:
    """HEAD of the checkout holding the benchmark; None when that is not a
    git work tree (git is kept from searching the directories above)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _provenance(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - build info is best effort
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else None


def _import_program() -> bool:
    """Import everything a run needs; False when the program's sources
    are not the ones beside this benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401

    import repro
    import tracer  # noqa: F401
    import workloads  # noqa: F401

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"error: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def _probe_import_seconds() -> float:
    """Process start to imports done, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), IMPORT_PROBE],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2
    import_times = [time.perf_counter() - PROCESS_START]
    import numpy as np

    import workloads
    from tracer import COUNTS, LAYERS, Tracer

    import_times += [_probe_import_seconds() for _ in range(SETUP_REPEATS - 1)]

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer(callers=("workloads",)) if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    if tracer is not None:
        tracer.restore()
        tracer.phase = "op"

    # Whole operations until the run length is used up; a traced run
    # alternates untraced and traced operations to measure the overhead.
    plain, traced, summaries, errors = [], [], [], []
    started = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(summaries) % 2 == 1
        if use_trace:
            tracer.install()
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = workload.op(state)
            elapsed = time.perf_counter() - t0
            summary = workload.summarize(state, out)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
            errors.append(f"operation {len(summaries)}: {exc!r}")
            summaries.append(None)
        else:
            (traced if use_trace else plain).append(elapsed)
            summaries.append(summary)
        finally:
            if use_trace:
                tracer.restore()
        out = summary = None
        done = time.perf_counter() - started >= args.seconds
        if done and (tracer is None or len(summaries) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [[] for _ in summaries]
    if any(s is not None for s in summaries):
        try:
            problems = workload.verify(state, summaries)
        except Exception as exc:  # noqa: BLE001 - outputs the checks cannot read are wrong
            problems = [[f"check raised {exc!r}"] if s is not None else [] for s in summaries]
    failed = sum(1 for s, p in zip(summaries, problems) if s is None or p)
    correct = not any(problems)
    for i, p in enumerate(problems):
        for line in p:
            print(f"check failed, operation {i}: {line}", file=sys.stderr)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)

    if tracer is None:
        values = {"setup_s": setup_s, "op_p50_s": _median(plain), "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        units = {layer[2]: "s" for layer in LAYERS}
        units.update(COUNTS)
        values = tracer.layer_metrics(sorted(units), ops=max(len(traced), 1),
                                      setups=SETUP_REPEATS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        overhead = None
        if plain and traced:
            overhead = _median(traced) - _median(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"calls": tracer.calls(), "spans": tracer.dump()}, fh)
        for name in sorted(metrics):
            print(f"{name:28s} {metrics[name]['value']!s:>24} {metrics[name]['unit']}",
                  file=sys.stderr)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_times_s": setup_times,
        "import_times_s": import_times, "op_times_s": plain,
        "traced_op_times_s": traced,
    }
    info.update(_provenance(np))
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct and plain + traced else 1


if __name__ == "__main__":
    if sys.argv[1:] == [IMPORT_PROBE]:
        if not _import_program():
            sys.exit(2)
        print(_process_age())
        sys.exit(0)
    sys.exit(main())
