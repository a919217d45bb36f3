"""multishape benchmark: one workload per invocation.

    python3 perfbench/run.py --workload segment_default --seed 7 \
        --seconds 25 --trace 0

Run it from the repository root; it imports ``multishape`` from ``src/``
and writes only under ``.perfbench_work/``, which it removes on exit.

With ``--trace 0`` it sets up the workload three times (``setup_s`` is the
median), then sends requests in a closed loop with one client, in whole
rounds (one pass over the scene pool, one learn, one CLI pipeline) until
``--seconds`` seconds have passed, and reports the end-to-end metrics named
in ``BENCHMARK.json``.  With ``--trace 1`` it runs a fixed request list twice,
first plain and then with every module's entry points wrapped, and reports
the per-layer metrics of the traced pass plus the tracing overhead (traced
minus plain seconds for the same requests).

Every output is checked; a request that raises or fails a check counts in
``failed``.  The last stdout line is the result JSON; the line before it,
``perfbench-detail {...}``, holds the environment and workload-specific
figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3
WORKDIR = ".perfbench_work"


def _load_json(path, default=None):
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment():
    """Machine, interpreter and BLAS facts that the numbers depend on."""
    import ctypes
    import glob
    import platform

    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError):
        pass
    # OpenBLAS's own thread count, when numpy ships a bundled OpenBLAS
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas["threads"] = int(getter())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timing_summary(times):
    """Median, tail and rate of the request times.

    The tail is the highest percentile with at least ten requests beyond
    it.  With 20 requests or fewer that percentile is at or below the
    median, so the maximum is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n > 20:
        tail, tail_label = ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    else:
        tail, tail_label = ordered[-1], "max"
    return {
        "count": n,
        "p50": statistics.median(ordered),
        "tail": tail,
        "tail_percentile": tail_label,
        "per_s": n / sum(ordered),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Outcome:
    """Attempted/failed counts and the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)


def one_request(workload, key, outcome, checking):
    """Run and check one request; returns its seconds."""
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        output = workload.run(key)
    except Exception:  # a failed request is counted, not fatal
        elapsed = time.perf_counter() - start
        outcome.fail(f"request {key}: {traceback.format_exc(limit=3)}")
        return elapsed
    elapsed = time.perf_counter() - start
    with checking():
        try:
            problems = workload.check(key, output)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
    if problems:
        outcome.fail(f"request {key}: {'; '.join(problems)}")
    return elapsed


def finish(workload, outcome):
    for problem in workload.finish():
        outcome.fail(problem)


def measure(workload, seconds, outcome):
    """Set up SETUP_REPS times, then a closed loop of whole rounds until
    ``seconds`` have passed."""
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    times = []
    requests = workload.ops()
    start = time.perf_counter()
    # stop only between rounds, so every run measures whole passes
    while time.perf_counter() - start < seconds:
        for _ in range(workload.ROUND):
            times.append(one_request(workload, next(requests), outcome,
                                     contextlib.nullcontext))
    finish(workload, outcome)
    summary = timing_summary(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": summary["per_s"],
        "op_s_p50": summary["p50"],
        "op_s_tail": summary["tail"],
        "mean_dsc": workload.quality(),
    }
    detail = {"setup_s_all": setup_times, "timing": summary,
              "error_rate": outcome.failed / max(outcome.attempted, 1)}
    return values, detail


def measure_traced(workload, outcome):
    """Plain pass, then traced pass, over the same fixed request list."""
    import tracing

    workload.setup()
    requests = workload.ops()
    keys = [next(requests) for _ in range(workload.TRACE_OPS)]
    tracer = tracing.Tracer()
    plain = sum(one_request(workload, key, outcome, tracer.paused)
                for key in keys)
    plain_cli = {name: sum(v) for name, v in getattr(
        workload, "command_times", {}).items()}
    diffs_before = workload.fingerprint_diffs
    if workload.in_process:
        tracer.install()
    else:
        workload.trace = True
    try:
        traced = sum(one_request(workload, key, outcome, tracer.paused)
                     for key in keys)
    finally:
        tracer.uninstall()
    finish(workload, outcome)
    per_command = {}
    for name, doc in getattr(workload, "trace_docs", []):
        tracer.merge(doc)
        per_command[name] = tracing.top_self_times(doc)

    values = tracing.layer_metrics(tracer)
    values["evolution.fingerprint_diffs"] = (workload.fingerprint_diffs
                                             - diffs_before)
    values["trace_overhead_s"] = traced - plain
    for name in ("generate", "train", "evaluate"):
        values[f"cli.{name}.wall_s"] = plain_cli.get(name, 0.0)
    evolves = values["evolution.evolve.n"]
    expected = getattr(workload, "EVOLVES_PER_OP", None)
    if expected is not None and evolves != expected * len(keys):
        outcome.fail(f"traced {evolves} evolves for {len(keys)} requests")
    detail = {"requests": len(keys), "plain_s": plain, "traced_s": traced,
              "top_self_s": tracing.top_self_times(tracer.export(), 12),
              "top_self_s_per_command": per_command,
              "not_traced": tracer.missing}
    return values, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec = _load_json(os.path.join(root, "BENCHMARK.json"))
    if spec is None or not os.path.isfile(
            os.path.join(src, "multishape", "__init__.py")):
        print("perfbench: run from the repository root (needs "
              "BENCHMARK.json and src/multishape)", file=sys.stderr)
        return 2
    # the variable overrides the generator seed in RunConfig; clear it so
    # the pinned inputs cannot be swapped from outside
    os.environ.pop("MULTISHAPE_SEED", None)
    sys.path.insert(0, src)
    import multishape

    if not os.path.abspath(multishape.__file__).startswith(src + os.sep):
        print(f"perfbench: imported multishape from {multishape.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(root, WORKDIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    reference = _load_json(os.path.join(HERE, "reference.json"), {})
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                  reference)
    outcome = Outcome()
    try:
        if args.trace:
            values, detail = measure_traced(workload, outcome)
        else:
            values, detail = measure(workload, args.seconds, outcome)
    finally:
        shutil.rmtree(os.path.join(root, WORKDIR), ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=environment(), problems=outcome.problems,
                  **workload.details())
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
