"""specbound benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn

Every operation is one in-process `specbound` command (closed loop, one
client) on inputs generated from --seed, and its output is checked. With
--trace 0 the operations repeat until S seconds have passed and the
end-to-end metrics are reported. Each operation's time is also divided by
the time of the workload's reference kernel (see workloads.py) run just
before and after it, which takes out the drift in the host's speed that
a shared machine shows between runs. With --trace 1 the benchmark alternates
untraced and traced passes over a fixed set of operations and reports
per-layer metrics per pass; the work counters must agree between passes.

The last line of standard output is the JSON result. Everything else a
run leaves (result.json with the machine block, spans.jsonl, the inputs
and reports) is under perfbench/runs/. The exit code is 0 only when every
operation passed its check and, in a traced run, the work counters agreed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_output, report_files

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
WORKLOAD_NAMES = ("verify-default", "bound-pair-large", "bound-near-radius")
# One BLAS thread: on a small shared host, threaded BLAS adds spread, not speed.
BENCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# Share of each operation's time spent on the reference kernel after it.
REFERENCE_SHARE = 0.15
END_TO_END_UNITS = {"op_p50_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def prepare_env() -> dict:
    """Detach the process from the caller's shell; return what was found.

    Must run before numpy is imported, which reads the BLAS variables.
    """
    found = {k: os.environ.get(k) for k in ("SPECBOUND_THREADS", *BENCH_ENV)}
    os.environ.pop("SPECBOUND_THREADS", None)
    os.environ.update(BENCH_ENV)
    if not (SRC / "specbound" / "__init__.py").is_file():
        raise SystemExit(f"error: specbound sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    return found


def loadavg_1m():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_block(seed: int, env_found: dict, load_start) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env_found": env_found,
        "env_set": BENCH_ENV,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": loadavg_1m(),
    }


class Runner:
    """Runs operations in-process and checks each one's output."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def run(self, i: int) -> float:
        """Operation i (mod the list); returns its wall time in seconds."""
        key = i % len(self.ops)
        op = self.ops[key]
        for path in report_files(op.kind, op.out):
            path.unlink(missing_ok=True)  # a stale report must not pass the check
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv))  # looked up now: may be traced
            except Exception as exc:  # a crash is a counted failure, not an abort
                rc = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if isinstance(rc, str):
            problems, digest = [rc], ""
        else:
            problems, digest = check_output(op.kind, rc, op.out)
        first = self.digests.setdefault(key, digest)
        if digest and digest != first:
            problems.append("report differs from an earlier run on the same input")
        if problems:
            tail = sink.getvalue().strip().splitlines()[-3:]
            self.failures.append(
                f"{' '.join(op.argv)}: {'; '.join(problems + tail)}"
            )
        return elapsed

    def report_digest(self) -> str:
        """Digest over every input's report, for information only."""
        joined = "".join(self.digests[k] for k in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def tail_percentile(latencies: list[float]):
    """(q, value): the highest percentile up to 90 with >= 10 samples beyond."""
    n = len(latencies)
    q = min(90, math.floor(100 * (1 - 10 / n)))
    if q < 50:
        return None
    return q, statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def reference_s(kernel, budget: float) -> float:
    """Mean time of the reference kernel, run until `budget` seconds are spent."""
    times = []
    while not times or sum(times) < budget:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def measure(runner: Runner, seconds: float, kernel):
    """Latencies, and each over the mean reference time just before and after."""
    latencies, relative = [], []
    before = reference_s(kernel, 0.0)
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        latency = runner.run(len(latencies))
        after = reference_s(kernel, REFERENCE_SHARE * latency)
        latencies.append(latency)
        relative.append(2 * latency / (before + after))
        before = after
    return latencies, relative


def fresh_import_s() -> float:
    """Seconds for a new interpreter to start and import numpy and the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, specbound.cli"],
                   check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return time.perf_counter() - start


def measure_traced(runner: Runner, seconds: float, pass_size, spans_path: Path):
    from tracer import Tracer, combine

    pass_ops = range(pass_size or len(runner.ops))
    per_pass, traced_s, untraced_s = [], [], []
    first_tracer = None
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        untraced_s.append(sum(runner.run(i) for i in pass_ops))
        with Tracer() as tracer:
            traced_s.append(sum(runner.run(i) for i in pass_ops))
        per_pass.append(tracer.metrics())
        first_tracer = first_tracer or tracer
    first_tracer.write_spans(spans_path)
    metrics, counter_problems = combine(per_pass, traced_s, untraced_s)
    return metrics, len(per_pass), counter_problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        env_found: dict, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the result with its human-readable lines."""
    load_start = loadavg_1m()
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"

    import numpy as np

    from specbound import cli
    from workloads import WORKLOADS
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: specbound imported from {cli.__file__}, not {SRC}")

    import_s = statistics.median(fresh_import_s() for _ in range(SETUP_REPEATS))
    build, pass_size, reference = WORKLOADS[workload]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs.mkdir(parents=True, exist_ok=True)
        ops = build(np.random.default_rng(seed), inputs, **(sizes or {}))
        gen_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(gen_s)

    runner = Runner(cli, ops)
    counter_problems = []  # make the run incorrect, but are not operations
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"{len(ops)} inputs"]
    if trace:
        from tracer import METRICS

        metrics, passes, counter_problems = measure_traced(
            runner, seconds, pass_size, run_dir / "spans.jsonl")
        units = {name: unit for name, (unit, _) in METRICS.items()}
        lines.append(f"per pass of {pass_size or len(ops)} operations, "
                     f"{passes} traced passes (times: median over passes)")
        latencies, relative = [], []
    else:
        latencies, relative = measure(runner, seconds, reference())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {"op_p50_ref": statistics.median(relative),
                   "setup_s": setup_s, "peak_rss_mb": rss_mb}
        units = END_TO_END_UNITS
        n = len(latencies)
        p50 = statistics.median(latencies)
        if workload == "verify-default":
            lines.append(f"  verify_s       {p50:.4f} s   (median of {n} operations)")
        else:
            lines.append(f"  bound_p50_ms   {p50 * 1e3:.4f} ms  (median of {n} operations)")
            tail = tail_percentile(latencies)
            if tail:
                lines.append(f"  bound_p{tail[0]}_ms   {tail[1] * 1e3:.4f} ms  "
                             f"(p{tail[0]} of {n}, highest with >= 10 beyond)")
        lines.append(f"  op_p50_ref     {metrics['op_p50_ref']:.4f} ref "
                     f"(median over {n} operations of time / reference kernel time)")
        lines.append(f"  setup_s        {setup_s:.4f} s   (imports + median of "
                     f"{SETUP_REPEATS} input set-ups)")
        lines.append(f"  import_s       {import_s:.4f} s   (median of {SETUP_REPEATS} "
                     f"new interpreters importing numpy and specbound.cli, "
                     f"part of setup_s)")
        lines.append(f"  peak_rss_mb    {rss_mb:.2f} MB")
    attempted, failed = runner.attempted, len(runner.failures)
    lines.append(f"  failed_frac    {failed / attempted:.4f} ratio "
                 f"({failed} of {attempted} operations)")
    if trace:
        lines += [f"  {name:<40} {value:.6g} {units[name]}"
                  for name, value in metrics.items()]
    lines += [f"FAILED {msg}" for msg in runner.failures[:5] + counter_problems]
    lines.append(f"report digest {runner.report_digest()} (information only)")

    result = {
        "correct": not runner.failures and not counter_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    machine = machine_block(seed, env_found, load_start)
    (run_dir / "result.json").write_text(json.dumps({
        "workload": workload, "trace": trace, "seconds": seconds,
        "machine": machine, "result": result, "latencies_s": latencies,
        "relative_ref": relative,
        "setup_gen_s": gen_s, "import_s": import_s,
        "report_digest": runner.report_digest(), "failures": runner.failures,
        "counter_problems": counter_problems,
    }, indent=1) + "\n", encoding="utf-8")
    lines.append("machine " + json.dumps(machine, sort_keys=True))
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    env_found = prepare_env()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), env_found)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
