"""Repository benchmark: virtual- and host-time metrics of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed_static [--seed 5] \
        [--seconds 40] [--trace 0|1] [--out perfbench_out]

A run executes the workload's instances (``workloads.py``), each in a fresh
process (``instance.py``), and repeats the whole set while another pass
fits in ``--seconds``.  It prints every metric with its unit, checks the
answers, writes a results file under ``--out`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

# repro-lint: disable-file=wall-clock -- benchmark code: host time is what it measures (the rule exempts bench code, which it recognises only under benchmarks/ and examples/)

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload, instance_seeds  # noqa: E402

INSTANCE = os.path.join(HERE, "instance.py")
#: one instance process may not outlive this many seconds
INSTANCE_TIMEOUT_S = 150
#: the subsystem benchmark whose arms the churn workloads reproduce
CHURN_REFERENCE = os.path.join(ROOT, "BENCH_churn.json")
CHURN_REFERENCE_SEED = 5

#: the end-to-end numbers every untraced run prints, with their units
HEADLINE = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("setup_wall_s", "s"),
    ("run_wall_s", "s"),
    ("host_us_per_event", "us"),
    ("peak_rss_mb", "MB"),
    ("vt_makespan_ms", "ms"),
    ("vt_latency_p50_ms", "ms"),
    ("vt_latency_p90_ms", "ms"),
    ("vt_response_p90_ms", "ms"),
    ("locality", "ratio"),
    ("failed_ratio", "ratio"),
)
HOST_METRICS = (
    "setup_s", "run_s", "setup_wall_s", "run_wall_s", "host_us_per_event", "peak_rss_mb"
)
#: virtual figures whose spread between seeds is too wide to gate; the
#: traced run reports them among the per-layer metrics instead
UNGATED_VIRTUAL = (
    "vt_makespan_ms", "vt_latency_p50_ms", "vt_latency_p90_ms", "vt_response_p90_ms"
)

Run = Dict[str, Any]


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found errors)."""


# ----------------------------------------------------------------------
# instance processes
# ----------------------------------------------------------------------
def _instance_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    # pin numpy's thread pools: one instance, one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.setdefault("REPRO_SCALE", "small")
    return env


def run_instance(
    workload: str, seed: int, traced: bool = False, spans: Optional[str] = None
) -> Run:
    cmd = [sys.executable, INSTANCE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_instance_env(), capture_output=True, text=True,
            timeout=INSTANCE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} seed {seed}: instance timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} seed {seed}: instance exited {proc.returncode}\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(make_pass: Callable[[], List[Run]], seconds: float) -> List[List[Run]]:
    """Run passes until another one would end past ``seconds`` (at least one)."""
    passes: List[List[Run]] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(make_pass())
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            return passes


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _p90(values: List[float]) -> float:
    """90th percentile, interpolated linearly (numpy's default method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _quartiles(values: List[float]) -> List[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def end_to_end(runs: List[Run], traced: bool = False) -> Dict[str, Any]:
    """End-to-end metrics of a set of instance runs.

    Host figures are medians over the runs, except ``run_s``: it is the
    mean, because in reference seconds its runs differ by their instance's
    work, not by the host's speed, and a mean evens out the instance mix
    better.  Traced runs have no host figures.  Virtual figures pool the
    queries of every distinct instance; repeats of an instance are
    identical (which :func:`problems` checks), so each counts once.
    """
    distinct = list({r["seed"]: r for r in runs}.values())
    latencies = [x for r in distinct for x in r["latencies_ms"]]
    attempted = sum(r["submitted"] for r in runs)
    host = {} if traced else {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "run_s": statistics.fmean(r["run_s"] for r in runs),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in runs),
        "run_wall_s": statistics.median(r["run_wall_s"] for r in runs),
        "host_us_per_event": statistics.median(
            1e6 * r["run_s"] / r["events"] for r in runs
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return {
        **host,
        "vt_makespan_ms": statistics.fmean(r["makespan_ms"] for r in distinct),
        "vt_latency_p50_ms": statistics.median(latencies),
        "vt_latency_p90_ms": _p90(latencies),
        "vt_response_p90_ms": _p90([x for r in distinct for x in r["responses_ms"]]),
        "locality": statistics.fmean(x for r in distinct for x in r["localities"]),
        "failed_ratio": sum(r["failed"] for r in runs) / attempted,
    }


def per_layer(traced: List[Run], plain: List[Run]) -> Dict[str, float]:
    """Per-layer metrics: the mean over traced instance runs, plus the
    ungated virtual figures and the tracing overhead."""
    out = {
        name: statistics.fmean(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    e2e = end_to_end(traced, traced=True)
    for name in UNGATED_VIRTUAL:
        out[name] = e2e[name]
    # plain runs are all of the first instance: compare like with like
    first = [r for r in traced if r["seed"] == plain[0]["seed"]]
    out["trace.overhead_ratio"] = statistics.median(
        r["run_wall_s"] for r in first
    ) / statistics.median(r["run_wall_s"] for r in plain)
    return out


def problems(workload: Workload, runs: List[Run], traced: bool) -> List[str]:
    """Everything that makes the run's outputs incorrect."""
    found = [f"seed {r['seed']}: {f}" for r in runs for f in r["failures"]]
    prints: Dict[int, set] = {}
    for r in runs:
        prints.setdefault(r["seed"], set()).add(r["fingerprint"])
    for seed, digests in sorted(prints.items()):
        if len(digests) > 1:
            what = "traced and untraced runs" if traced else "repeated runs"
            found.append(f"seed {seed}: {what} differ in virtual results")
    if workload.churn_reference and runs[0]["seed"] == CHURN_REFERENCE_SEED:
        found += churn_cross_check(workload.churn_reference, runs[0])
    return found


def churn_cross_check(arm: str, run: Run) -> List[str]:
    """The seed-5 churn instance must reproduce the subsystem benchmark."""
    if os.environ.get("REPRO_SCALE", "small") != "small":
        return []
    with open(CHURN_REFERENCE) as fh:
        want = json.load(fh)[arm]
    got = {
        "makespan": round(run["makespan_ms"] / 1e3, 6),
        "mean_locality": round(statistics.fmean(run["localities"]), 4),
        "repartitions": run["repartitions"],
        "churn_epochs": run["churn_epochs"],
    }
    return [
        f"churn cross-check: {key} {value} != {want[key]} ({arm} arm of "
        "BENCH_churn.json)"
        for key, value in got.items()
        if value != want[key]
    ]


# ----------------------------------------------------------------------
# provenance and reporting
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` without a git process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "scale": os.environ.get("REPRO_SCALE", "small"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_end_to_end(e2e: Dict[str, Any], runs: List[Run], traced: bool) -> None:
    queries = sum(len(r["latencies_ms"]) for r in {r["seed"]: r for r in runs}.values())
    print(
        f"end-to-end: {len(runs)} instance runs, {queries} queries pooled; "
        "host figures are medians (run_s: the mean) [q1, q3] over runs; "
        "setup_s and run_s in reference seconds"
    )
    for name, unit in HEADLINE:
        if traced and name in HOST_METRICS:
            continue  # traced host times are not end-to-end figures
        line = f"  {name:<20s} {e2e[name]:>14.6f} {unit}"
        if name in HOST_METRICS and name != "host_us_per_event":
            q1, q3 = _quartiles([r[name] for r in runs])
            line += f"   [{q1:.4f}, {q3:.4f}]"
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench_out"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    seeds = instance_seeds(workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    info = provenance(args)
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")

    spans = f"{stem}.spans.json"
    if args.trace:
        # one untraced run of the first instance, for the identity check and
        # the tracing overhead; the spans of the first instance go to a file
        def make_pass() -> List[Run]:
            return [run_instance(workload.name, seeds[0])] + [
                run_instance(workload.name, s, True, spans if s == seeds[0] else None)
                for s in seeds
            ]
    else:
        def make_pass() -> List[Run]:
            return [run_instance(workload.name, s) for s in seeds]
    try:
        passes = run_passes(make_pass, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [r for p in passes for r in p]
    measured = [r for p in passes for r in (p[1:] if args.trace else p)]
    e2e = end_to_end(measured, traced=bool(args.trace))
    found = problems(workload, runs, traced=bool(args.trace))
    print(f"instance seeds {seeds}, {len(passes)} pass(es)")
    print_end_to_end(e2e, measured, traced=bool(args.trace))
    if args.trace:
        values = per_layer(measured, [p[0] for p in passes])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("per-layer: mean over traced instance runs")
        for name, value in values.items():
            print(f"  {name:<36s} {value:>16.6f} {units.get(name, '')}")
        print(f"spans of seed {seeds[0]}: {spans} (open in https://ui.perfetto.dev)")
        chosen = spec["per_layer"]
    else:
        values = e2e
        chosen = spec["end_to_end"]
    for problem in found:
        print(f"INCORRECT: {problem}")

    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": not found and failed == 0,
        "attempted": sum(r["submitted"] for r in runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen
        },
    }
    with open(stem + ".json", "w") as fh:
        json.dump(
            {"provenance": info, "result": result, "problems": found,
             "end_to_end": e2e, "passes": len(passes),
             "runs": [
                 {k: r[k] for k in (
                     "seed", "setup_s", "run_s", "setup_wall_s", "run_wall_s",
                     "events", "peak_rss_mb",
                 )}
                 for r in runs
             ]},
            fh, indent=2, sort_keys=True,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
