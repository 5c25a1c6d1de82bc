"""The heckeord benchmark: one workload per call, measured in fresh child
processes, from the root of a checkout.

    python3 perfbench/run.py --workload sign_cli --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --summarize

--trace 0 measures the end-to-end metrics; --trace 1 runs one pass
untraced and two passes traced (all with the same inputs) and reports the
per-layer metrics.  BENCHMARK.json names the metrics and their units.
The load is a closed loop with one client: one process, one thread, each
op issued when the previous one returns.

The last line of standard output is the result; the line before it
holds the run's details (sample counts, tail percentile, fail ratio,
machine).  Every run is also appended to perfbench/out/runs.jsonl;
--summarize prints the median and quartiles of each metric over those
runs.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("ball_suite", "sign_cli", "decide_long", "orders")
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[:2]} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[:2]} failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_op_quantiles(tasks) -> dict:
    """Median and tail of per-op latency over the distinct ops of a run.

    A task of w ops that ran k times for t seconds in all counts as w ops
    of t / (k w) seconds each: an input that came round again counts
    once, with its mean time.
    """
    points = sorted((elapsed / ops, ops // runs) for elapsed, ops, runs in tasks)
    total = sum(w for _, w in points)

    def at_rank(rank: int) -> float:
        seen = 0
        for value, w in points:
            seen += w
            if rank < seen:
                return value
        return points[-1][0]

    if total % 2:
        p50 = at_rank(total // 2)
    else:
        p50 = (at_rank(total // 2 - 1) + at_rank(total // 2)) / 2
    if total >= 11:  # the highest percentile with at least 10 ops beyond it
        tail, pct = at_rank(total - 11), 100.0 * (total - 10) / total
    else:
        tail, pct = points[-1][0], 100.0
    return {"p50_s": p50, "tail_s": tail, "tail_percentile": pct, "ops": total, "distinct_tasks": len(tasks)}


def source_id(root: str) -> dict:
    """The commit when the checkout is a git work tree, and a digest of src."""
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    h = hashlib.sha256()
    src = os.path.join(root, "src", "heckeord")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def measure(args, deadline: float) -> tuple[dict, dict, int, int]:
    """End-to-end metrics from untraced children."""
    child(["setup", args.workload], deadline)  # compiles bytecode; not timed
    setups = [child(["setup", args.workload], deadline) for _ in range(SETUP_REPEATS)]
    run = child(
        ["run", args.workload, "--seed", str(args.seed), "--size", args.size,
         "--seconds", str(args.seconds), "--reference", args.reference],
        deadline,
    )
    q = per_op_quantiles(run["tasks"])
    completed = run["attempted"] - run["failed"]
    metrics = {
        "throughput_ops_s": completed / run["busy_s"],
        "latency_p50_ms": q["p50_s"] * 1e3,
        "latency_tail_ms": q["tail_s"] * 1e3,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    details = {
        "busy_s": run["busy_s"],
        "raw_busy_s": run["raw_busy_s"],
        "raw_throughput_ops_s": completed / run["raw_busy_s"],
        "probes": run["probes"],
        "rounds": run["rounds"],
        "rounds_per_pass": run["rounds_per_pass"],
        "distinct_ops": q["ops"],
        "timed_calls": run["timed_calls"],
        "distinct_tasks": q["distinct_tasks"],
        "tail_percentile": q["tail_percentile"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_samples_s": [s["raw_setup_s"] for s in setups],
        "recorded_seed": run["recorded"],
        "failures": run["failures"],
    }
    return metrics, details, run["attempted"], run["failed"]


def measure_traced(args, deadline: float) -> tuple[dict, dict, int, int]:
    """Per-layer metrics: one untraced pass, then two traced passes whose
    counts must agree exactly."""
    common = ["--seed", str(args.seed), "--size", args.size, "--passes", "1", "--reference", args.reference]
    plain = child(["run", args.workload, *common], deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{args.size}.tsv.gz")
    traced = child(["run", args.workload, *common, "--trace", "--spans", spans], deadline)
    again = child(["run", args.workload, *common, "--trace"], deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["busy_s"] - plain["busy_s"]
    # every metric but a time is a count or a ratio of counts
    unequal = sorted(k for k in metrics if not k.endswith("_s") and metrics[k] != again["layers"].get(k))
    details = {
        "untraced_pass_s": plain["busy_s"],
        "traced_pass_s": traced["busy_s"],
        "repeat_traced_pass_s": again["busy_s"],
        "counts_repeat": not unequal,
        "counts_differing": unequal,
        "spans_file": os.path.relpath(spans, os.getcwd()),
        "recorded_seed": traced["recorded"],
        "failures": traced["failures"] + plain["failures"] + again["failures"],
    }
    failed = max(plain["failed"], traced["failed"], again["failed"])
    return metrics, details, traced["attempted"], failed


def summarize() -> None:
    path = os.path.join(OUT_DIR, "runs.jsonl")
    groups = collections.defaultdict(lambda: collections.defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"], rec["size"], rec["seconds"])
            for name, value in rec["metrics"].items():
                groups[key][name].append(value)
    for key in sorted(groups):
        print("workload=%s trace=%d size=%s seconds=%g" % key)
        for name, values in groups[key].items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                q1 = q3 = spread = float("nan")
            print(f"  {name:40s} n={len(values):3d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few ops of each kind, for the smoke test")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                        help="recorded results to compare against")
    parser.add_argument("--summarize", action="store_true",
                        help="print median and quartiles of the runs recorded so far")
    args = parser.parse_args()
    if args.summarize:
        summarize()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "heckeord", "__init__.py")) or not os.path.isfile(spec_path):
        print("error: run from the root of a heckeord checkout (src/heckeord and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    args.reference = os.path.abspath(args.reference)

    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = os.getloadavg()
    try:
        if args.trace:
            values, details, attempted, failed = measure_traced(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, details, attempted, failed = measure(args, deadline)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = failed == 0 and details.get("counts_repeat", True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "fail_ratio": failed / attempted,
        **details,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        **source_id(root),
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
