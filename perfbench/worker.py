"""One workload in a fresh interpreter; run.py starts this as a child.

    worker.py setup WORKLOAD
        time importing heckeord and building the workload's contexts,
        rings and base matrices
    worker.py run WORKLOAD --seed S --size full --seconds T [--passes K]
                  [--trace] [--spans FILE] --reference FILE
        run rounds of the workload until T seconds of ops have been
        measured (or exactly K passes), then check every result

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import types

import calibrate
import tracing
import workloads


def import_package() -> types.SimpleNamespace:
    """Import heckeord from ./src of the checkout, and only from there."""
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, src)
    import heckeord
    import heckeord.cli  # noqa: F401

    if not os.path.realpath(heckeord.__file__).startswith(src + os.sep):
        raise SystemExit(f"heckeord was imported from {heckeord.__file__}, not from {src}")
    return types.SimpleNamespace(**{name: sys.modules[f"heckeord.{name}"] for name in tracing.WRAPPED})


def cmd_setup(args) -> dict:
    speed = calibrate.Calibrated()
    speed.take()
    t0 = time.perf_counter()
    hk = import_package()
    workloads.setup(hk, args.workload)
    t1 = time.perf_counter()
    speed.stop()
    return {"setup_s": speed.scaled(t0, t1), "raw_setup_s": t1 - t0}


def cmd_run(args) -> dict:
    hk = import_package()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    speed = calibrate.Calibrated()
    speed.start()
    contexts = workloads.setup(hk, args.workload)
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    rounds = workloads.build(hk, args.workload, args.seed, args.size, contexts, reference)
    want = workloads.expected(reference, args.workload, args.seed, args.size, rounds)
    first: dict[str, str] = {}

    def verify(task, result) -> str | None:
        summary = task.summary(result)
        if task.key in want:
            return None if summary == want[task.key] else f"got {summary}, recorded {want[task.key]}"
        if task.key in first:
            return None if summary == first[task.key] else f"got {summary}, first run gave {first[task.key]}"
        first[task.key] = summary
        if task.check is None:
            return "no recorded result for this task"
        return task.check(result)

    timed, failures = [], []
    attempted = failed = done_rounds = op_id = 0
    busy = 0.0
    clock = time.perf_counter
    while True:
        for task in rounds[done_rounds % len(rounds)]:
            if tracer is not None:
                tracer.op_id = op_id
            op_id += 1
            t0 = clock()
            try:
                result = task.call()
                error = None
            except Exception as exc:  # a raising op is a failed op; keep measuring
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            busy += t1 - t0
            attempted += task.weight
            timed.append((task.key, t0, t1, task.weight))
            if error is None:
                try:
                    error = verify(task, result)
                except Exception as exc:  # malformed output
                    error = f"unreadable result: {type(exc).__name__}: {exc}"
            if error is not None:
                failed += task.weight
                if len(failures) < 5:
                    failures.append(f"{task.key}: {error}")
        done_rounds += 1
        if args.passes:
            if done_rounds >= args.passes * len(rounds):
                break
        elif busy >= args.seconds:
            break
    speed.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_task: dict[str, list] = {}  # key -> [scaled seconds, ops, runs], summed over repeats
    for key, t0, t1, weight in timed:
        acc = per_task.setdefault(key, [0.0, 0, 0])
        acc[0] += speed.scaled(t0, t1)
        acc[1] += weight
        acc[2] += 1

    out = {
        "busy_s": sum(acc[0] for acc in per_task.values()),
        "raw_busy_s": busy,
        "probes": len(speed.values),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": done_rounds,
        "rounds_per_pass": len(rounds),
        "recorded": bool(want),
        "timed_calls": len(timed),
        "tasks": list(per_task.values()),
        "peak_rss_kb": rss_kb,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, speed.scaled)
        if args.spans:
            tracer.dump(args.spans)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=sorted(workloads.NS))
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("run")
    p.add_argument("workload", choices=sorted(workloads.NS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_run)
    args = parser.parse_args()
    print(json.dumps(args.func(args)))


if __name__ == "__main__":
    main()
