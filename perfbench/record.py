"""Write reference.json: every task's result summary, from the current code.

Run once from the root of a checkout of the commit whose outputs are the
reference (the seed commit of the benchmark):

    python3 perfbench/record.py

Before a result is written it is validated: sign results by the
package's matrix oracle and by modp's independent check, ball counts by
the oracle's identity count over the same ball, ball minima by oracle
equality with the known least elements, and dlike positivity by handle
reduction through the braid bridge.  Any failed validation aborts.
"""

from __future__ import annotations

import json
import os
import sys

import tracing
import worker
import workloads

RECORDED_SEEDS = tuple(range(11))
CLAIM_SEED = 9001  # never used while developing; for checking claims on unseen inputs


class RecordError(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise RecordError(what)


def record_signs(hk, workload, seed, contexts) -> str:
    rounds = workloads.build(hk, workload, seed, "full", contexts, {})
    words = hk.words
    summaries = []
    for task in (t for tasks in rounds for t in tasks):
        result = task.call()
        if workload == "sign_cli":  # the CLI has run the oracle check itself
            rc, out = result
            require(rc == 0 and json.loads(out)["oracle_checked"] is True, f"{task.key}: CLI oracle check")
        else:
            _, ctx, text = task.call.args
            word = words.parse_word(text)
            require(
                hk.oracle.oracle_is_identity(words.concat(words.invert(word), result.witness), ctx),
                f"{workload} seed {seed} {task.key}: oracle rejects the witness",
            )
        error = task.check(result)
        require(error is None, f"{workload} seed {seed} {task.key}: {error}")
        summaries.append(task.summary(result))
    return " ".join(summaries)


def record_ball(hk, size, contexts) -> dict:
    out = {}
    max_len = workloads.SIZES[size]["ball_len"]
    ball = [w for k in range(max_len + 1) for w in workloads.reduced_words(k)]
    for task, ctx in zip(workloads.build(hk, "ball_suite", 0, size, contexts, {})[0], contexts):
        report = task.call()
        require(report.ok, f"ball n={ctx.n}: suite violations")
        identities = sum(hk.oracle.oracle_is_identity(w, ctx) for w in ball)
        require(identities == report.counts["identity"], f"ball n={ctx.n}: oracle identity count")
        out[task.key] = task.summary(report)
    return out


def record_orders(hk, size, contexts, tracer) -> tuple[dict, dict]:
    words = hk.words
    known_minima = {"dd": "b", "dlike": "b^-1", "conj": "a^-1 b^-1 a"}
    results, weights = {}, {}
    for op_id, task in enumerate(workloads.build(hk, "orders", 0, size, contexts, {})[0]):
        first_span = len(tracer.start)
        tracer.op_id = op_id
        result = task.call()
        summary = task.summary(result)
        kind = task.key.split("/")[1]
        n = int(task.key.split("/")[0][1:])
        ctx = hk.context.group_context(n)
        if kind in known_minima:
            least = words.parse_word(known_minima[kind])
            require(hk.oracle.oracle_equal(result, least, ctx), f"orders {task.key}: minimum {summary}")
        elif kind == "convexity":
            require(not result.violations, f"orders {task.key}: convexity violations")
        else:
            require(" braid_disagree=0 " in summary, f"orders {task.key}: dlike and braid signs disagree")
        if kind != "braid":
            # ops: compare / is_positive calls made directly by the ball scan
            names = tracer.names
            weights[task.key] = sum(
                1
                for i in range(first_span, len(tracer.start))
                if tracer.parent[i] == first_span
                and names[tracer.name[i]] in ("orderings.compare", "orderings.is_positive")
            )
        results[task.key] = summary
    return results, weights


def main() -> int:
    hk = worker.import_package()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    previous = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    reference: dict = {
        "about": "Result summaries of every benchmark task at the seed commit; see perfbench/README.md.",
        "claim_seed": CLAIM_SEED,
    }
    try:
        for workload in ("sign_cli", "decide_long"):
            contexts = workloads.setup(hk, workload)
            reference[workload] = {}
            for seed in (*RECORDED_SEEDS, CLAIM_SEED):
                reference[workload][str(seed)] = record_signs(hk, workload, seed, contexts)
                print(f"{workload} seed {seed} recorded", file=sys.stderr)
        contexts = workloads.setup(hk, "ball_suite")
        reference["ball_suite"] = {size: record_ball(hk, size, contexts) for size in workloads.SIZES}
        tracer = tracing.Tracer()  # counts each ball scan's ops
        tracing.install(tracer)
        contexts = workloads.setup(hk, "orders")
        reference["orders"], reference["orders_weights"] = {}, {}
        for size in workloads.SIZES:
            reference["orders"][size], reference["orders_weights"][size] = record_orders(hk, size, contexts, tracer)
        # An op count is a unit of work fixed at the seed commit: keep it.
        reference["orders_weights"].update(previous.get("orders_weights", {}))
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
