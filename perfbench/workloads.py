"""The four workloads: inputs made from the seed, the timed calls, and
how each result is summarised and checked.

A workload is a pass: a list of rounds, each a list of tasks.  A task is
one timed call into the package and carries a weight, the number of ops
it stands for.  sign_cli and decide_long tasks are single ops.  A
ball_suite task is one suite call (one op per ball word examined); an
orders task is one ball scan (one op per compare or is_positive call it
makes at the seed commit, taken from the reference record) or one ball
shell of braid cross-checks (one op per word).  Every round holds each
kind of task once, so any whole number of rounds has the same mix.

Each result is reduced to a short summary string outside the timed
call.  The reference record (reference.json) holds the summaries the
seed commit produced; where it has no entry for a seed, the summary is
checked by modp's independent sign check instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import random
from collections.abc import Callable

import modp

NS = {
    "ball_suite": (1, 2, 3, 5),
    "sign_cli": (2, 7, 31, 63),
    "decide_long": (2, 3, 7),
    "orders": (2, 3, 7),
}

# Rounds per pass: sign_cli rarely repeats an op within a run; decide_long
# repeats each about 15 times, so every op's mean time is steady.
SIZES = {
    "full": {"ball_len": 8, "sign_rounds": 24, "decide_rounds": 24, "radius": 6, "braid_radius": 7},
    "tiny": {"ball_len": 4, "sign_rounds": 1, "decide_rounds": 1, "radius": 3, "braid_radius": 3},
}

SIGN_CLI_SYLLABLES = (20, 80, 320)
DECIDE_SYLLABLES = (320, 640, 1280)
B_POWER_RANGE = (1000, 5000)  # t in b^-t, stratified over the rounds of a pass
EXPONENTS = (-3, -2, -1, 1, 2, 3)


@dataclasses.dataclass
class Task:
    key: str
    weight: int
    call: Callable[[], object]
    summary: Callable[[object], str]
    check: Callable[[object], str | None] | None = None  # used when the record has no entry


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:6]


def fmt(word) -> str:
    """Word text in the package's syntax, written independently of it."""
    if not word:
        return "1"
    return " ".join("ab"[g] + ("" if e == 1 else f"^{e}") for g, e in word)


def random_word(rng: random.Random, syllables: int) -> str:
    """Mixed-sign, freely reduced: generators alternate, exponents in +-1..3."""
    gen = rng.randrange(2)
    parts = []
    for _ in range(syllables):
        parts.append(fmt([(gen, rng.choice(EXPONENTS))]))
        gen ^= 1
    return " ".join(parts)


def reduced_words(length: int) -> list[tuple]:
    """All freely reduced words with exactly `length` letters, as syllables."""
    words = [()]
    for _ in range(length):
        longer = []
        for w in words:
            for gen, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
                if w and w[-1][0] == gen:
                    if (w[-1][1] > 0) == (sign > 0):
                        longer.append(w[:-1] + ((gen, w[-1][1] + sign),))
                else:
                    longer.append(w + ((gen, sign),))
        words = longer
    return words


def ball_size(max_len: int) -> int:
    return 1 + sum(4 * 3 ** (k - 1) for k in range(1, max_len + 1))


def setup(hk, workload: str) -> list:
    """What a run pays before its first op: contexts, rings, base matrices."""
    contexts = []
    for n in NS[workload]:
        ctx = hk.context.group_context(n)
        hk.context.ring_of(ctx)
        hk.oracle.rho(hk.words.parse_word("a b"), ctx)
        contexts.append(ctx)
    return contexts


# --- sign_cli ------------------------------------------------------------


def _run_cli(hk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hk.cli.main(argv)
    return rc, out.getvalue()


def _cli_summary(result) -> str:
    rc, out = result
    if rc != 0:
        return f"exit={rc}"
    payload = json.loads(out)
    if payload["oracle_checked"] is not True:
        return "oracle_checked=false"
    return payload["verdict"][0] + digest(payload["witness"])


def _cli_check(text, n, result) -> str | None:
    rc, out = result
    if rc != 0:
        return f"exit status {rc}"
    payload = json.loads(out)
    return modp.sign_error(modp.parse(text), payload["verdict"], modp.parse(payload["witness"]), n)


def _sign_cli(hk, seed, size, contexts, reference):
    rng = random.Random(f"sign_cli:{seed}")
    rounds = []
    for r in range(SIZES["full"]["sign_rounds"]):
        tasks = []
        for n in NS["sign_cli"]:
            for syllables in SIGN_CLI_SYLLABLES:
                text = random_word(rng, syllables)
                tasks.append(
                    Task(
                        f"{r}/n{n}/s{syllables}",
                        1,
                        functools.partial(_run_cli, hk, ["sign", "--n", str(n), text]),
                        _cli_summary,
                        functools.partial(_cli_check, text, n),
                    )
                )
        rounds.append(tasks)
    return rounds[: SIZES[size]["sign_rounds"]]


# --- decide_long ---------------------------------------------------------


def _decide(hk, ctx, text):
    return hk.cone.decide_sign(hk.words.parse_word(text), ctx)


def _sign_summary(result) -> str:
    return result.verdict.value[0] + digest(fmt(result.witness))


def _sign_check(text, n, result) -> str | None:
    return modp.sign_error(modp.parse(text), result.verdict.value, list(result.witness), n)


def _decide_long(hk, seed, size, contexts, reference):
    rng = random.Random(f"decide_long:{seed}")
    lo, hi = B_POWER_RANGE
    full_rounds = SIZES["full"]["decide_rounds"]
    rounds = []
    for r in range(full_rounds):
        tasks = []
        for n, ctx in zip(NS["decide_long"], contexts):
            texts = [(f"s{s}", random_word(rng, s)) for s in DECIDE_SYLLABLES]
            t = lo + int((r + rng.random()) * (hi - lo) / full_rounds)
            texts.append((f"b-{t}", f"{random_word(rng, 8)} b^-{t} {random_word(rng, 8)}"))
            for label, text in texts:
                tasks.append(
                    Task(
                        f"{r}/n{n}/{label}",
                        1,
                        functools.partial(_decide, hk, ctx, text),
                        _sign_summary,
                        functools.partial(_sign_check, text, n),
                    )
                )
        rounds.append(tasks)
    return rounds[: SIZES[size]["decide_rounds"]]


# --- ball_suite ----------------------------------------------------------


def _suite_summary(report) -> str:
    c = report.counts
    return (
        f"positive={c['positive']} negative={c['negative']} "
        f"identity={c['identity']} violations={len(report.violations)}"
    )


def _ball_suite(hk, seed, size, contexts, reference):
    max_len = SIZES[size]["ball_len"]
    suite = hk.suites.run_trichotomy_suite
    return [
        [
            Task(f"n{ctx.n}", ball_size(max_len), functools.partial(suite, ctx, max_len, jobs=1), _suite_summary)
            for ctx in contexts
        ]
    ]


# --- orders --------------------------------------------------------------


def _braid_shell(hk, ctx, spec, words):
    ord_, b3 = hk.orderings, hk.braid3
    return [(ord_.is_positive(w, spec, ctx), b3.is_d_positive(b3.ab_to_sigma(w))) for w in words]


def _braid_summary(pairs) -> str:
    bits = "".join("1" if d else "0" for d, _ in pairs)
    disagree = sum(d != s for d, s in pairs)
    return f"dlike_positive={bits.count('1')} braid_disagree={disagree} bits={digest(bits)}"


def _convexity_summary(report) -> str:
    return f"checked={report.checked} violations={len(report.violations)}"


def _orders(hk, seed, size, contexts, reference):
    radius = SIZES[size]["radius"]
    weights = reference.get("orders_weights", {}).get(size, {})
    ord_ = hk.orderings
    specs = (
        ("dd", ord_.DD()),
        ("dlike", ord_.DehornoyLike()),
        ("conj", ord_.Conjugated(ord_.DehornoyLike(), ((1, 1), (0, 1)))),  # conjugated by b a
    )
    tasks = []
    for ctx in contexts:
        for name, spec in specs:
            key = f"n{ctx.n}/{name}"
            call = functools.partial(ord_.smallest_positive_in_ball, spec, ctx, radius)
            tasks.append(Task(key, weights.get(key, 1), call, fmt))
        key = f"n{ctx.n}/convexity"
        call = functools.partial(ord_.convexity_check, ctx, radius)
        tasks.append(Task(key, weights.get(key, 1), call, _convexity_summary))
    ctx2 = contexts[NS["orders"].index(2)]
    for length in range(SIZES[size]["braid_radius"] + 1):
        words = reduced_words(length)
        call = functools.partial(_braid_shell, hk, ctx2, ord_.DehornoyLike(), words)
        tasks.append(Task(f"n2/braid/L{length}", len(words), call, _braid_summary))
    return [tasks]


BUILDERS = {"ball_suite": _ball_suite, "sign_cli": _sign_cli, "decide_long": _decide_long, "orders": _orders}


def build(hk, workload, seed, size, contexts, reference) -> list[list[Task]]:
    """The workload's pass; the package's functions must be traced, if at all, before this."""
    return BUILDERS[workload](hk, seed, size, contexts, reference)


def expected(reference, workload, seed, size, rounds) -> dict[str, str]:
    """Recorded summaries by task key; empty when the seed is not recorded."""
    if workload in ("ball_suite", "orders"):
        return dict(reference.get(workload, {}).get(size, {}))
    recorded = reference.get(workload, {}).get(str(seed))
    if recorded is None:
        return {}
    keys = [task.key for tasks in rounds for task in tasks]
    return dict(zip(keys, recorded.split()))
