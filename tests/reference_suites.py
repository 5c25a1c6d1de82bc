"""Test-only reference: the trichotomy suite that decides every word from scratch.

This is `suites.run_trichotomy_suite` as it was before the depth-first
walk: each ball word from `enumerate_reduced` goes through
`decide_sign`, its witness is checked by `oracle_is_identity` on
w^-1 * witness, and the mirror check runs over a dict of verdicts in
ball order.  Kept verbatim apart from its names, so the differential
tests can demand an identical SuiteReport (counts, total_words,
violations in order) from the walk, with and without planted faults.
"""

from __future__ import annotations

import functools
import os

from heckeord.cone import MIRROR, Sign, decide_sign
from heckeord.context import GroupContext
from heckeord.oracle import oracle_is_identity
from heckeord.suites import MAX_SUITE_LEN, SuiteReport
from heckeord.words import Word, concat, enumerate_reduced, format_word, invert, is_one_signed


def examine_row(ctx: GroupContext, word: Word):
    """One ball word: (word, verdict, violations of the local checks)."""
    violations = []
    result = decide_sign(word, ctx)
    witness = result.witness
    if result.verdict is Sign.IDENTITY:
        if witness != ():
            violations.append((format_word(word), "witness-shape", "identity verdict with nonempty witness"))
    else:
        want_positive = result.verdict is Sign.POSITIVE
        if not witness or not is_one_signed(witness) or (witness[0][1] > 0) != want_positive:
            violations.append(
                (format_word(word), "witness-shape", f"not one-signed for {result.verdict.value}: {format_word(witness)}")
            )
    if not oracle_is_identity(concat(invert(word), witness), ctx):
        violations.append(
            (format_word(word), "witness-equality", f"witness {format_word(witness)} is not the same element")
        )
    if (result.verdict is Sign.IDENTITY) != oracle_is_identity(word, ctx):
        violations.append(
            (format_word(word), "oracle-agreement", f"verdict {result.verdict.value} contradicts the oracle")
        )
    return word, result.verdict, violations


def reference_trichotomy_suite(ctx: GroupContext, max_len: int, jobs: int = 1) -> SuiteReport:
    """Every ball word decided from scratch, then the mirror check over a dict."""
    if not 0 <= max_len <= MAX_SUITE_LEN:
        raise ValueError(f"max_len must be in 0..{MAX_SUITE_LEN}, got {max_len!r}")
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise ValueError(f"jobs must be in 1..{limit}, got {jobs!r}")
    examine = functools.partial(examine_row, ctx)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(examine, enumerate_reduced(max_len))
    else:
        rows = map(examine, enumerate_reduced(max_len))

    counts = {s.value: 0 for s in Sign}
    violations = []
    verdict_of = {}  # in ball order
    for word, verdict, word_violations in rows:
        counts[verdict.value] += 1
        violations.extend(word_violations)
        verdict_of[word] = verdict
    for word, verdict in verdict_of.items():
        mirrored = verdict_of[invert(word)]
        if mirrored is not MIRROR[verdict]:
            detail = f"{verdict.value} vs {mirrored.value} for the inverse"
            violations.append((format_word(word), "inverse-mirror", detail))
    return SuiteReport(
        n=ctx.n,
        max_len=max_len,
        total_words=len(verdict_of),
        counts=counts,
        violations=tuple(violations),
    )
