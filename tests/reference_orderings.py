"""Test-only reference: the order scans that decide every ball word from scratch.

This is `orderings` as it was before the scans walked the ball's tree:
`_order_sign` reads each spec by its own case, and
`smallest_positive_in_ball` and `convexity_check` run over
`enumerate_reduced`, deciding each word, and each comparison's
u^-1 v, from scratch.  Kept verbatim apart from its names, so the
differential tests can demand the same minimum and an equal
ConvexityReport from the walk, with and without planted faults.
"""

from __future__ import annotations

from heckeord.cone import Sign, decide_sign
from heckeord.context import GroupContext
from heckeord.oracle import b_power_of
from heckeord.orderings import (
    Cmp,
    Conjugated,
    ConvexityReport,
    DD,
    DDReversed,
    DehornoyLike,
    OrderingSpec,
)
from heckeord.words import GEN_B, Word, concat, conjugate, enumerate_reduced, gen_power, invert

_CMP_OF_SIGN = {Sign.POSITIVE: Cmp.LESS, Sign.IDENTITY: Cmp.EQUAL, Sign.NEGATIVE: Cmp.GREATER}


def reference_order_sign(word: Word, spec: OrderingSpec, ctx: GroupContext) -> Sign:
    """The side of spec's positive cone that word is on; IDENTITY iff word = 1."""
    match spec:
        case DehornoyLike() if (k := b_power_of(word, ctx)) is not None:
            return Sign.IDENTITY if k == 0 else Sign.POSITIVE if k < 0 else Sign.NEGATIVE
        case DD() | DehornoyLike():
            return decide_sign(word, ctx).verdict
        case DDReversed():
            return decide_sign(invert(word), ctx).verdict
        case Conjugated(base=base, g=g):
            return reference_order_sign(conjugate(g, word), base, ctx)
    raise TypeError(f"unknown ordering spec {spec!r}")


def reference_is_positive(word: Word, spec: OrderingSpec, ctx: GroupContext) -> bool:
    return reference_order_sign(word, spec, ctx) is Sign.POSITIVE


def reference_compare(u: Word, v: Word, spec: OrderingSpec, ctx: GroupContext) -> Cmp:
    return _CMP_OF_SIGN[reference_order_sign(concat(invert(u), v), spec, ctx)]


def reference_smallest_positive_in_ball(
    spec: OrderingSpec, ctx: GroupContext, max_len: int
) -> Word | None:
    best: Word | None = None
    for w in enumerate_reduced(max_len):
        if not reference_is_positive(w, spec, ctx):
            continue
        if best is None or reference_compare(w, best, spec, ctx) is Cmp.LESS:
            best = w
    return best


def reference_convexity_check(ctx: GroupContext, max_len: int) -> ConvexityReport:
    radius = max_len
    spec = DD()
    low = gen_power(GEN_B, -radius)
    high = gen_power(GEN_B, radius)
    violations = []
    checked = 0
    for c in enumerate_reduced(max_len):
        checked += 1
        if b_power_of(c, ctx) is not None:
            continue
        if (
            reference_compare(low, c, spec, ctx) is Cmp.LESS
            and reference_compare(c, high, spec, ctx) is Cmp.LESS
        ):
            violations.append(c)
    return ConvexityReport(
        n=ctx.n,
        max_len=max_len,
        sandwich_radius=radius,
        checked=checked,
        violations=tuple(violations),
    )
