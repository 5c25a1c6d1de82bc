"""Left-invariant total orders on G_n, decided exactly.

A left order is specified by its positive cone: u < v iff u^-1 v is in
the cone.  Four cone recipes are implemented:

  DD            the one-signed cone: w > 1 iff w is a product of
                positive letters (cone.verdict says POSITIVE).
  DDReversed    the mirror: w > 1 iff cone.verdict says NEGATIVE.
  DehornoyLike  the <b>-flipped variant: the cyclic subgroup <b> is
                convex for DD, so flipping the order inside it yields a
                new left order.  w > 1 iff w = b^k with k <= -1, or w
                is not a b-power and is DD-positive.
  Conjugated    base order seen through conjugation by g: w > 1 iff
                g w g^-1 > 1 in the base order (the cone g^-1 P g).

Every spec reduces to one recipe (mirror, flipped, g): its sign of w is
the DD sign of g w g^-1, or the DehornoyLike sign when flipped, MIRRORed
when mirror.  A flipped read keeps the DD verdict unless the word is a
power of b, and then MIRRORs it.  b^k has a closed-form normal form (the
prefix b^k with ell 0, or a^n (b a^(n-1))^(t-1) b a^n with ell -1 for
k = -t), so the normal form that gives the DD verdict also says whether
w is a power of b (normalform.is_b_power).  u = v iff u^-1 v is on
neither side of the cone: cone.verdict says IDENTITY.  So every order
decision rests on the normal form, and none touches the matrix oracle
or writes a witness; the oracle checks them at the edges: the suites,
sign's witness, the convexity report (convexity_check asks
oracle.b_power_of about each sandwiched word) and the Cayley export.

Cost.  is_positive and compare rewrite their word from scratch, once,
flipped or not.  The ball scans (smallest_positive_in_ball,
convexity_check) instead walk the ball depth first on _Track, one per
fixed left factor L: it keeps, per depth, the stack pass's state of L w
(normalform.resume).  So a word costs one letter of stack pass per left
factor, and a sign read the right factor's letters, an O(1)
cone.verdict and, when flipped, an O(1) is_b_power: at radius 6 the
`orders` scans run about 2.2x faster than deciding every word from
scratch (tests/reference_orderings.py).  _Track serves these scans
only; the trichotomy suite resumes its own states (suites._walk).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .cone import MIRROR, Sign, verdict
from .context import GroupContext
from .normalform import START, is_b_power, resume
from .oracle import b_power_of
from .words import GEN_A, GEN_B, Word, _ball, concat, conjugate, gen_power, invert


class _FieldLess:
    """An order spec without fields: immutable, equal to and hashed by
    its class alone, with repr Name()."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__)

    def __repr__(self):
        return f"{type(self).__name__}()"


class DD(_FieldLess):
    """Positive cone = the monoid generated by {a, b}."""

    __slots__ = ()


class DDReversed(_FieldLess):
    """Positive cone = the monoid generated by {a^-1, b^-1}."""

    __slots__ = ()


class DehornoyLike(_FieldLess):
    """DD with the order flipped on the convex subgroup <b>."""

    __slots__ = ()


class Conjugated(NamedTuple):
    """The base order transported along w -> g w g^-1."""

    base: OrderingSpec
    g: Word


OrderingSpec = DD | DDReversed | DehornoyLike | Conjugated


class Cmp(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


_CMP_OF_SIGN = {Sign.POSITIVE: Cmp.LESS, Sign.IDENTITY: Cmp.EQUAL, Sign.NEGATIVE: Cmp.GREATER}


def _recipe(spec: OrderingSpec) -> tuple[bool, bool, Word]:
    """(mirror, flipped, g): spec's sign of w is the DD sign of g w g^-1,
    or its flipped sign (_sign) when flipped, MIRRORed when mirror.

    Conjugated(base, h) conjugates base's g by h on the right: the base
    sees h w h^-1, which it conjugates by its own g.
    """
    match spec:
        case DD():
            return False, False, ()
        case DDReversed():
            return True, False, ()
        case DehornoyLike():
            return False, True, ()
        case Conjugated(base=base, g=h):
            mirror, flipped, g = _recipe(base)
            return mirror, flipped, concat(g, h)
    raise TypeError(f"unknown ordering spec {spec!r}")


def _sign(state: tuple, flipped: bool, ctx: GroupContext) -> Sign:
    """The DD sign of the element whose stack-pass state is state, or
    when flipped its DehornoyLike sign: MIRRORed when the normal form is
    that of a power of b (normalform.is_b_power)."""
    stack, ell, _ = state
    sign = verdict(stack, ell, ctx)
    return MIRROR[sign] if flipped and is_b_power(stack, ell, ctx) else sign


def _order_sign(word: Word, spec: OrderingSpec, ctx: GroupContext) -> Sign:
    """The side of spec's positive cone that word is on; IDENTITY iff word = 1."""
    mirror, flipped, g = _recipe(spec)
    sign = _sign(resume(START, conjugate(g, word) if g else word, ctx), flipped, ctx)
    return MIRROR[sign] if mirror else sign


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


class _Track:
    """The states of left · w for the words w on a ball walk's path, and
    the unmirrored sign of left · w · right.

    Per depth of the path, nf holds the stack pass's state of left · w.
    A word's state is its parent's resumed over its last letter, so left
    costs its letters once per start, and each word one letter plus the
    fixed right factor when its sign is read.  Only the ball scans here
    use it: the trichotomy walk, which checks witnesses rather than
    reading signs, keeps its own per-depth states (suites._walk).
    """

    def __init__(self, ctx: GroupContext, max_len: int, flipped: bool, right: Word = ()):
        self.ctx, self.flipped, self.right = ctx, flipped, right
        self.nf = [None] * (max_len + 1)

    def start(self, left: Word, path=()) -> None:
        """Track left · w, and take the states of the path's words, path
        holding the one-letter words of depths 1, 2, ... (it can be empty)."""
        self.nf[0] = resume(START, left, self.ctx)
        for depth, last in enumerate(path, 1):
            self.push(depth, last)

    def push(self, depth: int, last: Word) -> None:
        """The state of the path's word at depth, whose last letter is last."""
        self.nf[depth] = resume(self.nf[depth - 1], last, self.ctx)

    def sign(self, depth: int) -> Sign:
        """The DD sign of left · w · right for the path's word w at depth;
        on a flipped track, the flipped sign (DehornoyLike)."""
        state = self.nf[depth]
        return _sign(resume(state, self.right, self.ctx) if self.right else state, self.flipped, self.ctx)


def smallest_positive_in_ball(
    spec: OrderingSpec, ctx: GroupContext, max_len: int
) -> Word | None:
    """The order-minimum positive element among words of length <= max_len.

    Returns the earliest-enumerated representative (shortest, then
    lexicographic) of the minimal positive element; None when the ball
    contains no positive element (never happens for max_len >= 1).

    The ball is walked depth first (words._ball_tree).  With spec's
    recipe (mirror, flipped, g), w is positive when the unmirrored sign
    of g w g^-1 is, and w < best when that of g best^-1 w g^-1 is
    negative, both mirrored when mirror: one track per left factor, g
    and g best^-1, resumed from each word's parent.  When best changes
    its track restarts along the current path.  The walk meets the
    words in another order than enumerate_reduced, so of two equal
    elements the one of smaller rank is kept.
    """
    ball = _ball(max_len)
    mirror, flipped, g = _recipe(spec)
    positive = Sign.NEGATIVE if mirror else Sign.POSITIVE  # the unmirrored sign of w > 1
    less = MIRROR[positive]  # ... of best^-1 w when w < best
    right = invert(g)
    test = _Track(ctx, max_len, flipped, right)
    test.start(g)
    versus = _Track(ctx, max_len, flipped, right)
    path = [()] * (max_len + 1)  # path[d]: the last letter of the word at depth d
    best, best_rank = None, 0
    for w, last, depth, rank, _ in ball:
        if depth:
            path[depth] = last
            test.push(depth, last)
            if best is not None:
                versus.push(depth, last)
        if test.sign(depth) is not positive:
            continue
        if best is not None:
            side = versus.sign(depth)
            if side is not less and (side is not Sign.IDENTITY or rank > best_rank):
                continue
        best, best_rank = w, rank
        versus.start(concat(g, invert(w)), path[1 : depth + 1])
    return best


class ConvexityReport(NamedTuple):
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
    none; any hit is returned as a violation, in ball order.

    b^-R < c when b^R c is DD-positive, and c < b^R when b^-R c is
    DD-negative: two tracks along a depth-first walk of the ball, with
    left factors b^R and b^-R.  Only a word between the two is tested
    for being a power of b.
    """
    ball = _ball(max_len)
    radius = max_len
    above = _Track(ctx, max_len, False)
    above.start(gen_power(GEN_B, radius))
    below = _Track(ctx, max_len, False)
    below.start(gen_power(GEN_B, -radius))
    violations = []
    checked = 0
    for c, last, depth, rank, _ in ball:
        checked += 1
        if depth:
            above.push(depth, last)
            below.push(depth, last)
        if (
            above.sign(depth) is Sign.POSITIVE
            and below.sign(depth) is Sign.NEGATIVE
            and b_power_of(c, ctx) is None
        ):
            violations.append((rank, c))
    violations.sort()
    return ConvexityReport(
        n=ctx.n,
        max_len=max_len,
        sandwich_radius=radius,
        checked=checked,
        violations=tuple(c for _, c in violations),
    )


class ConvergenceRow(NamedTuple):
    element: Word
    verdicts: tuple[bool, ...]  # DehornoyLike-positivity of (b^k a)^-1 w (b^k a)
    stabilized_from: int | None  # least k with all verdicts true from k on


class ConvergenceReport(NamedTuple):
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
    k b-letters (n = 2, four elements, 2-vCPU Xeon: 0.04 s at k_max = 250,
    0.08 s at 500, 0.2 s at 1000).  k_max < 1 or no elements, which leave
    no verdicts, and k_max > 1000, whose cost grows as k_max^2, are a ValueError.
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
