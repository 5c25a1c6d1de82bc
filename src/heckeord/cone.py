"""Sign trichotomy for G_n: every element is positive, negative or trivial.

The monoid P generated by {a, b} and the monoid P^-1 generated by
{a^-1, b^-1} partition G_n \\ {1}.  decide_sign computes which part an
arbitrary word falls in and returns a ONE-SIGNED witness word equal to
the input in the group — the certificate that makes the verdict
checkable by the independent matrix oracle.

The decision runs on the normal form w = u * delta^ell.  For ell >= 0,
w is the positive word u * a^((n+1) ell) (the identity when that is
empty); for u empty and ell < 0 it is the negative a^((n+1) ell).
Otherwise a cascade peels u from the right into a negative word N,
keeping w = P * N * delta^ell with P the part of u not yet peeled.  It
feeds once, spending a central factor (N = a^-(n+1), ell + 1), then
makes one move per syllable of P, last syllable first:

  merge   P ends a^i, N starts a^-j, i <= j: cancel a^i.
  handle  P ends b^j, N starts a^-e: the identity
              a b^j a^-1 = (a^-(n-1) b^-1)^j
          lets b^j jump the leading a^-1 and come out negative:
              b^j a^-1 = a^-1 (a^-(n-1) b^-1)^j.

It ends with w = N * delta^ell, all negative, after steps = 1 + (syllables
of u).  So ell < 0 with u nonempty is always NEGATIVE.

Why each syllable takes exactly one move.  u is irreducible (normalform):
its syllables alternate, every a-exponent is in 1..n and there is no
b a^n b factor, so an a^i with a b on each side has i <= n - 1.  N
starts with an a-block a^-j, and P's last a^i has i <= j, with equality
only when a^i is the first syllable of u: after the feed j = n + 1; after
a handle move j = n and P's new last a^i had a b after it; after a merge
P ends with b or is empty.  So an a-syllable always merges whole, a
b-syllable always meets an a-block, and N never empties before P: no
second feed, no b-merge and no stuck state.  A broken invariant raises
ReductionStuck.

Cost: one step per move, except on a periodic run.  When P ends
(b a^(n-1))^k, as the normal form of b^-t does, and N starts a^-n b^-m,
each period is one merge and one handle move and leaves a^-n b^-(m+1),
so the cascade jumps all k >= 2 periods at once: steps += 2k, the run
is cut off P, and N's b-block becomes b^-(m+k).  Finding k gallops over
disjoint slices of P, O(k) work in C and O(log k) Python steps.  The
steps, the witness and the budget's trip point are those of the
move-by-move loop.

The verdicts are cross-validated exhaustively against the matrix
oracle in the test suite; nothing here trusts normal-form uniqueness.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from operator import itemgetter

from .context import GroupContext
from .normalform import to_normal_form
from .words import (
    GEN_A,
    GEN_B,
    RewriteLimitError,
    Syllable,
    Word,
    concat,
    gallop,
    gen_power,
    is_one_signed,
)


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IDENTITY = "identity"


# The verdict of w^-1 from the verdict of w: inversion swaps the two cones.
MIRROR = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE, Sign.IDENTITY: Sign.IDENTITY}


class ReductionStuck(RuntimeError):
    """The cascade met a state its proof rules out, or ended with a
    witness that is not all-negative; indicates a bug, never expected."""


@dataclasses.dataclass(frozen=True)
class SignResult:
    """Verdict plus a one-signed word equal to the input in the group."""

    verdict: Sign
    witness: Word  # empty iff verdict is IDENTITY
    steps: int  # cascade moves: 1 + syllables of the normal-form prefix, or 0 with no cascade


def expand_handle(j: int, ctx: GroupContext) -> Word:
    """The word (a^-(n-1) b^-1)^j, i.e. a b^j a^-1 pushed negative.

    For n = 1 the a-part vanishes and the handle is just b^-j.
    """
    if j < 0:
        raise ValueError("handle exponent must be >= 0")
    if j == 0:
        return ()
    n = ctx.n
    if n == 1:
        return ((GEN_B, -j),)
    return ((GEN_A, -(n - 1)), (GEN_B, -1)) * j


def _cascade_budget(prefix: Word, ell: int, n: int) -> int:
    """Moves the cascade may make: a tripwire, far above what it needs."""
    return 64 + 8 * (sum(map(itemgetter(1), prefix)) * (n + 1) + (-ell) + n)


def decide_sign(word: Word, ctx: GroupContext) -> SignResult:
    """Trichotomy verdict and one-signed witness for an arbitrary word.

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word, format_word
    >>> r = decide_sign(parse_word("b^-2"), group_context(2))
    >>> r.verdict.value, format_word(r.witness)
    ('negative', 'b^-2')
    """
    nf = to_normal_form(word, ctx)
    prefix, ell = nf.prefix, nf.ell
    n, q = ctx.n, ctx.q
    if ell >= 0:
        witness = concat(prefix, gen_power(GEN_A, q * ell))
        return SignResult(Sign.POSITIVE if witness else Sign.IDENTITY, witness, 0)
    if not prefix:
        return SignResult(Sign.NEGATIVE, gen_power(GEN_A, q * ell), 0)

    budget = _cascade_budget(prefix, ell, n)
    negative: deque[Syllable] = deque([(GEN_A, -q)])  # the feed: one central factor
    ell += 1
    steps = 1
    # (a^-(n-1) b^-1) reversed, as extendleft prepends item by item.
    unit = ((GEN_B, -1), (GEN_A, -(n - 1)))
    period = ((GEN_B, 1), (GEN_A, n - 1))
    two_periods = period * 2
    end = len(prefix)  # P is prefix[:end]
    while end:
        steps += 1
        if steps > budget:
            raise RewriteLimitError("sign cascade budget exhausted")
        end -= 1
        gen, exp = prefix[end]
        if not negative or negative[0][0] != GEN_A:
            head = f"starts {negative[0]}" if negative else "is empty"
            raise ReductionStuck(f"no a-block in N to meet {prefix[end]}: N {head}")
        j = -negative[0][1]  # N starts a^-j
        if gen == GEN_A:
            if exp > j:
                raise ReductionStuck(f"merge of a^{exp} into a^-{j} does not fit")
            if exp == j:
                negative.popleft()
            else:
                negative[0] = (GEN_A, exp - j)
            continue
        # handle move: b^exp a^-1 = a^-1 (a^-(n-1) b^-1)^exp
        if j == 1:
            negative.popleft()
        else:
            negative[0] = (GEN_A, 1 - j)
        if n == 1:
            # The handle is b^-exp.  A normal prefix at n = 1 has one b-block
            # at most (b a b is a redex), so N holds only a-letters here.
            negative.extendleft(((GEN_B, -exp), (GEN_A, -1)))
            continue
        if negative and negative[0][0] == GEN_B:
            # The handle's last b^-1 merges into N.
            negative[0] = (GEN_B, negative[0][1] - 1)
            negative.appendleft((GEN_A, 1 - n))
            exp -= 1
        negative.extendleft(unit * exp)
        negative[0] = (GEN_A, -n)  # a^-1 merged into the first a^-(n-1)
        if end >= 4 and prefix[end - 4 : end] == two_periods:
            # P ends (b a^(n-1))^k and N starts a^-n b^-m: jump the run.
            # For k = 1 the two moves are cheaper than the jump.
            k = gallop(
                lambda i, c: 2 * (i + c) <= end
                and prefix[end - 2 * (i + c) : end - 2 * i] == period * c
            )
            steps += 2 * k
            if steps > budget:
                raise RewriteLimitError("sign cascade budget exhausted")
            end -= 2 * k
            negative[1] = (GEN_B, negative[1][1] - k)

    witness = concat(tuple(negative), gen_power(GEN_A, q * ell))
    if not (witness and is_one_signed(witness) and witness[0][1] < 0):
        raise ReductionStuck(f"cascade ended with a witness that is not all-negative: {witness}")
    return SignResult(Sign.NEGATIVE, witness, steps)
