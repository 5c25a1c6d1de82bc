"""Sign trichotomy for G_n: every element is positive, negative or trivial.

The monoid P generated by {a, b} and the monoid P^-1 generated by
{a^-1, b^-1} partition G_n \\ {1}.  decide_sign computes which part an
arbitrary word falls in and returns a ONE-SIGNED witness word equal to
the input in the group — the certificate that makes the verdict
checkable by the independent matrix oracle.

The decision runs on the normal form w = u * delta^ell:

  * u empty: w = delta^ell, sign of ell, witness a^((n+1) ell).
  * ell >= 0: w is the positive word u * a^((n+1) ell).
  * ell < 0: a cascade peels u from the right into a growing negative
    word, spending the central power one delta^-1 = a^-(n+1) at a time.
    Writing w = P * N * delta^ell (P positive prefix syllables, N a
    negative word), the moves, in priority order:

      merge   P ends g^i, N starts g^-j: cancel min(i, j) letters.
      handle  P ends b^j, N starts a^-e: the identity
                  a b^j a^-1 = (a^-(n-1) b^-1)^j
              lets the b-block jump the leading a^-1 and come out
              negative:  b^j a^-1 = a^-1 (a^-(n-1) b^-1)^j.
      feed    otherwise spend a central factor: N gets a^-(n+1)
              prepended and ell increases by one (only while ell < 0).

    Each move keeps the invariant w = P * N * delta^ell; P only ever
    shrinks, so the loop ends with w = N * delta^ell, all negative.

Cost: one step per move, except on a periodic run.  When P ends
(b a^(n-1))^k, as the normal form of b^-t does, and N starts a^-n b^-m,
each period is one merge and one handle move and leaves a^-n b^-(m+1),
so the cascade jumps all k >= 2 periods at once: steps += 2k, the run
is cut off P, and N's b-block becomes b^-(m+k).  Finding k gallops over
disjoint slices of P, O(k) work in C and O(log k) Python steps, so a
run costs O(1) moves however long it is.  The printed steps, the
witness and the budget's trip point are those of the move-by-move loop.

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
    """The cascade ran out of moves or ended with a witness that is not
    all-negative; indicates a bug, never expected."""


@dataclasses.dataclass(frozen=True)
class SignResult:
    """Verdict plus a one-signed word equal to the input in the group."""

    verdict: Sign
    witness: Word  # empty iff verdict is IDENTITY
    steps: int  # cascade moves spent (0 when no cascade was needed)


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
    q = ctx.q
    if not nf.prefix:
        if nf.ell == 0:
            return SignResult(Sign.IDENTITY, (), 0)
        witness = gen_power(GEN_A, q * nf.ell)
        verdict = Sign.POSITIVE if nf.ell > 0 else Sign.NEGATIVE
        return SignResult(verdict, witness, 0)
    if nf.ell >= 0:
        witness = concat(nf.prefix, gen_power(GEN_A, q * nf.ell))
        return SignResult(Sign.POSITIVE, witness, 0)

    n = ctx.n
    positive = list(nf.prefix)
    negative: deque[Syllable] = deque()
    # (a^-(n-1) b^-1) reversed, as extendleft prepends item by item.
    unit = ((GEN_B, -1), (GEN_A, -(n - 1)))
    period = [(GEN_B, 1), (GEN_A, n - 1)]
    two_periods = period * 2
    ell = nf.ell
    steps = 0
    budget = _cascade_budget(nf.prefix, ell, n)

    while positive:
        steps += 1
        if steps > budget:
            raise RewriteLimitError("sign cascade budget exhausted")
        p_gen, p_exp = positive[-1]
        if negative:
            n_gen, n_exp = negative[0]
            if n_gen == p_gen:
                cancel = min(p_exp, -n_exp)
                if p_exp == cancel:
                    positive.pop()
                else:
                    positive[-1] = (p_gen, p_exp - cancel)
                if -n_exp == cancel:
                    negative.popleft()
                else:
                    negative[0] = (n_gen, n_exp + cancel)
                continue
            if p_gen == GEN_B:
                # handle move: b^j a^-1 = a^-1 (a^-(n-1) b^-1)^j
                j = p_exp
                positive.pop()
                if n_exp == -1:
                    negative.popleft()
                else:
                    negative[0] = (GEN_A, n_exp + 1)
                if n == 1:
                    # The handle is b^-j.  A normal prefix at n = 1 has one
                    # b-block at most (b a b is a redex), so N holds only
                    # a-letters here and nothing merges.
                    negative.extendleft(((GEN_B, -j), (GEN_A, -1)))
                    continue
                if negative and negative[0][0] == GEN_B:
                    # The handle's last b^-1 merges into N.
                    negative[0] = (GEN_B, negative[0][1] - 1)
                    negative.appendleft((GEN_A, 1 - n))
                    j -= 1
                negative.extendleft(unit * j)
                negative[0] = (GEN_A, -n)  # a^-1 merged into the first a^-(n-1)
                if positive[-4:] == two_periods:
                    # P = P' (b a^(n-1))^k and N = a^-n b^-m N': each period
                    # is one merge and one handle move and leaves
                    # a^-n b^-(m+1), so all k periods go at once.  Only a
                    # handle move leaves N starting a^-n with P ending a^(n-1).
                    # For k = 1 the two moves are cheaper than the jump.
                    end = len(positive)
                    k = gallop(
                        lambda i, c: 2 * (i + c) <= end
                        and positive[end - 2 * (i + c) : end - 2 * i] == period * c
                    )
                    steps += 2 * k
                    if steps > budget:
                        raise RewriteLimitError("sign cascade budget exhausted")
                    del positive[-2 * k :]
                    negative[1] = (GEN_B, negative[1][1] - k)
                continue
        if ell < 0:
            if negative and negative[0][0] == GEN_A:
                negative[0] = (GEN_A, negative[0][1] - q)
            else:
                negative.appendleft((GEN_A, -q))
            ell += 1
            continue
        if not negative:
            # Out of central factors with nothing left to cancel: the
            # remaining prefix is the whole element, hence positive.
            return SignResult(Sign.POSITIVE, tuple(positive), steps)
        raise ReductionStuck(
            f"no move from P ending {positive[-1]}, N starting {negative[0]}, ell=0"
        )

    witness = concat(tuple(negative), gen_power(GEN_A, q * ell))
    if not (witness and is_one_signed(witness) and witness[0][1] < 0):
        raise ReductionStuck(f"cascade ended with a witness that is not all-negative: {witness}")
    return SignResult(Sign.NEGATIVE, witness, steps)
