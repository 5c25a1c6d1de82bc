"""Sign trichotomy for G_n: every element is positive, negative or trivial.

The monoid P generated by {a, b} and the monoid P^-1 generated by
{a^-1, b^-1} partition G_n \\ {1}.  decide_sign computes which part an
arbitrary word falls in and returns a ONE-SIGNED witness word equal to
the input in the group — the certificate that makes the verdict
checkable by the independent matrix oracle.

The decision runs on the normal form w = u * delta^ell: decide_sign is
to_normal_form followed by sign_pass, which takes a NormalForm, so a
caller that already holds the normal form skips the rewrite.  For
ell >= 0, w is the positive word u * a^((n+1) ell) (the identity when
that is empty); for u empty and ell < 0 it is the negative
a^((n+1) ell).  Otherwise one left-to-right pass over u writes the
negative witness directly.  Every b^k of u is spelled by the handle
identity

    a b^k a^-1 = (a^-(n-1) b^-1)^k,   so   b^k = a^-1 (a^-(n-1) b^-1)^k a,

and the a-letters between two b-blocks telescope into one integer, the
pending a-exponent carry (0 at the start).  The pass makes one move per
syllable of u, after one feed:

  feed     delta^ell = a^((n+1) ell), held back until the end.
  merge    a^i: carry += i.
  handle   b^k: carry -= n (the a^-1 and the first a^-(n-1)); write
           a^carry unless it is 0, then b^-1, which merges into the last
           b-block when carry is 0; then (a^-(n-1) b^-1)^(k-1), which
           at n = 1 is b^-(k-1) in the same block; then carry = 1 (the
           trailing a).
  jump     a run (b a^(n-1))^k with k >= 2: after the first period
           carry = n, so each further period's handle move writes no
           a-letter and adds one b^-1 to the same block, and its
           a^(n-1) brings carry back to n.  The run goes at once: k - 1
           more b^-1, and carry = n.

At the end it writes a^(carry + (n+1) ell).  steps = 1 + (syllables of
u): the feed and one move per syllable, a jump standing for the moves
of the syllables it skips.  So ell < 0 with u nonempty is always
NEGATIVE.

Why the witness is right.  It equals w, because u * delta^ell = w and
each b^k was replaced by a^-1 (a^-(n-1) b^-1)^k a, the same element.
It is all-negative once every a-exponent written is <= 0.  u is
irreducible (normalform): its syllables alternate, every a-exponent is
in 1..n and there is no b a^n b factor, so an a^i with a b on each
side has i <= n - 1.  Hence carry <= n before every b-block: the first
a-syllable adds at most n to 0, a handle move leaves 1 and the next
a^i adds at most n - 1, and a jump leaves n.  So the exponent carry - n
that a handle move writes is <= 0.  At the end carry <= n + 1 (1 + i
when u ends a^i after a b-block), so the last exponent
carry + (n+1) ell is <= 0; when u = a^i it is i + (n+1) ell < 0, so the
witness is never empty.  A reducible prefix can break these bounds, and
the final check that the witness is nonempty and all-negative then
raises ReductionStuck.

Cost: O(1) per syllable plus the letters written, except on a run,
which costs one jump: its length k is found by galloping over disjoint
slices of u, O(k) work in C and O(log k) Python steps.

The verdicts are cross-validated exhaustively against the matrix
oracle in the test suite; nothing here trusts normal-form uniqueness.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .context import GroupContext
from .normalform import NormalForm, to_normal_form
from .words import GEN_A, GEN_B, Syllable, Word, gallop, is_one_signed


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IDENTITY = "identity"


# The verdict of w^-1 from the verdict of w: inversion swaps the two cones.
MIRROR = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE, Sign.IDENTITY: Sign.IDENTITY}


class ReductionStuck(RuntimeError):
    """The sign pass wrote a witness that is empty or not all-negative,
    which an irreducible prefix rules out; indicates a bug, never expected."""


class SignResult(NamedTuple):
    """Verdict plus a one-signed word equal to the input in the group
    (a named tuple: immutable, hashable, equal by its fields)."""

    verdict: Sign
    witness: Word  # empty iff verdict is IDENTITY
    steps: int  # the feed and one move per normal-form prefix syllable, or 0 with no pass


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


def decide_sign(word: Word, ctx: GroupContext) -> SignResult:
    """Trichotomy verdict and one-signed witness for an arbitrary word.

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word, format_word
    >>> r = decide_sign(parse_word("b^-2"), group_context(2))
    >>> r.verdict.value, format_word(r.witness)
    ('negative', 'b^-2')
    """
    return sign_pass(to_normal_form(word, ctx), ctx)


@functools.lru_cache(maxsize=None)
def _runs(n: int) -> tuple[Word, Word]:
    """The handle a^-(n-1) b^-1 that a b-letter writes, and two periods
    (b a^(n-1))^2 of a run, for sign_pass at n."""
    return ((GEN_A, 1 - n), (GEN_B, -1)), ((GEN_B, 1), (GEN_A, n - 1)) * 2


def sign_pass(nf: NormalForm, ctx: GroupContext) -> SignResult:
    """The verdict and witness of the element nf: the feed, then one
    left-to-right pass over its prefix (see the module docstring)."""
    prefix, ell = nf
    q = ctx.q
    if ell >= 0:
        if not ell:
            return SignResult(Sign.POSITIVE if prefix else Sign.IDENTITY, prefix, 0)
        if prefix and prefix[-1][0] == GEN_A:  # delta^ell merges into the last a-block
            return SignResult(Sign.POSITIVE, prefix[:-1] + ((GEN_A, prefix[-1][1] + q * ell),), 0)
        return SignResult(Sign.POSITIVE, prefix + ((GEN_A, q * ell),), 0)
    if not prefix:
        return SignResult(Sign.NEGATIVE, ((GEN_A, q * ell),), 0)

    n = ctx.n
    handle, two_periods = _runs(n)
    out: list[Syllable] = []
    carry = 0  # the pending a-exponent
    i, end = 0, len(prefix)
    while i < end:
        gen, exp = prefix[i]
        if gen == GEN_A:  # merge
            carry += exp
            i += 1
            continue
        # handle: b^exp = a^-1 (a^-(n-1) b^-1)^exp a
        carry -= n
        lead = exp if n == 1 else 1  # the b^-1, with the whole handle at n = 1
        if carry:
            out += ((GEN_A, carry), (GEN_B, -lead))
        elif out:
            out[-1] = (GEN_B, out[-1][1] - lead)
        else:
            out.append((GEN_B, -lead))
        if n > 1:
            out += handle * (exp - 1)
        carry = 1
        if prefix[i : i + 4] == two_periods:
            # jump: u goes on (b a^(n-1))^k from here, k >= 2.  The period is
            # read from u: the normal form appends a long run as one pair of
            # syllable objects repeated, so most comparisons are identities.
            period = prefix[i + 2 : i + 4]
            k = gallop(lambda j, c: prefix[i + 2 * j : i + 2 * (j + c)] == period * c)
            out[-1] = (GEN_B, out[-1][1] - (k - 1))
            carry = n
            i += 2 * k
        else:
            i += 1

    last = carry + q * ell  # the fed delta^ell; out ends in a b-block or is empty
    if last:
        out.append((GEN_A, last))
    witness = tuple(out)
    if not (witness and is_one_signed(witness) and witness[0][1] < 0):
        raise ReductionStuck(f"cascade ended with a witness that is not all-negative: {witness}")
    return SignResult(Sign.NEGATIVE, witness, 1 + len(prefix))
