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

Who gets a witness.  By the above, the verdict is NEGATIVE iff ell < 0,
else POSITIVE iff u is nonempty.  verdict reads it in O(1), once C-level
checks over slices of u hold those bounds, for orderings and the Cayley
export; decide_sign and sign_pass write the witness for suites, and
certify_sign for sign.

Cuts.  certify_sign(w, ctx, C) also returns the interior cuts
(k, p, z), each claiming w[:k] = witness[:p] * z in G_n for a word z of
at most C syllables, k and p nondecreasing.  oracle.oracle_chain checks
the witness as the chain of links z * w[k:k'] = witness[p:p'] * z'
from (0, 0, ()) through the cuts to (len(w), len(witness), ()), the
two ends its own; each link is an equality of short words, so no fold
grows wide, and it trusts nothing from the cuts, which only decide
where the links fall.  The checker picks C (oracle.link_syllables):
None asks for no cuts, one whole-word link.  Each pass that makes the
verdict and witness states its own half of the claims, and certify_sign
only joins the two:

  stack    normalform.stack_checkpoints runs the stack pass every C
           syllables and gives, at each checkpoint, its stack S with
           S * delta^ell = w[:k], S's top C syllables, and kept = m with
           S[:m] = u[:m] for the final prefix u, nondecreasing.
  sign     sign_pass, stopped at each m, claims u[:m] = witness[:p] * Y
           for a short Y.  In the pass u[:m] = out * a^carry and only
           out[-1] of out changes later, so p = len(out) - 1 and
           Y = out[-1] a^carry; with no pass the witness is u itself,
           bar the delta^ell merged into its last syllable, so
           p = min(m, len(witness) - 1) and Y = u[p:m].

So z = Y * S[m:] * a^(q ell).  A cut whose z would be longer than C is
dropped: the relator sandwich x r x^-1 pops its whole stack, and keeps
one long link.  Only each checkpoint's top C syllables are copied, so
the producer's work and memory stay linear in the word, whatever the
height of the stack.

The verdicts are cross-validated exhaustively against the matrix
oracle in the test suite; nothing here trusts normal-form uniqueness.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .context import GroupContext
from .normalform import NormalForm, ReductionStuck, stack_checkpoints, to_normal_form
from .words import _EXPONENT, GEN_A, GEN_B, Syllable, Word, concat, gallop, gen_power, is_one_signed


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IDENTITY = "identity"


# The verdict of w^-1 from the verdict of w: inversion swaps the two cones.
MIRROR = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE, Sign.IDENTITY: Sign.IDENTITY}


class SignResult(NamedTuple):
    """Verdict plus a one-signed word equal to the input in the group
    (a named tuple: immutable, hashable, equal by its fields)."""

    verdict: Sign
    witness: Word  # empty iff verdict is IDENTITY
    steps: int  # the feed and one move per normal-form prefix syllable, or 0 with no pass


def expand_handle(j: int, ctx: GroupContext) -> Word:
    """The word (a^-(n-1) b^-1)^j, i.e. a b^j a^-1 pushed negative: j
    copies of sign_pass's handle (_runs).

    For n = 1 the a-part vanishes and the handle is just b^-j.
    """
    if j < 0:
        raise ValueError("handle exponent must be >= 0")
    return _runs(ctx.n)[0] * j if ctx.n > 1 else gen_power(GEN_B, -j)


def decide_sign(word: Word, ctx: GroupContext) -> SignResult:
    """Trichotomy verdict and one-signed witness for an arbitrary word.

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word, format_word
    >>> r = decide_sign(parse_word("b^-2"), group_context(2))
    >>> r.verdict.value, format_word(r.witness)
    ('negative', 'b^-2')
    """
    return sign_pass(to_normal_form(word, ctx), ctx)


def certify_sign(word: Word, ctx: GroupContext, cut: int | None) -> tuple[SignResult, list[tuple[int, int, Word]]]:
    """decide_sign's result, and the interior cuts (k, p, z) by which
    oracle.oracle_chain checks its witness (see Cuts in the module
    docstring): the stack pass's checkpoints every cut syllables
    (normalform.stack_checkpoints) joined with the sign pass's claims at
    what each keeps of the prefix, or no cuts when cut is None, for one
    whole-word link.  The checker picks cut (oracle.link_syllables).

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word
    >>> result, cuts = certify_sign(parse_word("a b a^-1"), group_context(7), 2)
    >>> [k for k, _, _ in cuts]
    [2]
    >>> certify_sign(parse_word("a b a^-1"), group_context(2), None)[1]
    []
    """
    if cut is None:
        return decide_sign(word, ctx), []
    nf, checkpoints = stack_checkpoints(word, ctx, cut)
    claims = []
    result = sign_pass(nf, ctx, tuple(kept for _, _, _, _, kept in checkpoints), claims)
    cuts = []
    for (k, ell, height, top, kept), (p, y) in zip(checkpoints, claims):
        z = y + top[len(top) - height + kept :] + gen_power(GEN_A, ctx.q * ell)
        if height - kept <= cut and len(z) <= cut:
            cuts.append((k, p, z))
    return result, cuts


def verdict(prefix: Word | list[Syllable], ell: int, ctx: GroupContext) -> Sign:
    """The verdict of prefix * delta^ell, prefix a normal-form prefix or stack,
    with no witness; ReductionStuck if prefix breaks the bounds it rests on."""
    if min(map(_EXPONENT, prefix), default=1) <= 0:
        raise ReductionStuck(f"prefix is not a positive word: {prefix}")
    if ell < 0 and prefix:
        # (gen, exp) pairs compare with GEN_A = 0 < GEN_B = 1.  From i on every
        # other syllable is an a^(<= n), < a^n between two b's; the rest b's.
        i, top = prefix[0][0], (GEN_A, ctx.n)
        if (
            max(prefix[i::2], default=top) > top
            or max(prefix[2 - i : -1 : 2], default=(GEN_A, 0)) >= top
            or min(prefix[1 - i :: 2], default=(GEN_B, 1)) < (GEN_B, 1)
        ):
            raise ReductionStuck(f"prefix is not irreducible: {prefix}")
    return Sign.NEGATIVE if ell < 0 else Sign.POSITIVE if ell or prefix else Sign.IDENTITY


@functools.lru_cache(maxsize=None)
def _runs(n: int) -> tuple[Word, Word]:
    """The handle a^-(n-1) b^-1 that a b-letter writes, and two periods
    (b a^(n-1))^2 of a run, for sign_pass and expand_handle at n > 1."""
    return ((GEN_A, 1 - n), (GEN_B, -1)), ((GEN_B, 1), (GEN_A, n - 1)) * 2


def sign_pass(nf: NormalForm, ctx: GroupContext, stops=(), states=None) -> SignResult:
    """The verdict and witness of the element nf: the feed, then one
    left-to-right pass over its prefix (see the module docstring).

    nf must be a NormalForm, whose constructor checks that the prefix is
    a positive word; anything else is a TypeError, as real code under
    python -O, since the pass would read a plain pair unchecked.

    The pass is a left fold over the prefix u: after u[:m] its state is
    (out, carry) with u[:m] = out * a^carry, wherever it stops (a jump
    ends at a stop, and the handle move after it merges into the same
    b-block).  Given stops, nondecreasing positions of u, it appends to
    states, at each stop m (and, in a pass, at the end), the claim
    (p, y) that u[:m] = witness[:p] * y, y at most two syllables (Cuts
    in the module docstring).  In a pass, of out only out[-1] changes
    later, so p = len(out) - 1 and y = out[-1:] a^carry; with no pass
    p = min(m, len(witness) - 1), 0 for an empty witness, and
    y = u[p:m].

    When ell >= 0 or the prefix is empty there is no pass: the witness
    is concat(prefix, a^(q ell)), the prefix itself when ell = 0, and
    steps is 0.  Otherwise the pass closes the witness with
    a^(carry + q ell), the fed delta^ell.
    """
    if not isinstance(nf, NormalForm):
        raise TypeError(f"sign_pass takes a NormalForm, not {type(nf).__name__}")
    prefix, ell = nf
    q = ctx.q
    if ell >= 0 or not prefix:  # the feed is the whole pass: w = prefix * delta^ell
        witness = concat(prefix, gen_power(GEN_A, q * ell)) if ell else prefix
        if states is not None:  # the witness is the prefix, bar its last syllable
            end = max(0, len(witness) - 1)
            states.extend((min(stop, end), prefix[min(stop, end) : stop]) for stop in stops)
        return SignResult(Sign.NEGATIVE if ell < 0 else Sign.POSITIVE if witness else Sign.IDENTITY, witness, 0)

    n = ctx.n
    handle, two_periods = _runs(n)
    out: list[Syllable] = []
    carry = 0  # the pending a-exponent
    i = 0
    for stop in stops + (len(prefix),):
        while i < stop:
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
            if exp > 1 and n > 1:
                out += handle * (exp - 1)
            carry = 1
            if exp == 1 and prefix[i : i + 4] == two_periods and i + 4 <= stop:
                # jump: u goes on (b a^(n-1))^k from here, k >= 2, up to the
                # stop.  The period is read from u: the normal form appends a
                # long run as one pair of syllable objects repeated, so most
                # comparisons are identities.
                period = prefix[i + 2 : i + 4]
                k = gallop(lambda j, c, stop=stop: i + 2 * (j + c) <= stop and prefix[i + 2 * j : i + 2 * (j + c)] == period * c)
                out[-1] = (GEN_B, out[-1][1] - (k - 1))
                carry = n
                i += 2 * k
            else:
                i += 1
        if states is not None:  # of out only out[-1] changes later
            states.append((max(0, len(out) - 1), tuple(out[-1:]) + gen_power(GEN_A, carry)))

    out += gen_power(GEN_A, carry + q * ell)  # out ends in a b-block or is empty: nothing to merge
    witness = tuple(out)
    if not (witness and is_one_signed(witness) and witness[0][1] < 0):
        raise ReductionStuck(f"cascade ended with a witness that is not all-negative: {witness}")
    return SignResult(Sign.NEGATIVE, witness, 1 + len(prefix))
