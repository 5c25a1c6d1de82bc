"""Rewriting to the central normal form  w = u * delta^ell  in G_n.

delta = a^(n+1) generates the center of G_n = < a, b | b a^n b = a >.
Every word rewrites to a positive prefix u times a central power:

Inverse elimination.  The relator gives closed forms for both inverse
letters in terms of positive letters and delta^-1:

    a^-1 = a^n * delta^-1
    b^-1 = delta^-1 * a^n b a^n
    b^-t = delta^-t * a^n (b a^2n)^(t-1) b a^n

Since delta is central, the delta^-1 factors are swept into a single
trailing exponent ell.

Positive reduction.  Two rules, both consequences of the relator:

    r1:  a^m  ->  a^(m mod (n+1)) * delta^(m div (n+1))   when m >= n+1
    r2:  b^s a^n b^t  ->  b^(s-1) a b^(t-1)               when s, t >= 1

(r2 is the relator b a^n b = a applied to the innermost letters.)
Termination: r2 strictly decreases the b-letter count, r1 the a-letter
count with b-letters unchanged, so (b-letters, a-letters) drops
lexicographically.  The one overlap that is not a plain power of a,
b a^n b a^n b, rewrites both ways to b * delta, so the system is
confluent and every rewriting order reaches the same prefix and ell.

One pass over a stack does both phases.  The stack holds an irreducible
positive word; each syllable of the inverse elimination is pushed onto
it as it is produced.  A push can only create a redex at the top: a^m
merges into the top a-block (r1 there), and a b onto a top a^n with a
b-block under it fires r2, whose result again only touches the top.
So each rewrite runs at the end of the list, and the whole pass costs
amortised O(1) per letter after inverse elimination: every r2 removes
b-letters for good and every r1 a-letters.  b^-t adds t b-letters and
2nt a-letters.  Once the top is a^(n-1) (n >= 2), each further (b, a^2n)
becomes (b, a^(n-1)) plus one delta, so that steady state is appended
in bulk.  The prefix (and the sign cascade's witness) still grow
linearly in t as plain tuples; the cascade takes that periodic tail
one run at a time, while the oracle folds it one syllable at a time.

The resulting prefix is irreducible: alternating positive syllables,
every a-exponent in [1, n], and no b...a^n...b factor.  A purely
positive input never decrements ell, so it ends with ell >= 0.

The pass is a left fold, and stack_pass exposes it as one: its state
is (stack, ell, remaining budget), START is the state of the empty
word, and the state of u resumed over v is the state of u v.  So the
stack and ell of w x come from those of w in the work of the letter x,
which is how the ball walks resume each word from its parent; resume
is the pass plus its budget check, and to_normal_form resumes from START.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .context import GroupContext
from .words import GEN_A, GEN_B, RewriteLimitError, Syllable, Word


class NormalFormError(RuntimeError):
    """A NormalForm was built with a prefix that is not a positive word (a bug)."""


_EXPONENT = itemgetter(1)


class _NormalForm(NamedTuple):
    prefix: Word
    ell: int


class NormalForm(_NormalForm):
    """A word in the form prefix * delta^ell, prefix a positive word.

    A named tuple (immutable, hashable, equal by its fields), so that the
    ball walks, which build one per word, pay about a tuple's cost.  The
    check runs in __new__, so it is real code under python -O.
    """

    __slots__ = ()

    def __new__(cls, prefix: Word, ell: int):
        if prefix and min(map(_EXPONENT, prefix)) <= 0:
            raise NormalFormError(f"prefix is not a positive word: {prefix}")
        return tuple.__new__(cls, (prefix, ell))

    @classmethod
    def _make(cls, iterable) -> NormalForm:
        # The named tuple's own _make, which _replace calls too, would skip __new__.
        return cls(*iterable)


# The pass's state before any letter: empty stack, ell = 0, and the
# budget's slack (see stack_pass).
START = ((), 0, 16)


def stack_pass(state: tuple, word: Word, ctx: GroupContext) -> tuple[list[Syllable], int, int]:
    """Resume the stack pass from state = (stack, ell, budget) over word.

    stack is an irreducible positive word (any sequence of syllables; it
    is copied, never changed), ell the central exponent so far and
    budget the rule firings still allowed.  Returns the state after
    word, with the stack as a new list.  Resuming from the state of u
    over v gives the stack and ell of u v wherever the split falls (the
    same positive letters are pushed), and a split between syllables
    also gives the same budget: the same rules fire.

    Each syllable adds its letters after inverse elimination to the
    budget (a^-m gives n m of them, b^-t gives (2n+1) t) and every rule
    firing takes one; START holds a slack of 16.  Every loop below ends
    by construction, so the caller checks the budget once, at the end,
    as a tripwire: negative means more firings than letters, a bug.
    """
    n, q = ctx.n, ctx.q
    top_a_n = (GEN_A, n)
    steady = (GEN_A, n - 1)  # never on the stack for n = 1
    stack, ell, budget = state
    stack = list(stack)
    for gen, exp in word:
        pairs = 0  # (b, a^2n) / (b, a^n) pairs still to push for b^-t
        if exp < 0:
            ell += exp
            if gen == GEN_A:
                budget -= n * exp
                exp = -n * exp  # a^-m = a^(n m) delta^-m
            else:
                budget -= (2 * n + 1) * exp
                pairs = -exp  # b^-t = delta^-t a^n (b a^2n)^(t-1) b a^n
                gen, exp = GEN_A, n
        else:
            budget += exp
        while True:
            if gen == GEN_A:
                merge = bool(stack) and stack[-1][0] == GEN_A
                if merge:
                    exp += stack[-1][1]
                if exp >= q:
                    # r1: absorb whole delta powers into the trailing exponent.
                    ell += exp // q
                    exp %= q
                    budget -= 1
                if not exp:
                    if merge:
                        del stack[-1]
                elif merge:
                    stack[-1] = (GEN_A, exp)
                else:
                    stack.append((GEN_A, exp))
                if not pairs:
                    break
                if pairs > 1 and stack and stack[-1] == steady:
                    # Steady state of b^-t: each (b, a^2n) now becomes
                    # (b, a^(n-1)) and one r1 firing, so append them at once.
                    k = pairs - 1
                    stack.extend(((GEN_B, 1), steady) * k)
                    ell += k
                    budget -= k
                    pairs = 1
                gen, exp = GEN_B, 1
                continue
            while exp and len(stack) > 1 and stack[-1] == top_a_n:
                # r2: b^s a^n b -> b^(s-1) a, one pushed b at a time.
                budget -= 1
                exp -= 1
                del stack[-1]
                b_exp = stack[-1][1]
                if b_exp > 1:
                    stack[-1] = (GEN_B, b_exp - 1)
                    stack.append((GEN_A, 1))
                    continue
                del stack[-1]
                if not stack:
                    stack.append((GEN_A, 1))
                elif stack[-1][1] < n:
                    stack[-1] = (GEN_A, stack[-1][1] + 1)
                else:
                    # a^n at the bottom grew to a^(n+1) = delta (r1).
                    del stack[-1]
                    ell += 1
                    budget -= 1
            if exp:
                if stack and stack[-1][0] == GEN_B:
                    stack[-1] = (GEN_B, stack[-1][1] + exp)
                else:
                    stack.append((GEN_B, exp))
            if not pairs:
                break
            pairs -= 1
            gen, exp = GEN_A, 2 * n if pairs else n
    return stack, ell, budget


def resume(state: tuple, word: Word, ctx: GroupContext) -> tuple[list[Syllable], int, int]:
    """stack_pass from state over word, with its budget tripwire: a
    negative budget left (more firings than letters, a bug) raises."""
    state = stack_pass(state, word, ctx)
    if state[2] < 0:
        raise RewriteLimitError("normal-form budget exhausted")
    return state


def to_normal_form(word: Word, ctx: GroupContext) -> NormalForm:
    """Rewrite any word of G_n to NormalForm(prefix, ell).

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word, format_word
    >>> nf = to_normal_form(parse_word("b^-2"), group_context(2))
    >>> format_word(nf.prefix), nf.ell
    ('a^2 b a b a^2', -1)
    """
    stack, ell, _ = resume(START, word, ctx)
    return NormalForm(prefix=tuple(stack), ell=ell)
