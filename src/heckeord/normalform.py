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
positive word, and each input syllable is pushed in closed form, in
O(1) steps plus the letters it writes.  a^m, and a^-m as a^(n m), merges
into the top a-block (r1 there).  b^k fires r2 while it lands on a top
a^n with a b-block under it; that loop is the rule, bounded by k.  b^-t
is written from the top of the stack, S being the rest of it, with the
r1/r2 firings it charges:

    onto S a^i:      S a^(i-1) (b a^(n-1))^(t-1) b a^n      t
    onto nothing:    a^n (b a^(n-1))^(t-1) b a^n, ell - 1   t - 1
    onto S b^s:      S b^(s-t) if s >= t (S at s = t)       2t
                     if s < t, cancel b^s (2s), then one of the first
                     two rows with t - s, less one if S ends in a^j, j < n

At i = 1 the first b merges into S's b-block; at n = 1 the period
b a^(n-1) is a bare b, so (b a^(n-1))^(t-1) b is b^t.  Net of delta^-t,
only the second row moves ell.  The prefix (and the sign cascade's
witness) still grow linearly in t as plain tuples; the cascade takes
that periodic tail one run at a time, while the oracle folds it one
syllable at a time.

The resulting prefix is irreducible: alternating positive syllables,
every a-exponent in [1, n], and no b...a^n...b factor.  A purely
positive input never decrements ell, so it ends with ell >= 0.

Powers of b.  From the empty stack the rows above give b^k its normal
form in closed form: the prefix b^k with ell 0 for k >= 0, and for
k = -t the second b^-t row, the prefix a^n (b a^(n-1))^(t-1) b a^n with
ell -1 (a b^t a at n = 1).  Every word equal to b^k reaches the same
form, so is_b_power reads off a word's normal form whether it is a
power of b, which is how the flipped orders find the subgroup <b>.

The pass is a left fold, and resume exposes it as one: its state is
(stack, ell, remaining budget), START is the state of the empty word,
and the state of u resumed over v is the state of u v.  So the stack
and ell of w x come from those of w in the work of the letter x, which
is how the ball walks resume each word from its parent; resume is the
pass on a copy of the stack plus its budget check, and to_normal_form
resumes from START.  The pass itself (_push) works on one list in
place, and stack_checkpoints runs one list through it chunk by chunk:
each checkpoint holds the stack's top and how much of the stack the
final prefix keeps, which is what sign's cuts are made of (cone).
"""

from __future__ import annotations

from typing import NamedTuple

from .context import GroupContext
from .words import _EXPONENT, GEN_A, GEN_B, RewriteLimitError, Syllable, Word


class ReductionStuck(RuntimeError):
    """A normal-form prefix is not a positive word (NormalForm,
    cone.verdict) or not irreducible (cone.verdict, the sign pass's
    witness check); a bug."""


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
            raise ReductionStuck(f"prefix is not a positive word: {prefix}")
        return tuple.__new__(cls, (prefix, ell))

    @classmethod
    def _make(cls, iterable) -> NormalForm:
        # The named tuple's own _make, which _replace calls too, would skip __new__.
        return cls(*iterable)


# The pass's state before any letter: empty stack, ell = 0, and the
# budget's slack (see _push).
START = ((), 0, 16)


def _push(stack: list[Syllable], ell: int, budget: int, word: Word, ctx: GroupContext) -> tuple[list[Syllable], int, int]:
    """The stack pass itself, on the list stack in place: returns (stack,
    ell, budget) after word.

    stack is an irreducible positive word, ell the central exponent so
    far and budget the rule firings still allowed.  Resuming from the
    state of u over v gives the stack and ell of u v wherever the split
    falls (the same positive letters are pushed), and a split between
    syllables also gives the same budget: the same rules fire.  Each
    syllable adds its letters after inverse elimination to the budget
    (a^-m gives n m of them, b^-t gives (2n+1) t) and every rule firing
    takes one; START holds a slack of 16.  A syllable costs O(1) steps
    plus the letters it writes, bar a b^k's r2 loop (at most k rounds),
    so the budget is checked once, at the end, as a tripwire (resume).

    It writes only at the top, through pop, del stack[-1], stack[-1] = x
    and appends, which is how stack_checkpoints, running one _Stack
    through it chunk by chunk, sees the lowest height a chunk wrote at.
    resume gives it a copy."""
    n, q = ctx.n, ctx.q
    top_a_n = (GEN_A, n)
    period = ((GEN_A, n - 1), (GEN_B, 1)) if n > 1 else ()  # (a^(n-1) b)
    for gen, exp in word:
        if gen == GEN_A:
            if exp < 0:
                ell += exp
                budget -= n * exp
                exp = -n * exp  # a^-m = a^(n m) delta^-m
            else:
                budget += exp
            if stack and stack[-1][0] == GEN_A:
                exp += stack.pop()[1]
            if exp >= q:
                # r1: absorb whole delta powers into the trailing exponent.
                ell += exp // q
                exp %= q
                budget -= 1
            if exp:
                stack.append((GEN_A, exp))
        elif exp >= 0:
            budget += exp
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
        else:
            # b^-t in closed form (module docstring); t = -exp.
            t = -exp
            budget += (2 * n + 1) * t
            if stack and stack[-1][0] == GEN_B:
                s = stack[-1][1]
                if s > t:
                    stack[-1] = (GEN_B, s - t)
                    budget -= 2 * t
                    continue
                del stack[-1]
                budget -= 2 * s
                t -= s
                if not t:
                    continue
                if stack and stack[-1][1] < n:
                    budget += 1  # a^2n lands on a^(j+1): one r1 for two deltas
            if stack:
                budget -= t
                i = stack.pop()[1]
                if i > 1:
                    stack.append((GEN_A, i - 1))
            else:
                budget -= t - 1
                ell -= 1
                stack.append(top_a_n)
            first = t if n == 1 else 1  # at n = 1 the period is a bare b
            if stack and stack[-1][0] == GEN_B:
                first += stack.pop()[1]
            stack.append((GEN_B, first))
            stack.extend(period * (t - 1))
            stack.append(top_a_n)
    return stack, ell, budget


def resume(state: tuple, word: Word, ctx: GroupContext) -> tuple[list[Syllable], int, int]:
    """Resume the stack pass (_push) from state = (stack, ell, budget)
    over word, on a copy of stack (any sequence of syllables; it is never
    changed), and return the state after word with the stack as a new
    list.  The budget is the tripwire: a negative budget left (more rule
    firings than letters, a bug) raises RewriteLimitError."""
    state = _push(list(state[0]), state[1], state[2], word, ctx)
    if state[2] < 0:
        raise RewriteLimitError("normal-form budget exhausted")
    return state


def stack_checkpoints(word: Word, ctx: GroupContext, every: int) -> tuple[NormalForm, list[tuple[int, int, int, Word, int]]]:
    """The normal form of word, and a checkpoint (k, ell, height, top,
    kept) every `every` syllables of it, the end of the word left out.

    The stack pass runs on one list, chunk by chunk.  At a checkpoint
    the stack S (height syllables) and ell hold S * delta^ell = word[:k];
    top is S's top `every` syllables, so the work and memory stay linear
    in the word whatever the height.  Each chunk records the lowest
    height it wrote at (_Stack), below which S lives on into the next
    checkpoint; kept, the least of these from the next chunk on, gives
    S[:kept] = prefix[:kept] for the final prefix, kept nondecreasing.
    The budget is checked once, at the end, as in resume.

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word
    >>> nf, checkpoints = stack_checkpoints(parse_word("a b^2 a^-1 b"), group_context(2), 2)
    >>> nf, checkpoints
    (NormalForm(prefix=((0, 1), (1, 1), (0, 1)), ell=-1), [(2, 0, 2, ((0, 1), (1, 2)), 1)])
    """
    stack, ell, budget = _Stack(), START[1], START[2]
    done, lows, checkpoints = 0, [], []
    for k in (*range(every, len(word), every), len(word)):
        stack.low = len(stack)
        stack, ell, budget = _push(stack, ell, budget, word[done:k], ctx)
        lows.append(stack.low)
        checkpoints.append((k, ell, len(stack), tuple(stack[-every:])))
        done = k
    if budget < 0:
        raise RewriteLimitError("normal-form budget exhausted")
    checkpoints.pop()  # the end of the word
    kept = len(stack)
    for j in reversed(range(len(checkpoints))):
        kept = min(kept, lows[j + 1])
        checkpoints[j] += (kept,)
    return NormalForm(tuple(stack), ell), checkpoints


class _Stack(list):
    """The list stack_checkpoints runs through the stack pass in place.
    low is the lowest height at which the pass popped, deleted or rewrote
    an entry since low was set: the pass writes only at its top, through
    these three and appends (_push), so stack[:low] is as it was.  The
    hot callers of the pass, on plain lists, pay nothing."""

    __slots__ = ("low",)

    def pop(self):
        if len(self) <= self.low:
            self.low = len(self) - 1
        return list.pop(self)

    def __delitem__(self, i):  # del stack[-1]
        if len(self) <= self.low:
            self.low = len(self) - 1
        list.__delitem__(self, i)

    def __setitem__(self, i, x):  # stack[-1] = x
        if len(self) <= self.low:
            self.low = len(self) - 1
        list.__setitem__(self, i, x)


def is_b_power(prefix: Word | list[Syllable], ell: int, ctx: GroupContext) -> bool:
    """Whether prefix * delta^ell, a normal-form prefix or stack and its
    ell, is the normal form of a power of b (module docstring): b^k with
    ell 0, or a^n (b a^(n-1))^(t-1) b a^n with ell -1.  O(1) steps plus
    C-level counts over two slices of the prefix.

    >>> from heckeord.context import group_context
    >>> from heckeord.words import parse_word
    >>> ctx = group_context(2)
    >>> is_b_power(*to_normal_form(parse_word("a^3 b^-2 a^-3"), ctx), ctx)
    True
    >>> is_b_power(*to_normal_form(parse_word("a^2 b^2 a^-1"), ctx), ctx)
    False
    """
    if not ell:
        return len(prefix) < 2 and (not prefix or prefix[0][0] == GEN_B)
    n, top = ctx.n, (GEN_A, ctx.n)
    if ell != -1 or not prefix or prefix[0] != top or prefix[-1] != top:
        return False
    if n == 1:  # the period b a^(n-1) is a bare b: a b^t a
        return len(prefix) == 3 and prefix[1][0] == GEN_B
    # b's at the odd places, a^(n-1) at the even ones between the two a^n.
    half = len(prefix) // 2
    return prefix[1::2].count((GEN_B, 1)) == half and prefix[2:-1:2].count((GEN_A, n - 1)) == half - 1


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
