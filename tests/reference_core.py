"""Test-only reference: the decision core as it was before the one-pass rewrite,
the stack pass as it was before its closed forms, the word parser as it
was before the table-driven one, and the word formatter as it was
before its per-call table.

The leftmost-first scanner (inverse elimination into a list, then r1/r2
with a backward rescan after every rewrite) and the sign cascade with
its per-syllable prepends, kept verbatim apart from their names so the
differential tests can demand identical normal forms and identical
SignResults (verdict, witness, steps) from the package's core.  The
stack pass pushes b^-t as a^n (b a^2n)^(t-1) b a^n one block at a time
through one generic loop; the tests demand the same (stack, ell,
budget) from the package's stack pass (`normalform._push`, under
`normalform.resume`) from every reachable state.  The
parser finds each term's offset with `text.index` as it goes and checks
every term, repeats included; the differential tests demand the same
word, or the same refusal message and offset, from `parse_word`.  The
formatter spells every syllable on its own; the tests demand the same
text from `format_word`.  The
word helpers these need, `concat` and `letter_length`, are local copies,
so a fault in the package's versions cannot hit both sides alike; the
parser merges its syllables through the local `concat` instead of
`word_from_syllables`, and the cascade spells each handle itself instead
of calling `cone.expand_handle`.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import accumulate
from operator import itemgetter

from heckeord.cone import ReductionStuck, Sign, SignResult
from heckeord.context import GroupContext
from heckeord.normalform import NormalForm
from heckeord.words import (
    ALPHABET_AB,
    GEN_A,
    GEN_B,
    MAX_LETTERS,
    RewriteLimitError,
    Syllable,
    Word,
    WordSyntaxError,
    gen_power,
    is_one_signed,
)


def concat(*parts: Word) -> Word:
    """Freely reduced concatenation, one syllable at a time."""
    out: list[Syllable] = []
    for part in parts:
        for gen, exp in part:
            if out and out[-1][0] == gen:
                merged = out[-1][1] + exp
                if merged:
                    out[-1] = (gen, merged)
                else:
                    out.pop()
            else:
                out.append((gen, exp))
    return tuple(out)


def letter_length(word: Word) -> int:
    return sum(abs(exp) for _, exp in word)


def reference_parse_word(text: str, alphabet: tuple[str, str] = ALPHABET_AB) -> Word:
    """Parse "a^2 b^-1 a" style text into a freely reduced word."""
    stripped = text.strip()
    if stripped == "1":
        return ()
    if not stripped:
        raise WordSyntaxError("empty input (write '1' for the identity)", 0)
    gen_of = {alphabet[0]: GEN_A, alphabet[1]: GEN_B}
    syllables: list[Syllable] = []
    pos = 0
    for token in text.split():
        offset = text.index(token, pos)
        pos = offset + len(token)
        name, sep, exp_text = token.partition("^")
        if name not in gen_of:
            raise WordSyntaxError(
                f"unknown generator {name!r} (alphabet: {alphabet[0]}, {alphabet[1]})",
                offset,
            )
        if sep:
            try:
                if not exp_text.isascii() or "_" in exp_text:
                    raise ValueError  # int() also takes "1_0" and non-ASCII digits
                exp = int(exp_text)
            except ValueError:
                raise WordSyntaxError(f"bad exponent {exp_text!r}", offset) from None
            if exp == 0:
                raise WordSyntaxError("zero exponent not allowed", offset)
        else:
            exp = 1
        syllables.append((gen_of[name], exp))
    if sum(map(abs, map(itemgetter(1), syllables))) > MAX_LETTERS:
        totals = accumulate(map(abs, map(itemgetter(1), syllables)))
        last = next(i for i, total in enumerate(totals) if total > MAX_LETTERS)
        offset = [token.start() for token in re.finditer(r"\S+", text)][last]
        raise WordSyntaxError(f"word has more than {MAX_LETTERS} letters", offset)
    return concat(syllables)


def reference_format_word(word: Word, alphabet: tuple[str, str] = ALPHABET_AB) -> str:
    """Inverse of parse_word; the identity prints as "1"."""
    if not word:
        return "1"
    parts = []
    for gen, exp in word:
        name = alphabet[gen]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def _push(sylls: list[Syllable], gen: int, exp: int) -> None:
    """Append gen^exp, merging with the last block (exponents same sign)."""
    if exp == 0:
        return
    if sylls and sylls[-1][0] == gen:
        sylls[-1] = (gen, sylls[-1][1] + exp)
    else:
        sylls.append((gen, exp))


def _eliminate_inverses(word: Word, n: int) -> tuple[list[Syllable], int]:
    """Phase 1: positive syllable list plus the collected central power."""
    out: list[Syllable] = []
    ell = 0
    for gen, exp in word:
        if exp > 0:
            _push(out, gen, exp)
        elif gen == GEN_A:
            ell += exp  # a^-m = a^(n m) delta^-m
            _push(out, GEN_A, n * (-exp))
        else:
            t = -exp  # b^-t = delta^-t a^n (b a^2n)^(t-1) b a^n
            ell -= t
            _push(out, GEN_A, n)
            for _ in range(t - 1):
                _push(out, GEN_B, 1)
                _push(out, GEN_A, 2 * n)
            _push(out, GEN_B, 1)
            _push(out, GEN_A, n)
    return out, ell


def _drop_block(sylls: list[Syllable], i: int) -> None:
    """Remove block i and merge the two (same-generator) neighbours."""
    del sylls[i]
    if 0 < i < len(sylls):
        gen, exp = sylls[i]
        assert sylls[i - 1][0] == gen
        sylls[i - 1] = (gen, sylls[i - 1][1] + exp)
        del sylls[i]


def reference_normal_form(word: Word, ctx: GroupContext) -> NormalForm:
    """Rewrite any word of G_n to NormalForm(prefix, ell)."""
    n, q = ctx.n, ctx.q
    sylls, ell = _eliminate_inverses(word, n)

    budget = sum(abs(e) for _, e in sylls) + 16
    i = 0
    while i < len(sylls):
        gen, exp = sylls[i]
        if gen == GEN_A:
            if exp >= q:
                # r1: absorb whole delta powers into the trailing exponent.
                ell += exp // q
                exp %= q
                if exp:
                    sylls[i] = (GEN_A, exp)
                else:
                    _drop_block(sylls, i)
                i = max(0, i - 3)
                budget -= 1
                if budget < 0:
                    raise RewriteLimitError("normal-form budget exhausted")
                continue
            if exp == n and 0 < i < len(sylls) - 1:
                # r2: b a^n b -> a on the innermost letters of the flanks.
                sylls[i] = (GEN_A, 1)
                left_gen, left_exp = sylls[i - 1]
                right_gen, right_exp = sylls[i + 1]
                assert left_gen == GEN_B and right_gen == GEN_B
                if right_exp > 1:
                    sylls[i + 1] = (GEN_B, right_exp - 1)
                else:
                    _drop_block(sylls, i + 1)
                if left_exp > 1:
                    sylls[i - 1] = (GEN_B, left_exp - 1)
                else:
                    _drop_block(sylls, i - 1)
                i = max(0, i - 3)
                budget -= 1
                if budget < 0:
                    raise RewriteLimitError("normal-form budget exhausted")
                continue
        i += 1
    return NormalForm(prefix=tuple(sylls), ell=ell)


def reference_stack_pass(state: tuple, word: Word, ctx: GroupContext) -> tuple[list[Syllable], int, int]:
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


def _prepend(negative: deque[Syllable], gen: int, exp: int) -> None:
    """Push gen^exp (exp < 0) on the left, merging equal generators."""
    if negative and negative[0][0] == gen:
        negative[0] = (gen, negative[0][1] + exp)
    else:
        negative.appendleft((gen, exp))


def reference_decide_sign(word: Word, ctx: GroupContext) -> SignResult:
    """Trichotomy verdict and one-signed witness for an arbitrary word."""
    nf = reference_normal_form(word, ctx)
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

    positive = list(nf.prefix)
    negative: deque[Syllable] = deque()
    ell = nf.ell
    steps = 0
    budget = 64 + 8 * (letter_length(nf.prefix) * (ctx.n + 1) + (-ell) + ctx.n)

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
            if p_gen == GEN_B and n_gen == GEN_A:
                # handle move: b^j a^-1 = a^-1 (a^-(n-1) b^-1)^j, or a^-1 b^-j at n = 1
                j = p_exp
                positive.pop()
                if n_exp == -1:
                    negative.popleft()
                else:
                    negative[0] = (GEN_A, n_exp + 1)
                handle = ((GEN_B, -j),) if ctx.n == 1 else ((GEN_A, 1 - ctx.n), (GEN_B, -1)) * j
                for gen, exp in reversed(handle):
                    _prepend(negative, gen, exp)
                _prepend(negative, GEN_A, -1)
                continue
        if ell < 0:
            _prepend(negative, GEN_A, -q)
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
