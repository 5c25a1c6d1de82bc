"""Three-strand braids: handle reduction, sigma-positivity, and the
explicit isomorphism with G_2 = < a, b | b a^2 b = a >.

B_3 = < s1, s2 | s1 s2 s1 = s2 s1 s2 > matches G_2 under

    a -> s1 s2        s1 -> a b
    b -> s2^-1        s2 -> b^-1

(one checks b a^2 b = a maps to the braid relation and the two maps
are mutually inverse).  Under this dictionary the flipped-subgroup
order on G_2 corresponds to the classical sigma-ordering of braids:
positive iff some representative word has only positive s1 letters
(or no s1 and a positive s2 power).

Sigma-positivity is decided by handle reduction: a handle is a factor
s1^d (pure s2 block) s1^-d; replacing it via

    s1^d s2^m s1^-d  =  s2^-d s1^m s2^d

strictly simplifies the word (Dehornoy's termination theorem), and a
handle-free word has all its s1 letters of one sign.

The module also produces integer-matrix certificates of non-triviality
for positive words, by ping-pong on projective cones.  The oracle's
rho at n = 2 (lam = 1), conjugated by J = [[0, 1], [1, 0]], which swaps
rows and columns and so reads the entries of rho(word) backwards, gives

    abar = J rho(a) J = [[0, 1], [-1, 1]]     (order 3:  abar^3 = -I)
    bbar = J rho(b) J = [[1, 0], [1, 1]]      (infinite order, lower unipotent)

in PSL(2, Z), with bbar abar^2 bbar = abar.  With U = {x > y > 0},
V = {0 < x < y} one gets bbar^j(closure Q) in closure(V) for the whole
first quadrant Q, abar(closure V) in closure(U), and
abar^2(closure U) in closure(V).  A word whose cyclic reduction
alternates suitably therefore maps one cone strictly inside another —
impossible for +-identity, so the word is certified nontrivial.
Every certificate is checked on exact rays before it is returned; a
failed check raises CertificateError.

The cyclic reduction (a^3 -> 1, b a^2 b -> a around the cycle) takes
normal forms of rotations.  A word in normal form keeps a redex only
across its ends, spanning at most 4 letters; rotated by half its length,
a word of 6 or more letters holds it in the middle (shorter words try
every rotation).  Each step removes at least 3 letters, so the whole
reduction costs at most one normal form per letter removed, plus one.
"""

from __future__ import annotations

import enum

from .context import group_context
from .normalform import to_normal_form
from .oracle import rho
from .words import (
    ALPHABET_SIGMA,
    GEN_A,
    GEN_B,
    Word,
    concat,
    format_word,
    letter_length,
    parse_word,
    word_from_syllables,
)

S1, S2 = GEN_A, GEN_B  # sigma words reuse the two-generator machinery


class CertificateError(RuntimeError):
    """A result of this module failed its own check (a bug)."""


def parse_sigma(text: str) -> Word:
    return parse_word(text, ALPHABET_SIGMA)


def format_sigma(word: Word) -> str:
    return format_word(word, ALPHABET_SIGMA)


def _bridge(word: Word) -> Word:
    """x -> x y, y -> y^-1: both bridge maps, as this is an involution."""
    parts: list[Word] = []
    for gen, exp in word:
        if gen == GEN_A:
            block = ((GEN_A, 1), (GEN_B, 1)) if exp > 0 else ((GEN_B, -1), (GEN_A, -1))
            parts.append(block * abs(exp))
        else:
            parts.append(((GEN_B, -exp),))
    return concat(*parts)


def sigma_to_ab(sigma_word: Word) -> Word:
    """Image of a braid word in G_2:  s1 -> a b,  s2 -> b^-1."""
    return _bridge(sigma_word)


def ab_to_sigma(word: Word) -> Word:
    """Image of a G_2 word in B_3:  a -> s1 s2,  b -> s2^-1."""
    return _bridge(word)


_HANDLE_CAP = 200_000  # the moves one reduction may make (see dehornoy_reduce)


def dehornoy_reduce(sigma_word: Word) -> Word:
    """Reduce the leftmost s1-handle until none remains.

    The result represents the same braid and has all s1 letters of a
    single sign (possibly none).

    The syllable list is edited in place.  A move writes the handle's
    replacement, freely reduced, over its three syllables, cancels it
    against its neighbours as far as they reach, and the scan for the
    next handle resumes two syllables before the first one that
    changed: every syllable further left is as it was, and no handle
    started there.

    Reduction terminates, but its moves grow faster than the word
    (README), so one reduction makes at most _HANDLE_CAP of them: a word
    that needs more is refused with a ValueError, as a word over the
    letter limit is.

    >>> format_sigma(dehornoy_reduce(parse_sigma("s1 s2 s1^-1")))
    's2^-1 s1 s2'
    """
    sylls = list(sigma_word)
    start = 0
    for _ in range(_HANDLE_CAP + 1):  # the last scan finds no handle
        for i in range(start, len(sylls) - 2):
            x_gen, x_exp = sylls[i]
            y_gen, y_exp = sylls[i + 2]
            if x_gen == S1 and y_gen == S1 and (x_exp > 0) != (y_exp > 0):
                break
        else:
            return tuple(sylls)
        m = sylls[i + 1][1]
        d = 1 if x_exp > 0 else -1
        middle = list(word_from_syllables(((S1, x_exp - d), (S2, -d), (S1, m), (S2, d), (S1, y_exp + d))))
        lo, hi = i, i + 3
        while True:  # free reduction where middle meets sylls[:lo] and sylls[hi:]
            if middle:
                if lo and sylls[lo - 1][0] == middle[0][0]:
                    lo -= 1
                    gen, exp = sylls[lo]
                    end = 0
                elif hi < len(sylls) and sylls[hi][0] == middle[-1][0]:
                    gen, exp = sylls[hi]
                    hi += 1
                    end = -1
                else:
                    break
                exp += middle[end][1]
                if exp:
                    middle[end] = (gen, exp)
                else:
                    del middle[end]
            elif lo and hi < len(sylls) and sylls[lo - 1][0] == sylls[hi][0]:
                lo -= 1
                middle = [sylls[lo]]
            else:
                break
        sylls[lo:hi] = middle
        start = max(lo - 2, 0)
    raise ValueError(f"handle reduction needs more than {_HANDLE_CAP} moves")


def is_d_positive(sigma_word: Word) -> bool:
    """Sigma-positivity of a braid: handle-reduce, then read the sign.

    The identity braid is not positive.  A handle-free word with s1
    letters has them all of one sign; without s1 the word is a power
    of s2 and its exponent decides.
    """
    reduced = dehornoy_reduce(sigma_word)
    if not reduced:
        return False
    s1_signs = {exp > 0 for gen, exp in reduced if gen == S1}
    if s1_signs:
        if len(s1_signs) != 1:
            raise CertificateError("handle reduction left s1 letters of both signs")
        return s1_signs.pop()
    return reduced[0][1] > 0  # pure s2 power


class ConeRegion(enum.Enum):
    U = "x>y>0"
    V = "0<x<y"


_RAYS = {
    ConeRegion.U: ((1, 0), (1, 1), (2, 1)),  # two extreme rays + interior sample
    ConeRegion.V: ((0, 1), (1, 1), (1, 2)),
}


def _apply_ray(m, ray):
    x, y = ray
    out = (m[0] * x + m[1] * y, m[2] * x + m[3] * y)
    if out[0] < 0 or (out[0] == 0 and out[1] < 0):
        out = (-out[0], -out[1])  # projective sign normalization
    return out


def _in_closure(region: ConeRegion, ray) -> bool:
    x, y = ray
    if x == 0 and y == 0:
        return False
    if region is ConeRegion.U:
        return x >= y >= 0
    return 0 <= x <= y


def _in_interior(region: ConeRegion, ray) -> bool:
    x, y = ray
    if region is ConeRegion.U:
        return x > y > 0
    return 0 < x < y


def _certified(m, source: ConeRegion, target: ConeRegion) -> bool:
    r1, r2, sample = _RAYS[source]
    return (
        _in_closure(target, _apply_ray(m, r1))
        and _in_closure(target, _apply_ray(m, r2))
        and _in_interior(target, _apply_ray(m, sample))
    )


def _verified(word: Word, source: ConeRegion, target: ConeRegion) -> tuple[ConeRegion, ConeRegion]:
    """(source, target) once the rays confirm it for the word's integer
    matrix (rho at n = 2, swapped), else CertificateError."""
    m = tuple(x for (x,) in reversed(rho(word, group_context(2))))
    if not _certified(m, source, target):
        raise CertificateError(f"{m} does not map {source.name} into {target.name}")
    return source, target


def cone_certify_b3(word: Word) -> tuple[ConeRegion, ConeRegion] | None:
    """Certify a positive G_2 word nontrivial by a cone containment.

    Returns (X, Y) meaning: some conjugate of the word, with central
    a^3 factors removed, maps closure(X) into closure(Y) under the
    integer matrices above.  Since X is not contained in Y, the matrix
    cannot be +-identity, so the word is not a central power and in
    particular not trivial.  Returns None for the uncertifiable
    classes: central powers, conjugates of powers of s1 = a b (cyclic
    words with all exponents 1), and the half-twist class
    cyclic(a^2 b) = s1 s2 s1 (whose square is central).

    The input must be a positive word (every exponent > 0).  A
    certificate that fails its ray check raises CertificateError.

    >>> cone_certify_b3(parse_word("b^3"))
    (<ConeRegion.U: 'x>y>0'>, <ConeRegion.V: '0<x<y'>)
    >>> cone_certify_b3(parse_word("a"))
    (<ConeRegion.V: '0<x<y'>, <ConeRegion.U: 'x>y>0'>)
    >>> cone_certify_b3(parse_word("a b")) is None
    True
    """
    if any(exp < 0 for _, exp in word):
        raise ValueError("cone certification expects a positive word")
    nf = to_normal_form(word, group_context(2))
    if nf.ell < 0:
        raise CertificateError("a positive word got a negative central exponent")
    word = _cyclic_reduce(nf.prefix)
    if not word:
        return None

    if len(word) == 1:
        if word[0] == (GEN_A, 1):  # a-exponents are 1 or 2 in normal form
            return _verified(word, ConeRegion.V, ConeRegion.U)
        if word[0] == (GEN_A, 2):
            return _verified(word, ConeRegion.U, ConeRegion.V)
        # b-powers absorb both cones into V; the returned pair records
        # the U face, and both halves are ray-verified so the
        # certificate means closure(U) ∪ closure(V) -> V.
        cert = _verified(word, ConeRegion.U, ConeRegion.V)
        _verified(word, ConeRegion.V, ConeRegion.V)
        return cert

    if sorted(word) == [(GEN_A, 2), (GEN_B, 1)]:
        return None  # half-twist class
    if all(e == 1 for _, e in word):
        return None  # conjugate of a power of s1 = a b
    if any(e != 1 for g, e in word if g == GEN_A):
        raise CertificateError("a reduced mixed word kept an a-exponent other than 1")

    # Rotate so the word starts with one letter of a thick b-block and
    # ends with the rest of it: b (ab-alternation) b^(j-1).  Every a in
    # the product then sees V-input and every b-power Q-input.
    i = next(idx for idx, (g, e) in enumerate(word) if g == GEN_B and e >= 2)
    linear = ((GEN_B, 1),) + word[i + 1 :] + word[:i] + ((GEN_B, word[i][1] - 1),)
    return _verified(linear, ConeRegion.U, ConeRegion.V)


def _rotated(word: Word, h: int) -> Word:
    """A positive word rotated left by h letters, 0 <= h < its letter
    length; the old ends may meet as two syllables of one generator."""
    for i, (gen, exp) in enumerate(word):
        if h < exp:
            if not h:
                return word[i:] + word[:i]
            return ((gen, exp - h),) + word[i + 1 :] + word[:i] + ((gen, h),)
        h -= exp


def _cyclic_reduce(word: Word) -> Word:
    """Cyclic reduction of a positive word in normal form, up to rotation
    (see the module docstring).  Merging same-generator ends comes last,
    so the result is one syllable or alternates with even length."""
    ctx = group_context(2)
    letters = letter_length(word)
    while letters > 1:
        for h in (letters // 2,) if letters >= 6 else range(1, letters):
            reduced = to_normal_form(_rotated(word, h), ctx).prefix
            if letter_length(reduced) < letters:
                word, letters = reduced, letter_length(reduced)
                break
        else:
            break
    if len(word) > 1 and word[0][0] == word[-1][0]:
        word = to_normal_form(word[-1:] + word[:-1], ctx).prefix
    return word
