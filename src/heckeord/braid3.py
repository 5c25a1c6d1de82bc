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
for positive words, by ping-pong on projective cones: in PSL(2, Z)

    abar = [[0, 1], [-1, 1]]     (order 3:  abar^3 = -I)
    bbar = [[1, 0], [1, 1]]      (infinite order, lower unipotent)

satisfy bbar abar^2 bbar = abar, and with U = {x > y > 0},
V = {0 < x < y} one gets bbar^j(closure Q) in closure(V) for the whole
first quadrant Q, abar(closure V) in closure(U), and
abar^2(closure U) in closure(V).  A word whose cyclic reduction
alternates suitably therefore maps one cone strictly inside another —
impossible for +-identity, so the word is certified nontrivial.
Every certificate is checked on exact rays before it is returned; a
failed check raises CertificateError.
"""

from __future__ import annotations

import enum

from .context import group_context
from .normalform import to_normal_form
from .words import (
    ALPHABET_SIGMA,
    GEN_A,
    GEN_B,
    RewriteLimitError,
    Word,
    concat,
    format_word,
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


def sigma_to_ab(sigma_word: Word) -> Word:
    """Image of a braid word in G_2:  s1 -> a b,  s2 -> b^-1."""
    parts: list[Word] = []
    for gen, exp in sigma_word:
        if gen == S1:
            block = ((GEN_A, 1), (GEN_B, 1)) if exp > 0 else ((GEN_B, -1), (GEN_A, -1))
            parts.append(block * abs(exp))
        else:
            parts.append(((GEN_B, -exp),))
    return concat(*parts)


def ab_to_sigma(word: Word) -> Word:
    """Image of a G_2 word in B_3:  a -> s1 s2,  b -> s2^-1."""
    parts: list[Word] = []
    for gen, exp in word:
        if gen == GEN_A:
            block = ((S1, 1), (S2, 1)) if exp > 0 else ((S2, -1), (S1, -1))
            parts.append(block * abs(exp))
        else:
            parts.append(((S2, -exp),))
    return concat(*parts)


_HANDLE_CAP = 200_000  # tripwire only; reduction provably terminates


def dehornoy_reduce(sigma_word: Word) -> Word:
    """Reduce the leftmost s1-handle until none remains.

    The result represents the same braid and has all s1 letters of a
    single sign (possibly none).

    >>> format_sigma(dehornoy_reduce(parse_sigma("s1 s2 s1^-1")))
    's2^-1 s1 s2'
    """
    sylls = list(sigma_word)
    for _ in range(_HANDLE_CAP):
        target = None
        for i in range(len(sylls) - 2):
            x = sylls[i]
            y = sylls[i + 2]
            if x[0] == S1 and y[0] == S1 and (x[1] > 0) != (y[1] > 0):
                target = i
                break
        if target is None:
            return tuple(sylls)
        i = target
        x_exp = sylls[i][1]
        m = sylls[i + 1][1]
        y_exp = sylls[i + 2][1]
        d = 1 if x_exp > 0 else -1
        replacement = [
            (S1, x_exp - d),
            (S2, -d),
            (S1, m),
            (S2, d),
            (S1, y_exp + d),
        ]
        sylls = list(word_from_syllables(sylls[:i] + replacement + sylls[i + 3 :]))
    raise RewriteLimitError("handle reduction budget exhausted")


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


# The PSL(2, Z) pair used for cone certificates (see module docstring).
_ABAR = (0, 1, -1, 1)
_ABAR2 = (-1, 1, -1, 0)
_BBAR = (1, 0, 1, 1)

_RAYS = {
    ConeRegion.U: ((1, 0), (1, 1), (2, 1)),  # two extreme rays + interior sample
    ConeRegion.V: ((0, 1), (1, 1), (1, 2)),
}


def _imat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


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


def _verified(m, source: ConeRegion, target: ConeRegion) -> tuple[ConeRegion, ConeRegion]:
    """(source, target) once m's rays confirm it, else CertificateError."""
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
    ctx = group_context(2)
    nf = to_normal_form(word, ctx)
    if nf.ell < 0:
        raise CertificateError("a positive word got a negative central exponent")
    blocks = [list(s) for s in nf.prefix]  # mutable [gen, exp] pairs

    blocks = _cyclic_reduce(blocks)
    if not blocks:
        return None

    if len(blocks) == 1:
        gen, exp = blocks[0]
        if gen == GEN_A:  # exp is 1 or 2 after the mod-3 normalization
            if exp == 1:
                return _verified(_ABAR, ConeRegion.V, ConeRegion.U)
            return _verified(_ABAR2, ConeRegion.U, ConeRegion.V)
        # b-powers absorb both cones into V; the returned pair records
        # the U face, and both halves are ray-verified so the
        # certificate means closure(U) ∪ closure(V) -> V.
        m = (1, 0, exp, 1)  # bbar^exp, a lower shear
        cert = _verified(m, ConeRegion.U, ConeRegion.V)
        _verified(m, ConeRegion.V, ConeRegion.V)
        return cert

    a_exps = [e for g, e in blocks if g == GEN_A]
    b_exps = [e for g, e in blocks if g == GEN_B]
    if sorted((g, e) for g, e in blocks) == [(GEN_A, 2), (GEN_B, 1)]:
        return None  # half-twist class
    if all(e == 1 for e in a_exps) and all(e == 1 for e in b_exps):
        return None  # conjugate of a power of s1 = a b
    if any(e != 1 for e in a_exps):
        raise CertificateError("a reduced mixed word kept an a-exponent other than 1")

    # Rotate so the word starts with one letter of a thick b-block and
    # ends with the rest of it: b (ab-alternation) b^(j-1).  Every a in
    # the product then sees V-input and every b-power Q-input.
    i = next(idx for idx, (g, e) in enumerate(blocks) if g == GEN_B and e >= 2)
    j = blocks[i][1]
    linear = [(GEN_B, 1)] + blocks[i + 1 :] + blocks[:i] + [(GEN_B, j - 1)]
    m = (1, 0, 0, 1)
    for gen, exp in linear:
        m = _imat_mul(m, _ABAR if gen == GEN_A else (1, 0, exp, 1))  # bbar^exp
    return _verified(m, ConeRegion.U, ConeRegion.V)


def _cyclic_normalize(blocks: list[list[int]]) -> list[list[int]]:
    """Canonicalize a cyclic positive word: a-exponents mod 3 (a^3 is
    central and projectively trivial), zero blocks dropped, adjacent and
    wrap-around same-generator blocks merged.  Afterwards the block list
    is alternating with even length, or has at most one block.
    """
    stable = False
    while not stable:
        stable = True
        for blk in blocks:
            if blk[0] == GEN_A and blk[1] >= 3:
                blk[1] %= 3
                stable = False
        if any(blk[1] == 0 for blk in blocks):
            blocks[:] = [blk for blk in blocks if blk[1] != 0]
            stable = False
        i = 0
        while i + 1 < len(blocks):
            if blocks[i][0] == blocks[i + 1][0]:
                blocks[i][1] += blocks[i + 1][1]
                del blocks[i + 1]
                stable = False
            else:
                i += 1
        if len(blocks) >= 2 and blocks[0][0] == blocks[-1][0]:
            blocks[0][1] += blocks[-1][1]
            blocks.pop()
            stable = False
    return blocks


def _cyclic_reduce(blocks: list[list[int]]) -> list[list[int]]:
    """Reduce a cyclic positive word by a^3 -> 1 and b a^2 b -> a.

    Every relator step removes two b letters, so this terminates
    without a budget.
    """
    blocks = _cyclic_normalize(blocks)
    while len(blocks) >= 2:
        # find a cyclic relator redex: a^2 with b letters on both sides
        for idx, (gen, exp) in enumerate(blocks):
            if gen != GEN_A or exp != 2:
                continue
            if len(blocks) == 2:
                other = 1 - idx  # the single b block wraps both flanks
                if blocks[other][1] < 2:
                    continue  # cyclic(a^2 b), the half-twist: no move
                blocks[idx][1] = 1
                blocks[other][1] -= 2
            else:  # alternating even length >= 4: flanks are distinct b blocks
                blocks[idx][1] = 1
                blocks[(idx - 1) % len(blocks)][1] -= 1
                blocks[(idx + 1) % len(blocks)][1] -= 1
            blocks = _cyclic_normalize(blocks)
            break
        else:
            break
    return blocks
