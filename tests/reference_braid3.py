"""Test-only references for `braid3`.

The B_3 cone certificate as it was before it used the package's
rewriting core and matrix oracle.  It has its own integer model of
PSL(2, Z) (abar, bbar and a 2x2 product) and its own cyclic rewriting
(a^3 -> 1 and b a^2 b -> a on a mutable block list, rescanned to a
fixpoint), kept verbatim apart from their names so the tests can demand
the same certificates from `braid3.cone_certify_b3`.
The normal form comes from `reference_core`, and the cone test is its own
(`maps_into`: each region as its two edge rays, tested by cross
products); only the region names (`ConeRegion`) are shared with the
package.

Handle reduction as it was before it edited its syllable list in place
(`reference_dehornoy_reduce`), verbatim but for the names of the
generators and of the move cap, so the tests can demand the same reduced
words from `braid3.dehornoy_reduce`.
"""

from __future__ import annotations

from heckeord.braid3 import CertificateError, ConeRegion
from heckeord.context import group_context
from heckeord.words import GEN_A, GEN_B, RewriteLimitError, Word, word_from_syllables

from reference_core import reference_normal_form

# The PSL(2, Z) pair: abar^3 = -I and bbar abar^2 bbar = abar.
ABAR = (0, 1, -1, 1)
ABAR2 = (-1, 1, -1, 0)
BBAR = (1, 0, 1, 1)


def imat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def integer_model(word: Word):
    """The word's image under a -> abar, b -> bbar, one letter at a time."""
    m = (1, 0, 0, 1)
    for gen, exp in word:
        letter = ABAR if gen == GEN_A else BBAR
        for _ in range(exp):
            m = imat_mul(m, letter)
    return m


# Each region's closed cone between two edge rays, counterclockwise:
# U = {x > y > 0} from (1, 0) to (1, 1), V = {0 < x < y} from (1, 1) to (0, 1).
EDGES = {ConeRegion.U: ((1, 0), (1, 1)), ConeRegion.V: ((1, 1), (0, 1))}


def cross(r, s) -> int:
    return r[0] * s[1] - r[1] * s[0]


def inside(ray, region: ConeRegion, strict: bool) -> bool:
    """Whether ray or -ray lies in the region's cone, open when strict."""
    lo, hi = EDGES[region]
    for r in (ray, (-ray[0], -ray[1])):
        left, right = cross(lo, r), cross(r, hi)
        if (left > 0 and right > 0) if strict else (left >= 0 and right >= 0 and r != (0, 0)):
            return True
    return False


def maps_into(m, source: ConeRegion, target: ConeRegion) -> bool:
    """Whether m maps source's closed cone into target's, up to sign: both
    edge rays land in target's closed cone, and their sum, an interior
    ray, in its open one."""
    lo, hi = EDGES[source]

    def image(r):
        return (m[0] * r[0] + m[1] * r[1], m[2] * r[0] + m[3] * r[1])

    middle = (lo[0] + hi[0], lo[1] + hi[1])
    return inside(image(lo), target, False) and inside(image(hi), target, False) and inside(image(middle), target, True)


def _verified(m, source: ConeRegion, target: ConeRegion) -> tuple[ConeRegion, ConeRegion]:
    if not maps_into(m, source, target):
        raise CertificateError(f"{m} does not map {source.name} into {target.name}")
    return source, target


def reference_cone_certify_b3(word: Word) -> tuple[ConeRegion, ConeRegion] | None:
    """The old `braid3.cone_certify_b3`, on the integer model."""
    if any(exp < 0 for _, exp in word):
        raise ValueError("cone certification expects a positive word")
    nf = reference_normal_form(word, group_context(2))
    if nf.ell < 0:
        raise CertificateError("a positive word got a negative central exponent")
    blocks = [list(s) for s in nf.prefix]  # mutable [gen, exp] pairs

    blocks = reference_cyclic_reduce(blocks)
    if not blocks:
        return None

    if len(blocks) == 1:
        gen, exp = blocks[0]
        if gen == GEN_A:  # exp is 1 or 2 after the mod-3 normalization
            if exp == 1:
                return _verified(ABAR, ConeRegion.V, ConeRegion.U)
            return _verified(ABAR2, ConeRegion.U, ConeRegion.V)
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

    i = next(idx for idx, (g, e) in enumerate(blocks) if g == GEN_B and e >= 2)
    j = blocks[i][1]
    linear = [(GEN_B, 1)] + blocks[i + 1 :] + blocks[:i] + [(GEN_B, j - 1)]
    m = (1, 0, 0, 1)
    for gen, exp in linear:
        m = imat_mul(m, ABAR if gen == GEN_A else (1, 0, exp, 1))  # bbar^exp
    return _verified(m, ConeRegion.U, ConeRegion.V)


def _cyclic_normalize(blocks: list[list[int]]) -> list[list[int]]:
    """Canonicalize a cyclic positive word: a-exponents mod 3, zero
    blocks dropped, adjacent and wrap-around same-generator blocks merged.
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


def reference_cyclic_reduce(blocks: list[list[int]]) -> list[list[int]]:
    """Reduce a cyclic positive word by a^3 -> 1 and b a^2 b -> a."""
    blocks = _cyclic_normalize(blocks)
    while len(blocks) >= 2:
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


def reference_dehornoy_reduce(sigma_word: Word) -> Word:
    """The old `braid3.dehornoy_reduce`: after every handle move it
    rescans from the left and rebuilds the whole word."""
    sylls = list(sigma_word)
    for _ in range(200_000):
        target = None
        for i in range(len(sylls) - 2):
            x = sylls[i]
            y = sylls[i + 2]
            if x[0] == GEN_A and y[0] == GEN_A and (x[1] > 0) != (y[1] > 0):
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
            (GEN_A, x_exp - d),
            (GEN_B, -d),
            (GEN_A, m),
            (GEN_B, d),
            (GEN_A, y_exp + d),
        ]
        sylls = list(word_from_syllables(sylls[:i] + replacement + sylls[i + 3 :]))
    raise RewriteLimitError("handle reduction budget exhausted")
