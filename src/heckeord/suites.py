"""Exhaustive self-check suites and small experiment drivers.

Everything here treats the rewriting machinery (normalform, cone) and
the matrix oracle as two independent computations of the same group
and demands they agree on every word of a ball.  A violation report
therefore always names a concrete word and the check it failed.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import os

from .cone import MIRROR, Sign, expand_handle, sign_pass, verdict
from .context import GroupContext
from .normalform import START, NormalForm, resume
from .oracle import element_key, oracle_is_identity, oracle_state, same_element
from .words import (
    ALPHABET_AB,
    GEN_A,
    GEN_B,
    SIGNED_LETTERS,
    Word,
    _ball,
    _ball_parts,
    _ball_tree,
    concat,
    format_word,
    gen_power,
    invert,
    is_one_signed,
    letter_length,
)

MAX_SUITE_LEN = 12  # the length-12 ball has 1,062,881 words
MEMO_FORMS = 8192  # the trichotomy walk forgets its normal forms at this many (see _walk)

@dataclasses.dataclass(frozen=True)
class SuiteReport:
    n: int
    max_len: int
    total_words: int
    counts: dict  # verdict -> how many ball words got it
    violations: tuple  # (word string, check name, detail) triples

    @property
    def ok(self) -> bool:
        return not self.violations


# Verdict codes of the mirror check: a word's own verdict sits in bits
# 0-1 of its byte, and the verdict its inverse implies for it, the
# MIRROR of the inverse's verdict, in bits 2-3.  A byte whose two
# halves differ marks a word whose inverse does not mirror it.
_SIGN_OF = (None, Sign.POSITIVE, Sign.NEGATIVE, Sign.IDENTITY)
_MIRROR_CODE = (0, 2, 1, 3)
_MISMATCH = bytes((x & 3) != (x >> 2) for x in range(256))


def _walk(ctx: GroupContext, max_len: int, first: int | None):
    """Examine one part of the ball (see _ball_tree) word by word.

    Per depth of the path, nf holds the normal form stack pass's state
    of the word and key its oracle state; a word resumes both from its
    parent's over its last letter, so it costs the work of that letter
    plus its checks.  Returns (counts by verdict code, the violations as
    (rank, triple) pairs, the mirror bytes of the whole ball with this
    part's entries set).

    Many ball words share a normal form: delta = a^(n+1) is central, so
    a b^-1 a b and b a b^-1 a are both b delta b at every n.  In one
    part of the length-8 ball 97 / 81 / 65 / 40 % of the words repeat
    an earlier form at n = 1 / 2 / 3 / 5, and 28 % at n = 63.  So the
    walk keeps a memo from a checked form (ell, *stack) to (verdict
    code, oracle state): a word that reaches a form with no entry runs
    the sign pass, the shape check and the witness fold, and only if it
    passes both is its form stored, with its state.  A later word of
    the form asks oracle.same_element whether it is the same element
    as that word, which makes it the witness too and passes both checks;
    only when it is not does it run the sign pass and the fold again,
    so a form that fails the normal form's promise is reported for
    every word it fails on.  Every word keeps its own count, mirror
    byte and oracle-agreement check.  An entry holds no witness
    (0.18 KB at n = 5, 0.29 KB at n = 63); the memo is emptied
    at MEMO_FORMS entries, more than a part of the length-8 ball holds
    at any n (at most 2,359 forms, at n = 63).
    """
    nf = [START] * (max_len + 1)
    key = [oracle_state((), ctx)] * (max_len + 1)
    counts = [0, 0, 0, 0]
    violations = []
    verdicts = bytearray(2 * 3**max_len - 1)
    memo = {}
    for word, last, depth, rank, inverse_rank in _ball_tree(max_len, first):
        if depth:
            nf[depth] = resume(nf[depth - 1], last, ctx)
            key[depth] = oracle_state(last, ctx, key[depth - 1])
        state = key[depth]
        stack, ell, _ = nf[depth]
        form = (ell, *stack)
        entry = memo.get(form)
        if entry is not None and same_element(state, entry[1], ctx):
            code, shape, equal = entry[0], None, True
        else:
            sign, witness, _ = sign_pass(NormalForm(tuple(stack), ell), ctx)
            shape = None
            if sign is Sign.IDENTITY:
                code = 3
                if witness != ():
                    shape = "identity verdict with nonempty witness"
            else:
                code = 1 if sign is Sign.POSITIVE else 2
                if not witness or not is_one_signed(witness) or (witness[0][1] > 0) != (code == 1):
                    shape = f"not one-signed for {sign.value}: {format_word(witness)}"
            # witness-equality: w witness^-1 = 1, which is w^-1 witness = 1
            # conjugated, folded on from w's state; trivial when witness is w.
            equal = witness == word or oracle_is_identity(invert(witness), ctx, state)
            if entry is None and equal and shape is None:
                if len(memo) >= MEMO_FORMS:
                    memo.clear()
                memo[form] = code, state
        if shape is not None:
            violations.append((rank, (format_word(word), "witness-shape", shape)))
        if not equal:
            detail = f"witness {format_word(witness)} is not the same element"
            violations.append((rank, (format_word(word), "witness-equality", detail)))
        if (code == 3) != oracle_is_identity((), ctx, state):
            detail = f"verdict {_SIGN_OF[code].value} contradicts the oracle"
            violations.append((rank, (format_word(word), "oracle-agreement", detail)))
        counts[code] += 1
        verdicts[rank] |= code
        verdicts[inverse_rank] |= _MIRROR_CODE[code] << 2
    return counts, violations, verdicts


def check_max_len(max_len: int) -> None:
    """A ValueError unless max_len is in 0..MAX_SUITE_LEN: the suites'
    ball length, which the CLI checks for every --kind."""
    if not 0 <= max_len <= MAX_SUITE_LEN:
        raise ValueError(f"max_len must be in 0..{MAX_SUITE_LEN}, got {max_len!r}")


def run_trichotomy_suite(ctx: GroupContext, max_len: int, jobs: int = 1) -> SuiteReport:
    """Check every word of the ball against the oracle, plus mirroring.

    Per word: the trichotomy verdict must match the oracle's identity
    test, the witness must be one-signed with the verdict's sign, and
    the witness must equal the word as a group element.  Across words:
    inverting a word must mirror its verdict.  The ball holds
    2 * 3^max_len - 1 words, so max_len is bounded to
    0..MAX_SUITE_LEN; jobs is the number of worker processes,
    1..os.cpu_count().  Values outside either range are a ValueError,
    raised before any word is examined.

    The ball is walked depth first as a tree (_ball_tree), in five
    parts (_ball_parts): the identity, and the words starting with a,
    a^-1, b, b^-1; jobs > 1 hands the parts to a worker pool.  Every
    word resumes the normal form and the oracle's state from its parent,
    so the work per word is one letter of each plus its checks.  delta
    is central, so many ball words share a normal form; each part runs
    the sign pass and the witness fold once per distinct form, and a
    later word of that form is checked by comparing its oracle state
    with the first one's (see _walk), in a memo of at most MEMO_FORMS
    forms.  The mirror check keeps 1 byte per word (its verdict and the
    one its inverse implies), in one bytearray per part, merged at the
    end; the walk itself holds O(max_len) state besides its memo.
    Violations come out as from a pass in ball order: the per-word ones
    by rank, then the mirror ones by rank.
    """
    check_max_len(max_len)
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise ValueError(f"jobs must be in 1..{limit}, got {jobs!r}")
    walk = functools.partial(_walk, ctx, max_len)
    if jobs > 1:
        import multiprocessing  # here, not at module load: only jobs > 1 needs it
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(walk, _ball_parts(max_len))
    else:
        results = map(walk, _ball_parts(max_len))

    counts = [0, 0, 0, 0]
    ranked = []
    merged = 0
    for part_counts, part_violations, part_verdicts in results:
        counts = list(map(operator.add, counts, part_counts))
        ranked += part_violations
        merged |= int.from_bytes(part_verdicts, "little")
    ranked.sort(key=operator.itemgetter(0))  # stable: a word's checks keep their order
    violations = [v for _, v in ranked]
    verdicts = merged.to_bytes(2 * 3**max_len - 1, "little")
    if 1 in verdicts.translate(_MISMATCH):
        # Rare: walk the ball once more for the words of the marked ranks.
        marked = {rank: word for word, _, _, rank, _ in _ball(max_len) if _MISMATCH[verdicts[rank]]}
        for rank, word in sorted(marked.items()):
            code = verdicts[rank]
            own, mirrored = _SIGN_OF[code & 3], MIRROR[_SIGN_OF[code >> 2]]
            detail = f"{own.value} vs {mirrored.value} for the inverse"
            violations.append((format_word(word), "inverse-mirror", detail))
    return SuiteReport(
        n=ctx.n,
        max_len=max_len,
        total_words=sum(counts),
        counts={s.value: counts[code] for code, s in enumerate(_SIGN_OF) if s},
        violations=tuple(violations),
    )


@dataclasses.dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: str
    rhs: str
    holds: bool


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    n: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)


def run_identity_suite(ctx: GroupContext) -> IdentityReport:
    """Oracle-check a battery of word identities that the rewriting
    machinery relies on (centrality, the handle identity, conjugation
    formulas).  Each is stated as lhs = rhs and tested as lhs rhs^-1 = 1.
    """
    n = ctx.n
    a, b = gen_power(GEN_A, 1), gen_power(GEN_B, 1)
    delta = gen_power(GEN_A, ctx.q)
    pairs: list[tuple[str, Word, Word]] = [
        ("relator", concat(b, gen_power(GEN_A, n), b), a),
        ("center-vs-a", concat(delta, a), concat(a, delta)),
        ("center-vs-b", concat(delta, b), concat(b, delta)),
        ("b-inverse-elimination", concat(invert(a), b, gen_power(GEN_A, n)), invert(b)),
    ]
    for k in range(1, 6):
        pairs.append(
            (
                f"handle-k{k}",
                concat(a, gen_power(GEN_B, k), invert(a)),
                expand_handle(k, ctx),
            )
        )
    for r in range(1, 6):
        conj = concat(invert(a), gen_power(GEN_B, -r), a)
        rhs = concat(*([concat(gen_power(GEN_A, n - 1), b)] * r))
        pairs.append((f"flip-b-power-r{r}", conj, rhs))
    if n >= 2:
        # The crossing product (ab)^-2 (ab^2) (ab)^4 rewrites to a single
        # descending staircase; its all-but-last letters are negative, so
        # no order with a, b positive can be Conradian.
        ab = concat(a, b)
        lhs = concat(invert(ab), invert(ab), a, b, b, ab, ab, ab, ab)
        block = concat(gen_power(GEN_A, -(n - 2)), invert(b))
        rhs = concat(
            gen_power(GEN_B, -2), block, block, block, gen_power(GEN_A, -(n - 1)), b
        )
        pairs.append(("crossing-expansion", lhs, rhs))

    checks = []
    for name, lhs, rhs in pairs:
        holds = oracle_is_identity(concat(lhs, invert(rhs)), ctx)
        checks.append(IdentityCheck(name, format_word(lhs), format_word(rhs), holds))
    return IdentityReport(n=ctx.n, checks=tuple(checks))


def verify_family_identity(m: int, n: int) -> bool:
    """Oriented-rewrite check in the two-parameter group
    < a, b | b^-1 a^m b^-1 = a^n >:  the word

        W = a^(1-n) b^-1 a^(m+n-1) a^(1-n) b^-1

    must rewrite to the single letter a using only free reduction and
    the oriented rule b^-1 a^m b^-1 -> a^n (consuming one b^-1 letter
    from each flanking block; the a-exponent must match exactly).
    W holds exactly two b^-1 letters and a firing uses both, so the rule
    fires at most once: apply the one redex, if there is one, and
    compare with a.
    """
    if m < 1 or n < 1:
        raise ValueError("family parameters must be >= 1")
    w = concat(
        gen_power(GEN_A, 1 - n),
        gen_power(GEN_B, -1),
        gen_power(GEN_A, m + n - 1),
        gen_power(GEN_A, 1 - n),
        gen_power(GEN_B, -1),
    )
    # Syllables alternate generators, so the neighbours of a^m are b-blocks.
    redex = (i for i in range(1, len(w) - 1) if w[i] == (GEN_A, m) and w[i - 1][1] < 0 and w[i + 1][1] < 0)
    i = next(redex, None)
    if i is not None:
        x, y = w[i - 1][1], w[i + 1][1]
        w = concat(w[: i - 1], gen_power(GEN_B, x + 1), gen_power(GEN_A, n), gen_power(GEN_B, y + 1), w[i + 2 :])
    return w == ((GEN_A, 1),)


def build_cayley_ball(ctx: GroupContext, radius: int) -> dict:
    """BFS ball of the Cayley graph (right multiplication), with one
    node per group element — deduplicated by the exact element key, so
    distinct words for the same element collapse.

    One pass finds the nodes and the a- and b-edges between them: every
    element within the radius is found before the last level is scanned,
    and that level is scanned for a and b only.  The result is the JSON
    document the export prints: n, radius, the nodes in BFS discovery
    order and the edges in the order of their source nodes.
    """
    name_of = {element_key((), ctx): "1"}
    words: list[Word] = [()]
    nodes, edges = [], []
    for w in words:  # grows while it is scanned: breadth-first order
        source = format_word(w)
        stack, ell, _ = resume(START, w, ctx)
        nodes.append({"word": source, "verdict": verdict(stack, ell, ctx).value})
        inside = letter_length(w) < radius  # its letter length is its BFS depth
        for gen, exp in SIGNED_LETTERS:
            if exp < 0 and not inside:
                continue
            nxt = concat(w, ((gen, exp),))
            key = element_key(nxt, ctx)
            if inside and key not in name_of:
                name_of[key] = format_word(nxt)
                words.append(nxt)
            if exp > 0 and key in name_of:
                edge = {"from": source, "to": name_of[key], "generator": ALPHABET_AB[gen], "direction": "right"}
                edges.append(edge)
    return {"n": ctx.n, "radius": radius, "nodes": nodes, "edges": edges}


_VERDICT_FILL = {
    "positive": ("black", "white"),
    "negative": ("white", "black"),
    "identity": ("gray", "black"),
}


def render_cayley_dot(ball: dict) -> str:
    """Graphviz source of a build_cayley_ball document; positive
    elements filled black, negative white, the identity gray — the sign
    structure is visible at a glance.
    """
    lines = [
        f"digraph cayley_n{ball['n']}_r{ball['radius']} {{",
        '  node [shape=circle fontname="monospace"];',
    ]
    for node in ball["nodes"]:
        word = node["word"]
        fill, font = _VERDICT_FILL[node["verdict"]]
        lines.append(f'  "{word}" [style=filled fillcolor={fill} fontcolor={font}];')
    for edge in ball["edges"]:
        source, target, gen = edge["from"], edge["to"], edge["generator"]
        color = "black" if gen == "a" else "steelblue"
        lines.append(f'  "{source}" -> "{target}" [label={gen} color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_cayley_ball(ctx: GroupContext, radius: int, fmt: str) -> str:
    import json

    if not 0 <= radius <= 6:
        raise ValueError("cayley export supports radius 0..6")
    ball = build_cayley_ball(ctx, radius)
    if fmt == "dot":
        return render_cayley_dot(ball)
    if fmt == "json":
        return json.dumps(ball, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown Cayley export format {fmt!r}")
