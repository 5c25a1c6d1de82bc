"""Command line interface.

Subcommands:

    sign      trichotomy verdict + one-signed witness for a word
    cmp       compare two words in a chosen left order
    nf        central normal form  prefix * delta^ell
    oracle    matrix/abelianization oracle data for a word
    ctx       group constants for a given n
    b3        braid bridge: sigma-positivity, bridges, cone certificates
    converge  conjugated-order convergence experiment
    suite     exhaustive self-check suites (trichotomy / identities)
    cayley    Cayley ball export (dot or json)

Output is JSON (sorted keys) unless --plain is given.  Exit status:
0 = clean, 1 = a suite/experiment reported violations or a witness
failed its oracle check, 2 = usage or parse error, 3 = internal error
(a rewriting step cap was exceeded or the sign cascade got stuck; a
bug, reported as one JSON line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import braid3, orderings, suites
from .cone import ReductionStuck, decide_sign
from .context import group_context, ring_of
from .normalform import to_normal_form
from .oracle import oracle_is_identity, phi, rho
from .algebra import proj_is_identity
from .words import (
    RewriteLimitError,
    WordSyntaxError,
    concat,
    format_word,
    invert,
    parse_word,
)

_DEFAULT_CONVERGE_ELEMENTS = ("b^-1", "a", "a b", "a b^2")


def _order_spec(name: str, conj: str | None):
    base = {
        "dd": orderings.DD(),
        "ddrev": orderings.DDReversed(),
        "dlike": orderings.DehornoyLike(),
    }[name]
    if conj is not None:
        return orderings.Conjugated(base, parse_word(conj))
    return base


def _jobs(text: str) -> int:
    """argparse type for --jobs: an integer in 1..os.cpu_count()."""
    limit = os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(f"must be an integer in 1..{limit}, got {text!r}")
    return jobs


def _emit(payload: dict, plain_lines, args) -> None:
    if getattr(args, "plain", False):
        for line in plain_lines:
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_sign(args) -> int:
    ctx = group_context(args.n)
    word = parse_word(args.word)
    result = decide_sign(word, ctx)
    checked = oracle_is_identity(concat(invert(word), result.witness), ctx)
    payload = {
        "input": format_word(word),
        "n": args.n,
        "verdict": result.verdict.value,
        "witness": format_word(result.witness),
        "steps": result.steps,
        "oracle_checked": checked,
    }
    _emit(
        payload,
        [
            f"{format_word(word)}  is {result.verdict.value}  (n={args.n})",
            f"witness: {format_word(result.witness)}  [oracle {'ok' if checked else 'MISMATCH'}]",
        ],
        args,
    )
    return 0 if checked else 1


def _cmd_cmp(args) -> int:
    ctx = group_context(args.n)
    spec = _order_spec(args.order, args.conj)
    u, v = parse_word(args.u), parse_word(args.v)
    rel = orderings.compare(u, v, spec, ctx)
    payload = {
        "u": format_word(u),
        "v": format_word(v),
        "n": args.n,
        "order": args.order,
        "conjugator": args.conj,
        "result": rel.value,
    }
    symbol = {"less": "<", "equal": "=", "greater": ">"}[rel.value]
    _emit(payload, [f"{format_word(u)} {symbol} {format_word(v)}  ({args.order}, n={args.n})"], args)
    return 0


def _cmd_nf(args) -> int:
    ctx = group_context(args.n)
    word = parse_word(args.word)
    nf = to_normal_form(word, ctx)
    payload = {
        "input": format_word(word),
        "n": args.n,
        "prefix": format_word(nf.prefix),
        "ell": nf.ell,
    }
    _emit(payload, [f"{format_word(word)}  =  ({format_word(nf.prefix)}) * delta^{nf.ell}"], args)
    return 0


def _cmd_oracle(args) -> int:
    ctx = group_context(args.n)
    word = parse_word(args.word)
    ring = ring_of(ctx)
    payload = {
        "input": format_word(word),
        "n": args.n,
        "identity": oracle_is_identity(word, ctx),
        "rho_is_identity": proj_is_identity(ring, rho(word, ctx)),
        "phi": phi(word, ctx),
    }
    _emit(
        payload,
        [
            f"identity: {payload['identity']}",
            f"rho projectively trivial: {payload['rho_is_identity']},  phi: {payload['phi']}",
        ],
        args,
    )
    return 0


def _cmd_ctx(args) -> int:
    ctx = group_context(args.n)
    payload = {
        "n": ctx.n,
        "q": ctx.q,
        "min_poly": list(ctx.min_poly),
        "phi_a": ctx.phi_a,
        "phi_b": ctx.phi_b,
    }
    _emit(
        payload,
        [
            f"G_{ctx.n} = <a, b | b a^{ctx.n} b = a>,  delta = a^{ctx.q} central",
            f"min poly of 2cos(pi/{ctx.q}): {ctx.min_poly}  phi(a)={ctx.phi_a} phi(b)={ctx.phi_b}",
        ],
        args,
    )
    return 0


def _cmd_b3(args) -> int:
    if args.action == "sign":
        word = braid3.parse_sigma(args.word)
        reduced = braid3.dehornoy_reduce(word)
        payload = {
            "input": braid3.format_sigma(word),
            "action": "sign",
            "d_positive": braid3.is_d_positive(word),
            "reduced": braid3.format_sigma(reduced),
        }
        _emit(
            payload,
            [f"{payload['input']}: d-positive = {payload['d_positive']} (reduced: {payload['reduced']})"],
            args,
        )
        return 0
    if args.action == "bridge":
        if args.alphabet == "sigma":
            word = braid3.parse_sigma(args.word)
            image = braid3.sigma_to_ab(word)
            payload = {
                "input": braid3.format_sigma(word),
                "action": "bridge",
                "alphabet": "sigma",
                "image": format_word(image),
            }
        else:
            word = parse_word(args.word)
            image = braid3.ab_to_sigma(word)
            payload = {
                "input": format_word(word),
                "action": "bridge",
                "alphabet": "ab",
                "image": braid3.format_sigma(image),
            }
        _emit(payload, [f"{payload['input']}  ->  {payload['image']}"], args)
        return 0
    # cert
    word = parse_word(args.word)
    cert = braid3.cone_certify_b3(word)
    payload = {
        "input": format_word(word),
        "action": "cert",
        "certificate": None
        if cert is None
        else {"source": cert[0].name, "target": cert[1].name},
    }
    if cert is None:
        _emit(payload, [f"{payload['input']}: no cone certificate (central/exceptional class)"], args)
    else:
        _emit(payload, [f"{payload['input']}: maps {cert[0].name} into {cert[1].name}"], args)
    return 0


def _cmd_converge(args) -> int:
    ctx = group_context(args.n)
    if args.elems:
        with open(args.elems, encoding="utf-8") as fh:
            texts = [line.strip() for line in fh if line.strip()]
    else:
        texts = list(_DEFAULT_CONVERGE_ELEMENTS)
    elements = tuple(parse_word(t) for t in texts)
    report = orderings.convergence_experiment(ctx, elements, args.kmax)
    payload = {
        "n": report.n,
        "k_max": report.k_max,
        "conjugators": "b^k a",
        "rows": [
            {
                "element": format_word(row.element),
                "verdicts": list(row.verdicts),
                "stabilized_from": row.stabilized_from,
            }
            for row in report.rows
        ],
        "minima": {
            "dehornoy_like": format_word(report.min_dehornoy_like)
            if report.min_dehornoy_like is not None
            else None,
            "conjugated": format_word(report.min_conjugated)
            if report.min_conjugated is not None
            else None,
            "distinct": report.minima_distinct,
            "ball": report.minima_ball,
        },
    }
    unstable = [r for r in report.rows if r.stabilized_from is None]
    lines = [f"conjugated orders by g_k = b^k a, k = 1..{report.k_max}  (n={report.n})"]
    for row in report.rows:
        marks = "".join("+" if v else "-" for v in row.verdicts)
        lines.append(f"  {format_word(row.element):12s} {marks}  stabilizes at k={row.stabilized_from}")
    lines.append(
        f"minima: dlike={payload['minima']['dehornoy_like']}  conjugated={payload['minima']['conjugated']}"
        f"  distinct={report.minima_distinct}"
    )
    _emit(payload, lines, args)
    return 1 if unstable else 0


def _cmd_suite(args) -> int:
    ctx = group_context(args.n)
    start = time.perf_counter()
    if args.kind == "trichotomy":
        report = suites.run_trichotomy_suite(ctx, args.max_len, jobs=args.jobs)
        payload = {
            "kind": "trichotomy",
            "n": report.n,
            "max_len": report.max_len,
            "total_words": report.total_words,
            "counts": report.counts,
            "violations": [
                {"word": w, "check": c, "detail": d} for w, c, d in report.violations
            ],
            "ok": report.ok,
            "wall_time": round(time.perf_counter() - start, 6),
        }
        lines = [
            f"trichotomy suite n={report.n} max_len={report.max_len}: "
            f"{report.total_words} words, counts={report.counts}",
            f"violations: {len(report.violations)}  ok={report.ok}",
        ]
    else:
        report = suites.run_identity_suite(ctx)
        payload = {
            "kind": "identities",
            "n": report.n,
            "checks": [_check_dict(c) for c in report.checks],
            "ok": report.ok,
            "wall_time": round(time.perf_counter() - start, 6),
        }
        lines = [f"identity suite n={report.n}: ok={report.ok}"] + [
            f"  {c.name:24s} {'ok' if c.holds else 'FAIL'}: {c.lhs} = {c.rhs}"
            for c in report.checks
        ]
    _emit(payload, lines, args)
    return 0 if report.ok else 1


def _check_dict(check) -> dict:
    return {"name": check.name, "lhs": check.lhs, "rhs": check.rhs, "holds": check.holds}


def _cmd_cayley(args) -> int:
    ctx = group_context(args.n)
    sys.stdout.write(suites.export_cayley_ball(ctx, args.radius, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeord",
        description="Exact sign, order and word-problem decisions in G_n = <a,b | b a^n b = a>.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=2, help="family parameter (default 2)")
        p.add_argument("--plain", action="store_true", help="human-readable output")
        p.set_defaults(handler=handler)
        return p

    p = add("sign", "trichotomy verdict and one-signed witness", _cmd_sign)
    p.add_argument("word")

    p = add("cmp", "compare two words in a left order", _cmd_cmp)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--order", choices=("dd", "ddrev", "dlike"), default="dd")
    p.add_argument("--conj", default=None, help="conjugate the order by this word")

    p = add("nf", "central normal form prefix * delta^ell", _cmd_nf)
    p.add_argument("word")

    p = add("oracle", "matrix oracle data for a word", _cmd_oracle)
    p.add_argument("word")

    add("ctx", "group constants for n", _cmd_ctx)

    p = add("b3", "3-strand braid bridge", _cmd_b3)
    p.add_argument("action", choices=("sign", "bridge", "cert"))
    p.add_argument("word")
    p.add_argument(
        "--alphabet",
        choices=("sigma", "ab"),
        default="sigma",
        help="input alphabet for the bridge action",
    )

    p = add("converge", "conjugated-order convergence experiment", _cmd_converge)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--elems", default=None, help="file with one word per line")

    p = add("suite", "exhaustive self-check suites", _cmd_suite)
    p.add_argument("--max-len", type=int, default=6, dest="max_len")
    p.add_argument("--jobs", type=_jobs, default=1, help="worker processes, 1..cpu count")
    p.add_argument("--kind", choices=("trichotomy", "identities"), default="trichotomy")

    p = add("cayley", "Cayley ball export", _cmd_cayley)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except WordSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RewriteLimitError, ReductionStuck) as exc:
        error = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
