"""Command line interface: `heckeord --help` lists the subcommands.

COMMANDS maps each subcommand to (help text, own arguments, run); run
returns (payload, plain lines, exit status) for main to print as JSON
or, with --plain, as text.  Exit status: 0 clean; 1 violations found or
a witness failed its oracle check; 2 usage or parse error, also an
--elems file that is unreadable or holds no words, suite --max-len
outside 0..12 (for either --kind), converge --kmax outside 1..1000, b3
with any --n but 2 or a b3 sign word past the handle reduction's
budget (braid3.dehornoy_reduce); 3 internal error
(RewriteLimitError from the normal form's budget, ReductionStuck,
CertificateError from a b3 cone certificate): a bug, reported as one
JSON line on stderr.

sign joins the decision and its checker here: the oracle picks how its
witness check is cut into links (oracle.link_syllables), cone.certify_sign
decides and makes the interior cuts at that length, and
oracle.oracle_chain checks the chain.

When argv starts with a command name, main parses it with that command's
parser only, built on first use and reused for the life of the process
(in-process `sign --n 2 "a b a^-1"` 0.28 -> 0.09 ms; a one-shot process
builds one parser either way, so it is unchanged; see README).  Every
other argv (none, --help, an unknown command, an option or `--` before
the command) goes to the full tree, which build_parser builds anew.
Both paths print the same bytes.
"""

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time

from . import braid3, normalform, orderings, suites
from .cone import ReductionStuck, certify_sign
from .context import group_context
from .oracle import link_syllables, oracle_chain, oracle_report
from .words import RewriteLimitError, format_word, parse_word

_ORDERS = {"dd": orderings.DD(), "ddrev": orderings.DDReversed(), "dlike": orderings.DehornoyLike()}
_SYMBOLS = {"less": "<", "equal": "=", "greater": ">"}
_INTEGER = re.compile(r"[+-]?[0-9]+")  # what word exponents take; int() also takes "6_3", "٣" and " 3"


def _integer(text: str) -> int:
    """argparse type for --n, --max-len, --kmax and --radius: an ASCII integer."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _jobs(text: str) -> int:
    """argparse type for --jobs: an integer in 1..os.cpu_count()."""
    limit = os.cpu_count() or 1
    jobs = int(text) if _INTEGER.fullmatch(text) else 0
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(f"must be an integer in 1..{limit}, got {text!r}")
    return jobs


def _sign(args):
    ctx, word = group_context(args.n), parse_word(args.word)
    result, cuts = certify_sign(word, ctx, link_syllables(ctx))
    checked = oracle_chain(word, result.witness, cuts, ctx)
    text, witness, verdict = format_word(word), format_word(result.witness), result.verdict.value
    payload = dict(input=text, n=args.n, verdict=verdict, witness=witness, steps=result.steps)
    payload["oracle_checked"] = checked
    mark = "ok" if checked else "MISMATCH"
    lines = [f"{text}  is {verdict}  (n={args.n})", f"witness: {witness}  [oracle {mark}]"]
    return payload, lines, 0 if checked else 1


def _cmp(args):
    ctx = group_context(args.n)
    order = _ORDERS[args.order]
    if args.conj is not None:
        order = orderings.Conjugated(order, parse_word(args.conj))
    u, v = parse_word(args.u), parse_word(args.v)
    result = orderings.compare(u, v, order, ctx).value
    u, v = format_word(u), format_word(v)
    payload = dict(u=u, v=v, n=args.n, order=args.order, conjugator=args.conj, result=result)
    return payload, [f"{u} {_SYMBOLS[result]} {v}  ({args.order}, n={args.n})"], 0


def _nf(args):
    ctx, word = group_context(args.n), parse_word(args.word)
    nf = normalform.to_normal_form(word, ctx)
    text, prefix = format_word(word), format_word(nf.prefix)
    payload = dict(input=text, n=args.n, prefix=prefix, ell=nf.ell)
    return payload, [f"{text}  =  ({prefix}) * delta^{nf.ell}"], 0


def _oracle(args):
    ctx, word = group_context(args.n), parse_word(args.word)
    identity, projective, value = oracle_report(word, ctx)
    payload = dict(
        input=format_word(word), n=args.n, identity=identity, rho_projectively_trivial=projective, phi=value
    )
    lines = [f"identity: {identity}", f"rho projectively trivial: {projective},  phi: {value}"]
    return payload, lines, 0


def _ctx(args):
    ctx = group_context(args.n)
    lines = [
        f"G_{ctx.n} = <a, b | b a^{ctx.n} b = a>,  delta = a^{ctx.q} central",
        f"min poly of 2cos(pi/{ctx.q}): {ctx.min_poly}  phi(a)={ctx.phi_a} phi(b)={ctx.phi_b}",
    ]
    return dataclasses.asdict(ctx), lines, 0


def _b3(args):
    if args.n != 2:
        raise ValueError("b3 works in G_2 = B_3 only: n must be 2")
    if args.action == "sign":
        word = braid3.parse_sigma(args.word)
        reduced = braid3.dehornoy_reduce(word)
        positive = braid3.is_d_positive(reduced)  # handle-free: only the sign is read
        text, reduced = braid3.format_sigma(word), braid3.format_sigma(reduced)
        payload = dict(input=text, action="sign", d_positive=positive, reduced=reduced)
        return payload, [f"{text}: d-positive = {positive} (reduced: {reduced})"], 0
    if args.action == "bridge":
        if args.alphabet == "sigma":
            word = braid3.parse_sigma(args.word)
            text, image = braid3.format_sigma(word), format_word(braid3.sigma_to_ab(word))
        else:
            word = parse_word(args.word)
            text, image = format_word(word), braid3.format_sigma(braid3.ab_to_sigma(word))
        payload = dict(input=text, action="bridge", alphabet=args.alphabet, image=image)
        return payload, [f"{text}  ->  {image}"], 0
    word = parse_word(args.word)
    cert = braid3.cone_certify_b3(word)
    text = format_word(word)
    names = cert and dict(source=cert[0].name, target=cert[1].name)
    payload = dict(input=text, action="cert", certificate=names)
    if names is None:
        return payload, [f"{text}: no cone certificate (central/exceptional class)"], 0
    return payload, [f"{text}: maps {names['source']} into {names['target']}"], 0


def _converge(args):
    ctx = group_context(args.n)
    texts = ("b^-1", "a", "a b", "a b^2")
    if args.elems:
        with open(args.elems, encoding="utf-8") as fh:
            texts = [line.strip() for line in fh if line.strip()]
    report = orderings.convergence_experiment(ctx, tuple(map(parse_word, texts)), args.kmax)
    least = {"dehornoy_like": report.min_dehornoy_like, "conjugated": report.min_conjugated}
    minima = {key: None if word is None else format_word(word) for key, word in least.items()}
    rows = [(format_word(row.element), row.verdicts, row.stabilized_from) for row in report.rows]
    payload = dict(
        n=report.n,
        k_max=report.k_max,
        conjugators="b^k a",
        rows=[dict(element=e, verdicts=list(v), stabilized_from=k) for e, v, k in rows],
        minima=dict(minima, distinct=report.minima_distinct, ball=report.minima_ball),
    )
    lines = [f"conjugated orders by g_k = b^k a, k = 1..{report.k_max}  (n={report.n})"]
    for element, verdicts, stable in rows:
        marks = "".join("+" if v else "-" for v in verdicts)
        lines.append(f"  {element:12s} {marks}  stabilizes at k={stable}")
    lines.append(
        f"minima: dlike={minima['dehornoy_like']}  conjugated={minima['conjugated']}"
        f"  distinct={report.minima_distinct}"
    )
    return payload, lines, 0 if all(k is not None for _, _, k in rows) else 1


def _suite(args):
    ctx = group_context(args.n)
    suites.check_max_len(args.max_len)  # identities ignores it, but refuses it out of range too
    start = time.perf_counter()
    if args.kind == "trichotomy":
        report = suites.run_trichotomy_suite(ctx, args.max_len, jobs=args.jobs)
        violations = [dict(word=w, check=c, detail=d) for w, c, d in report.violations]
        payload = dict(dataclasses.asdict(report), violations=violations)
        lines = [
            f"trichotomy suite n={report.n} max_len={report.max_len}: "
            f"{report.total_words} words, counts={report.counts}",
            f"violations: {len(report.violations)}  ok={report.ok}",
        ]
    else:
        report = suites.run_identity_suite(ctx)
        payload = dataclasses.asdict(report)
        lines = [f"identity suite n={report.n}: ok={report.ok}"] + [
            f"  {c.name:24s} {'ok' if c.holds else 'FAIL'}: {c.lhs} = {c.rhs}"
            for c in report.checks
        ]
    payload.update(kind=args.kind, ok=report.ok, wall_time=round(time.perf_counter() - start, 6))
    return payload, lines, 0 if report.ok else 1


def _cayley(args):
    sys.stdout.write(suites.export_cayley_ball(group_context(args.n), args.radius, args.format))
    return None, None, 0


COMMANDS = {
    "sign": ("trichotomy verdict and one-signed witness", {"word": {}}, _sign),
    "cmp": (
        "compare two words in a left order",
        {
            "u": {},
            "v": {},
            "--order": dict(choices=tuple(_ORDERS), default="dd"),
            "--conj": dict(help="conjugate the order by this word"),
        },
        _cmp,
    ),
    "nf": ("central normal form prefix * delta^ell", {"word": {}}, _nf),
    "oracle": ("matrix oracle data for a word", {"word": {}}, _oracle),
    "ctx": ("group constants for n", {}, _ctx),
    "b3": (
        "3-strand braid bridge",
        {
            "action": dict(choices=("sign", "bridge", "cert")),
            "word": {},
            "--alphabet": dict(
                choices=("sigma", "ab"),
                default="sigma",
                help="input alphabet for the bridge action",
            ),
        },
        _b3,
    ),
    "converge": (
        "conjugated-order convergence experiment",
        {
            "--kmax": dict(type=_integer, default=5),
            "--elems": dict(help="file with one word per line"),
        },
        _converge,
    ),
    "suite": (
        "exhaustive self-check suites",
        {
            "--max-len": dict(type=_integer, default=6),
            "--jobs": dict(type=_jobs, default=1, help="worker processes, 1..cpu count"),
            "--kind": dict(choices=("trichotomy", "identities"), default="trichotomy"),
        },
        _suite,
    ),
    "cayley": (
        "Cayley ball export",
        {
            "--radius": dict(type=_integer, default=2),
            "--format": dict(choices=("dot", "json"), default="dot"),
        },
        _cayley,
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Give PARSER the options every command shares and command NAME's own."""
    parser.add_argument("--n", type=_integer, default=2, help="family parameter (default 2)")
    parser.add_argument("--plain", action="store_true", help="human-readable output")
    for flag, options in COMMANDS[name][1].items():
        parser.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeord",
        description="Exact sign, order and word-problem decisions in G_n = <a,b | b a^n b = a>.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Command NAME's parser, built once; parsing leaves nothing on it, so callers share it."""
    # add_parser(name) makes exactly ArgumentParser(prog="heckeord NAME"),
    # so usage, help and error text match the full tree's.
    parser = argparse.ArgumentParser(prog=f"heckeord {name}")
    _add_arguments(parser, name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ARGV; argparse prints its message and raises SystemExit on a usage error."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    args, extra = _command_parser(name).parse_known_args(argv[1:])
    if extra:  # the full tree reports these from the top-level parser
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = name
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    try:
        payload, lines, status = COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:  # bad input, or an unreadable --elems file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RewriteLimitError, ReductionStuck, braid3.CertificateError) as exc:
        error = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 3
    if payload is not None:
        print("\n".join(lines) if args.plain else json.dumps(payload, indent=2, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
