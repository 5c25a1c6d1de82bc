"""Span tracing of the heckeord layers, installed from outside the package.

`install` replaces the public entry points of each module (listed in
WRAPPED) by timing wrappers, everywhere the package binds them, so
calls between modules are seen too.  Small helpers that run millions of
times per workload (concat, invert, letter_length, CosRing.mul) are not
wrapped: their time counts as self time of the layer that calls them.

Each wrapped call records one span: name, start, end, parent span and
op id (the benchmark task being run, SETUP_OP during set-up).  Spans
stay in flat arrays in memory and are written out by `dump`.  Counts
that need a call's arguments or result are added by per-function hooks
after the span has ended.
"""

from __future__ import annotations

import array
import collections
import functools
import gzip
import sys
import time

SETUP_OP = -1

# layer (module of src/heckeord) -> wrapped public functions
WRAPPED = {
    "cli": ("main",),
    "words": ("parse_word", "format_word"),
    "context": ("group_context", "ring_of"),
    "algebra": ("mat_mul", "mat_pow"),
    "normalform": ("to_normal_form",),
    "cone": ("decide_sign",),
    "oracle": ("rho", "oracle_is_identity", "oracle_equal", "b_power_of", "element_key"),
    "orderings": (
        "is_positive",
        "compare",
        "smallest_positive_in_ball",
        "convexity_check",
        "convergence_experiment",
    ),
    "braid3": ("dehornoy_reduce", "is_d_positive", "ab_to_sigma", "sigma_to_ab", "cone_certify_b3"),
    "suites": ("run_trichotomy_suite", "run_identity_suite", "build_cayley_ball"),
}


def _letters(word) -> int:
    return sum(abs(exp) for _, exp in word)


def _mat_mul_hook(counts, args, result):
    counts["algebra.coeff_mults"] += 8 * args[0].deg ** 2


def _rho_hook(counts, args, result):
    counts["oracle.rho_syllables"] += len(args[0])


def _nf_hook(counts, args, result):
    counts["normalform.letters_in"] += _letters(args[0])
    counts["normalform.prefix_letters_out"] += _letters(result.prefix)


def _sign_hook(counts, args, result):
    counts["cone.steps"] += result.steps
    counts["cone.cascades"] += result.steps > 0
    counts["cone.witness_letters"] += _letters(result.witness)


def _compare_hook(counts, args, result):
    counts["orderings.equal_results"] += result.value == "equal"


def _suite_hook(counts, args, result):
    counts["suites.words_examined"] += result.total_words


HOOKS = {
    "algebra.mat_mul": _mat_mul_hook,
    "oracle.rho": _rho_hook,
    "normalform.to_normal_form": _nf_hook,
    "cone.decide_sign": _sign_hook,
    "orderings.compare": _compare_hook,
    "suites.run_trichotomy_suite": _suite_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("H")
        self.parent = array.array("l")
        self.op = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.op_id = SETUP_OP
        self.counts: collections.Counter = collections.Counter()

    def wrap(self, span_name: str, func, hook=None):
        name_idx = len(self.names)
        self.names.append(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_idx)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return functools.update_wrapper(traced, func)

    def dump(self, path: str) -> None:
        """Write the spans as gzip'd text: id parent name op start_ns end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\top\tstart_ns\tend_ns\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t{self.op[i]}\t"
                    f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
                )


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the package, which must already be imported (cli included)."""
    modules = [m for k, m in sys.modules.items() if k == "heckeord" or k.startswith("heckeord.")]
    for layer, funcs in WRAPPED.items():
        mod = sys.modules[f"heckeord.{layer}"]
        for fname in funcs:
            span = f"{layer}.{fname}"
            orig = getattr(mod, fname)
            _rebind(modules, orig, tracer.wrap(span, orig, HOOKS.get(span)))

    words = sys.modules["heckeord.words"]
    enumerate_reduced = words.enumerate_reduced

    @functools.wraps(enumerate_reduced)
    def counted_enumeration(*args, **kwargs):
        for word in enumerate_reduced(*args, **kwargs):
            tracer.counts["words.enumerated_words"] += 1
            yield word

    _rebind(modules, enumerate_reduced, counted_enumeration)

    # braid3 calls word_from_syllables once per handle move; count only
    # that binding, since parse_word uses the same function.
    braid3 = sys.modules["heckeord.braid3"]
    word_from_syllables = braid3.word_from_syllables

    @functools.wraps(word_from_syllables)
    def counted_handle_move(*args, **kwargs):
        tracer.counts["braid3.handle_moves"] += 1
        return word_from_syllables(*args, **kwargs)

    braid3.word_from_syllables = counted_handle_move


def layer_metrics(tracer: Tracer, duration) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from spans and hooks.

    duration(start, end) turns a span's interval into the seconds reported.
    """
    names, name, parent, op = tracer.names, tracer.name, tracer.parent, tracer.op
    layer_of = [n.split(".", 1)[0] for n in names]
    compare_idx = names.index("orderings.compare")
    total = len(tracer.start)
    dur = [duration(tracer.start[i], tracer.end[i]) for i in range(total)]
    child = [0.0] * total
    in_compare = [False] * total
    calls: collections.Counter = collections.Counter()
    inclusive: collections.Counter = collections.Counter()
    self_s: collections.Counter = collections.Counter()
    setup_context_s = 0.0
    oracle_in_compare = 0
    for i in range(total):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
        layer = layer_of[name[i]]
        in_compare[i] = name[i] == compare_idx or (p >= 0 and in_compare[p])
        if layer == "oracle" and p >= 0 and in_compare[p] and layer_of[name[p]] != "oracle":
            oracle_in_compare += 1
    for i in range(total):
        span = names[name[i]]
        layer = layer_of[name[i]]
        own = dur[i] - child[i]
        calls[span] += 1
        inclusive[span] += dur[i]
        self_s[layer] += own
        if layer == "context" and op[i] == SETUP_OP:
            setup_context_s += own

    counts = tracer.counts
    compares = calls["orderings.compare"]
    sign_calls = calls["cone.decide_sign"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "algebra.mat_mul_calls": calls["algebra.mat_mul"],
        "algebra.mat_mul_s": inclusive["algebra.mat_mul"],
        "algebra.coeff_mults": counts["algebra.coeff_mults"],
        "oracle.identity_calls": calls["oracle.oracle_is_identity"],
        "oracle.b_power_calls": calls["oracle.b_power_of"],
        "oracle.key_calls": calls["oracle.element_key"],
        "oracle.rho_syllables": counts["oracle.rho_syllables"],
        "oracle.self_s": self_s["oracle"],
        "normalform.calls": calls["normalform.to_normal_form"],
        "normalform.letters_in": counts["normalform.letters_in"],
        "normalform.prefix_letters_out": counts["normalform.prefix_letters_out"],
        "normalform.self_s": self_s["normalform"],
        "cone.calls": sign_calls,
        "cone.steps": counts["cone.steps"],
        "cone.cascade_ratio": ratio(counts["cone.cascades"], sign_calls),
        "cone.witness_letters": counts["cone.witness_letters"],
        "cone.self_s": self_s["cone"],
        "orderings.compare_calls": compares,
        "orderings.is_positive_calls": calls["orderings.is_positive"],
        "orderings.oracle_calls_per_compare": ratio(oracle_in_compare, compares),
        "orderings.equal_ratio": ratio(counts["orderings.equal_results"], compares),
        "orderings.self_s": self_s["orderings"],
        "braid3.reduce_calls": calls["braid3.dehornoy_reduce"],
        "braid3.handle_moves": counts["braid3.handle_moves"],
        "braid3.reduce_s": inclusive["braid3.dehornoy_reduce"],
        "suites.words_examined": counts["suites.words_examined"],
        "suites.self_s": self_s["suites"],
        "words.parse_calls": calls["words.parse_word"],
        "words.parse_s": inclusive["words.parse_word"],
        "words.format_s": inclusive["words.format_word"],
        "words.enumerated_words": counts["words.enumerated_words"],
        "cli.calls": calls["cli.main"],
        "cli.self_s": self_s["cli"],
        "context.setup_s": setup_context_s,
        "trace.spans": total,
    }
