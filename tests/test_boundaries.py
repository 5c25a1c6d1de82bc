"""Module boundaries that keep one piece of knowledge in one module.

The oracle's state (phi and the packed fold, or the Klein pair at
n = 1) is made and read only in oracle.py: other modules hold it
through oracle_state and hand it back as a start.  So no other module
names the fold's helpers or the Klein pair, and the ball walks in
suites.py and orderings.py branch on no n == 1 case of their own.  Order
decisions read a verdict, never a witness: orderings.py names no
witness writer.  They rest on the normal form alone: the order-sign path
in orderings.py calls no oracle function.  The decision core (words,
normal form, cone) imports nothing from the checker (oracle, and the
algebra its matrices live in): sign's check is planned by the oracle
and joined to the decision in cli.py.  The test-only references
(tests/reference_*.py) import from the package only the names listed
here, none of them private, so a fault in the code they check cannot
hit both sides alike.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "heckeord"
ORACLE_PRIVATE = {"_fold", "_is_shear", "_coefficients", "klein_pair"}


def names_used(tree):
    """Every identifier the module names: loads, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def is_n(node):
    return (isinstance(node, ast.Attribute) and node.attr == "n") or (isinstance(node, ast.Name) and node.id == "n")


def n_equals_one(tree):
    """Lines that compare n (or some ctx.n) with 1 by == or !=."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        pairs = zip(operands, node.ops, operands[1:])
        for left, op, right in pairs:
            if isinstance(op, (ast.Eq, ast.NotEq)) and {is_n(left), is_n(right)} == {True, False}:
                other = right if is_n(left) else left
                if isinstance(other, ast.Constant) and other.value == 1:
                    yield node.lineno


def parse(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "oracle.py"))
def test_only_oracle_names_its_state_helpers(path):
    found = sorted({(name, line) for name, line in names_used(parse(path)) if name in ORACLE_PRIVATE})
    assert found == [], f"{path} names the oracle's private state helpers: {found}"


@pytest.mark.parametrize("path", ["suites.py", "orderings.py"])
def test_walks_have_no_n_equals_one_branch(path):
    assert list(n_equals_one(parse(path))) == []


def test_the_checks_see_what_they_look_for():
    # The oracle itself names all four helpers and branches on n == 1.
    tree = parse("oracle.py")
    assert ORACLE_PRIVATE <= {name for name, _ in names_used(tree)}
    assert list(n_equals_one(tree))
    assert list(n_equals_one(ast.parse("if 1 != ctx.n:\n    pass\n")))


WITNESS_WRITERS = {"sign_pass", "decide_sign"}


def test_orders_never_write_a_witness():
    # An order decision reads only the verdict, which cone.verdict takes
    # off the normal form: orderings.py names no function that writes a
    # one-signed witness.
    found = sorted({(name, line) for name, line in names_used(parse("orderings.py")) if name in WITNESS_WRITERS})
    assert found == [], f"orderings.py names a witness writer: {found}"
    # The check sees what it looks for: the trichotomy suite reads witnesses.
    assert "sign_pass" in {name for name, _ in names_used(parse("suites.py"))}


def test_trichotomy_walk_keeps_its_own_state():
    # The walk resumes its normal forms and oracle states itself; the
    # order scans' path tracker serves only orderings.py.  Imports are
    # caught in either form: from .orderings import ..., from . import orderings.
    tree = parse("suites.py")
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names = {name for name, _ in names_used(tree)}
    assert not {"orderings", "_Track"} & (modules | names)
    # The check sees what it looks for: cli.py imports orderings.
    assert "orderings" in {name for name, _ in names_used(parse("cli.py"))}


def test_one_module_defines_the_prefix_error():
    # A prefix that is not a positive word, or not irreducible, is one
    # error wherever it is caught: normalform defines it, cone re-exports it.
    defined = sorted(
        (path.name, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(parse(path.name))
        if isinstance(node, ast.ClassDef) and node.name in {"ReductionStuck", "NormalFormError"}
    )
    assert defined == [("normalform.py", "ReductionStuck")]


ORDER_SIGN_PATH = {"_order_sign", "_sign", "_Track"}


def oracle_names_in(path, definitions):
    """The oracle.py functions named inside path's top-level definitions."""
    oracle = {node.name for node in parse("oracle.py").body if isinstance(node, ast.FunctionDef)}
    nodes = {node.name: node for node in parse(path).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert definitions <= nodes.keys(), f"{path} lacks {sorted(definitions - nodes.keys())}"
    return {name for definition in definitions for name, _ in names_used(nodes[definition]) if name in oracle}


def test_order_signs_ask_the_oracle_nothing():
    # A flipped read finds a b-power by the shape of the normal form
    # (normalform.is_b_power), so the order decision path names no
    # oracle function, phi included.
    assert oracle_names_in("orderings.py", ORDER_SIGN_PATH) == set()
    # The check sees what it looks for: the convexity report is the
    # oracle's check of the order, and asks b_power_of.
    assert "b_power_of" in oracle_names_in("orderings.py", {"convexity_check"})


# What each reference module may import from the package: the names a
# reference needs to take the package's words and contexts and return
# its result types, and the package functions it treats as given.
REFERENCE_IMPORTS = {
    "reference_braid3.py": {
        "braid3.CertificateError", "braid3.ConeRegion", "context.group_context",
        "words.GEN_A", "words.GEN_B", "words.RewriteLimitError", "words.Word", "words.word_from_syllables",
    },
    "reference_core.py": {
        "cone.ReductionStuck", "cone.Sign", "cone.SignResult", "context.GroupContext", "normalform.NormalForm",
        "words.ALPHABET_AB", "words.GEN_A", "words.GEN_B", "words.MAX_LETTERS", "words.RewriteLimitError",
        "words.Syllable", "words.Word", "words.WordSyntaxError", "words.gen_power", "words.is_one_signed",
    },
    "reference_oracle.py": {
        "algebra.Mat2", "algebra.mat_identity", "algebra.mat_neg", "context.GroupContext", "context.ring_of",
        "words.GEN_B", "words.Word",
    },
    "reference_orderings.py": {
        "cone.Sign", "cone.decide_sign", "context.GroupContext", "oracle.b_power_of", "orderings.Cmp",
        "orderings.Conjugated", "orderings.ConvexityReport", "orderings.DD", "orderings.DDReversed",
        "orderings.DehornoyLike", "orderings.OrderingSpec", "words.GEN_B", "words.Word", "words.concat",
        "words.conjugate", "words.enumerate_reduced", "words.gen_power", "words.invert",
    },
    "reference_suites.py": {
        "cone.MIRROR", "cone.Sign", "cone.decide_sign", "context.GroupContext", "oracle.oracle_is_identity",
        "suites.MAX_SUITE_LEN", "suites.SuiteReport", "words.Word", "words.concat", "words.enumerate_reduced",
        "words.format_word", "words.invert", "words.is_one_signed",
    },
}


def package_imports(tree):
    """(module.name, line) for every name imported from the package,
    anywhere in the module, relative imports included; a bare import of
    a package module gives its dotted path."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "heckeord"):
            module = (node.module or "").removeprefix("heckeord")
            yield from ((f"{module}.{alias.name}".lstrip("."), node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names if alias.name.split(".")[0] == "heckeord")


@pytest.mark.parametrize("path", sorted(p.name for p in TESTS.glob("reference_*.py")))
def test_references_import_only_their_allowlist(path):
    imported = list(package_imports(ast.parse((TESTS / path).read_text(encoding="utf-8"))))
    private = [(name, line) for name, line in imported if any(part.startswith("_") for part in name.split("."))]
    assert private == [], f"{path} imports private package names: {private}"
    extra = sorted((name, line) for name, line in imported if name not in REFERENCE_IMPORTS.get(path, set()))
    assert extra == [], f"{path} imports package names outside its allowlist: {extra}"


def modules_imported(tree):
    return {name.removeprefix("heckeord.").split(".")[0] for name, _ in package_imports(tree)}


CHECKER = {"oracle", "algebra"}


DECISION_CORE = ["words.py", "normalform.py", "cone.py"]


@pytest.mark.parametrize("path", DECISION_CORE)
def test_the_decision_core_imports_nothing_from_the_checker(path):
    found = sorted(modules_imported(parse(path)) & CHECKER)
    assert found == [], f"{path} imports from the checker: {found}"


def test_the_import_check_sees_what_it_looks_for():
    # cli.py joins the decision to its check, so it imports the oracle.
    assert "oracle" in modules_imported(parse("cli.py"))
    for source in ("from . import algebra", "from .oracle import CUT", "from heckeord.oracle import CUT", "import heckeord.algebra"):
        assert modules_imported(ast.parse(source)) & CHECKER, source


STACK_PASS_PRIVATE = {"_push", "_Stack"}


def names_or_defines(tree):
    """names_used, and the names of the module's functions and classes."""
    yield from names_used(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def raised(tree):
    """(name, line) of every exception raised by name, as a class or a call,
    bare or through its module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                yield (exc.id if isinstance(exc, ast.Name) else exc.attr), node.lineno


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "normalform.py"))
def test_only_normalform_names_the_stack_pass_internals(path):
    # The pass's write rules (_push) and the list that watches them
    # (_Stack) live in one module; others take the pass through resume,
    # to_normal_form and stack_checkpoints.
    found = sorted({(name, line) for name, line in names_or_defines(parse(path)) if name in STACK_PASS_PRIVATE})
    assert found == [], f"{path} names the stack pass's internals: {found}"


@pytest.mark.parametrize("path", [path for path in DECISION_CORE if path != "normalform.py"])
def test_only_normalform_raises_the_budget_error(path):
    # The normal form's budget is checked where it is spent.
    found = sorted(line for name, line in raised(parse(path)) if name == "RewriteLimitError")
    assert found == [], f"{path} raises RewriteLimitError at lines {found}"


def test_the_stack_pass_checks_see_what_they_look_for():
    tree = parse("normalform.py")
    assert STACK_PASS_PRIVATE <= {name for name, _ in names_or_defines(tree)}
    assert "RewriteLimitError" in {name for name, _ in raised(tree)}
    assert {name for name, _ in names_or_defines(ast.parse("class _Stack(list):\n    pass\n"))} >= {"_Stack", "list"}
    for source in ("raise RewriteLimitError", "raise RewriteLimitError('x')", "raise words.RewriteLimitError('x') from None"):
        assert [name for name, _ in raised(ast.parse(source))] == ["RewriteLimitError"], source
