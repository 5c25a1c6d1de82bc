"""Module boundaries that keep one piece of knowledge in one module.

The oracle's state (phi and the packed fold, or the Klein pair at
n = 1) is made and read only in oracle.py: other modules hold it
through oracle_state and hand it back as a start.  So no other module
names the fold's helpers or the Klein pair, and the ball walks in
suites.py and orderings.py branch on no n == 1 case of their own.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckeord"
ORACLE_PRIVATE = {"_fold", "_is_shear", "klein_pair"}


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
    # The oracle itself names all three helpers and branches on n == 1.
    tree = parse("oracle.py")
    assert ORACLE_PRIVATE <= {name for name, _ in names_used(tree)}
    assert list(n_equals_one(tree))
    assert list(n_equals_one(ast.parse("if 1 != ctx.n:\n    pass\n")))
