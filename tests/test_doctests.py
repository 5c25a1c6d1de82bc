"""Every usage example embedded in the library must execute as shown."""

import doctest
from pathlib import Path

import pytest

import heckeord.algebra
import heckeord.braid3
import heckeord.cli
import heckeord.cone
import heckeord.context
import heckeord.normalform
import heckeord.oracle
import heckeord.orderings
import heckeord.suites
import heckeord.words

MODULES_WITH_EXAMPLES = [
    heckeord.algebra,
    heckeord.braid3,
    heckeord.cone,
    heckeord.context,
    heckeord.normalform,
    heckeord.oracle,
    heckeord.orderings,
    heckeord.words,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_EXAMPLES, ids=lambda m: m.__name__.split(".")[-1]
)
def test_module_examples(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


@pytest.mark.parametrize("module", [heckeord.cli, heckeord.suites],
                         ids=("cli", "suites"))
def test_examples_clean_if_present(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0


def test_readme_library_quick_start():
    # The README's library example runs line by line; a line whose
    # comment is a quoted value must evaluate to exactly that value.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown, got = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment.strip().startswith("'"):
            shown.append(comment.strip())
            got.append(repr(eval(code, namespace)))
        else:
            exec(line, namespace)
    assert shown == ["'negative'", "'a^-1 b^-1'", "'less'"]
    assert got == shown
