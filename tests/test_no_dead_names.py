"""Every module-level name in the package has a reader.

A function, class or assignment at the top level of src/heckeord/*.py
must be named at least once outside its own definition: somewhere in
src/, in perfbench/*.py (its tracer wraps package functions by name,
from string lists and f-strings), or in tests/test_acceptance.py (which
holds the paper's checks).  In the name's own module only code counts:
its comments and docstrings there are not reads.  Other tests do not
count, so code kept alive only by its own unit tests, or only by its
own module's prose, shows up here.  Dunder names such as __version__
are read by tools and are exempt.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "heckeord").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def top_level_definitions(path):
    """(name, first line, last line) of each top-level def, class and assignment."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def code_outside(path, first, last):
    """The source tokens of path outside lines first..last, without its
    comments and docstrings (every statement that is a bare string)."""
    source = path.read_text(encoding="utf-8")
    prose = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    return [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type != tokenize.COMMENT
        and not first <= token.start[0] <= last
        and not any(start <= token.start < end for start, end in prose)
    ]


def is_named_elsewhere(name, path, first, last):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    for reader in READERS:
        if reader == path:
            lines = code_outside(path, first, last)
        else:
            lines = reader.read_text(encoding="utf-8").splitlines()
        if any(pattern.search(line) for line in lines):
            return True
    return False


def test_reader_set_exists():
    assert len(PACKAGE) > 5
    assert all(reader.is_file() for reader in READERS)


def test_every_top_level_name_is_named_outside_its_definition():
    dead = [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name, first, last in top_level_definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
        and not is_named_elsewhere(name, path, first, last)
    ]
    assert dead == [], f"defined but never named elsewhere: {dead}"
