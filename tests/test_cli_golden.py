"""Golden output of the heckeord command: exact stdout, stderr and exit
status for every subcommand, in JSON and plain form, for --help and for
the error paths.

The recorded output lives in tests/golden/cli.json.  Each case runs
`cli.main` in-process with a fixed terminal width (argparse wraps help
text to it) and a fixed CPU count (`--jobs` is checked against it);
three also run as `python -m heckeord.cli`, where main reads its
arguments from sys.argv.  Arguments may name files in a
per-case temporary directory as `{tmp}/NAME`; the files of FILES are
written there first, and the directory's path reads `{tmp}` in the
recorded output.  The `wall_time` of `suite` is masked.

To re-record after an intended change of output:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

import pytest

from heckeord.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
COLUMNS = "80"
CPUS = 2
FILES = {
    "elems.txt": "a\nb^-1\n",
    "unstable.txt": "a^-1\n",
    "mixed.txt": "\n  a b^2 \n\nb a^-1\n",
    "empty.txt": "",
}
_WALL_TIME = re.compile(r'"wall_time": [0-9.e+-]+')


def _both(*argv):
    """The case in JSON form and in --plain form."""
    return [list(argv), [*argv, "--plain"]]


def _long_word(seed: int, syllables: int) -> list[tuple[str, int]]:
    """A fixed mixed-sign word: a, b alternating from a, exponents +-1..3."""
    rng = random.Random(f"golden:{seed}")
    return [("ab"[i % 2], rng.choice((-3, -2, -1, 1, 2, 3))) for i in range(syllables)]


def _text(*parts: list[tuple[str, int]]) -> str:
    return " ".join(gen if exp == 1 else f"{gen}^{exp}" for part in parts for gen, exp in part)


def _inverse(word: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(gen, -exp) for gen, exp in reversed(word)]


def _long_oracle_cases(n: int, seed: int) -> list[list[str]]:
    """oracle on a 320-syllable word w, on w delta w^-1 (rho = -I, not 1)
    and on w r w^-1 for the relator r (the identity)."""
    w = _long_word(seed, 320)
    delta, relator = [("a", n + 1)], [("a", -1), ("b", 1), ("a", n), ("b", 1)]
    words = ((w,), (w, delta, _inverse(w)), (w, relator, _inverse(w)))
    return [["oracle", "--n", str(n), _text(*parts)] for parts in words]


CASES = [
    *_both("sign", "--n", "2", "a b a^-1"),
    *_both("sign", "--n", "3", "b a^3 b a^-1"),
    *_both("sign", "--n", "3", "b a^-2 b a"),
    *_both("sign", "b^-2"),
    *_both("sign", "--n", "1", "a^2 b^-1 a^-1"),
    *_both("sign", "--n", "7", "a b^3 a^-2 b"),
    *_both("sign", "--n", "63", "1"),
    *_both("cmp", "a b", "b a"),
    *_both("cmp", "--n", "2", "--order", "dlike", "1", "b^-1"),
    *_both("cmp", "--n", "2", "b a^2 b", "a"),
    *_both("cmp", "--n", "3", "--order", "ddrev", "a", "b"),
    *_both("cmp", "--n", "2", "--order", "dlike", "--conj", "b a", "1", "a^-1 b^-1 a"),
    *_both("nf", "--n", "2", "b^-2"),
    *_both("nf", "--n", "5", "a^-1 b a^7 b^-3"),
    *_both("oracle", "--n", "2", "a^3"),
    *_both("oracle", "--n", "5", "a b a^-1 b^-1"),
    *_both("oracle", "--n", "1", "b a b"),
    *_both("oracle", "--n", "2", "b a^2 b a^-1"),
    *_both("oracle", "--n", "3", "a^8"),
    *_both("oracle", "--n", "63", "a^64"),
    *_both("ctx", "--n", "2"),
    *_both("ctx", "--n", "1"),
    *_both("ctx", "--n", "63"),
    *_both("b3", "sign", "s1 s2^-3"),
    *_both("b3", "sign", "s1^-1 s2 s1"),
    *_both("b3", "sign", "1"),
    *_both("b3", "bridge", "s1 s2^-2 s1^-1"),
    *_both("b3", "bridge", "--alphabet", "ab", "a b^-1 a^2"),
    *_both("b3", "cert", "b^2"),
    *_both("b3", "cert", "a"),
    *_both("b3", "cert", "a^2"),
    *_both("b3", "cert", "a b"),
    *_both("b3", "cert", "b a b^2 a"),
    *_both("converge", "--n", "2", "--kmax", "3"),
    *_both("converge", "--kmax", "2", "--elems", "{tmp}/elems.txt"),
    *_both("converge", "--kmax", "2", "--elems", "{tmp}/unstable.txt"),
    *_both("converge", "--n", "3", "--kmax", "2", "--elems", "{tmp}/mixed.txt"),
    *_both("suite", "--n", "2", "--max-len", "3"),
    *_both("suite", "--n", "1", "--max-len", "2", "--jobs", "1"),
    *_both("suite", "--n", "3", "--kind", "identities"),
    ["cayley", "--n", "1", "--radius", "2"],
    ["cayley", "--n", "2", "--radius", "1", "--format", "json"],
    ["cayley", "--n", "2", "--radius", "1", "--format", "dot", "--plain"],
    ["cayley", "--n", "5", "--radius", "3", "--format", "json"],
    ["--help"],
    *(
        [name, "--help"]
        for name in ("sign", "cmp", "nf", "oracle", "ctx", "b3", "converge", "suite", "cayley")
    ),
    # error paths
    [],
    ["sign", "c^2"],
    ["sign", "--plain", "a b^0"],
    ["sign", "--n", "0", "a"],
    ["ctx", "--n", "64"],
    ["sign", "--n", "two", "a"],
    ["suite", "--n", "2", "--max-len", "2", "--jobs", "0"],
    ["suite", "--n", "2", "--max-len", "2", "--jobs", "many"],
    ["no-such-command"],
    ["nf", ""],
    ["sign", "  "],
    ["sign"],
    ["cmp", "--order", "lex", "a", "b"],
    ["cmp", "--conj", "x", "a", "b"],
    ["b3", "cert", "a^-1"],
    ["b3", "twist", "s1"],
    ["b3", "sign", "s3"],
    ["cayley", "--radius", "9"],
    ["suite", "--kind", "everything"],
    ["converge", "--kmax", "2", "--elems", "{tmp}/missing.txt"],
    ["converge", "--kmax", "2", "--elems", "{tmp}"],
    # words over the letter limit are refused by the parser
    ["sign", "--n", "2", "b^-1000000000000"],
    ["nf", "--n", "2", "b^-1000000000000"],
    ["sign", "--n", "2", "b^1000000000000 a^-1"],
    ["b3", "bridge", "--alphabet", "ab", "a^1000000000000"],
    # an --elems file of no words leaves no verdicts
    *_both("converge", "--kmax", "2", "--elems", "{tmp}/empty.txt"),
    # long words at odd n, where the oracle's modulus is even
    *(["sign", "--n", str(n), _text(_long_word(n + size, size))] for n in (7, 31, 63) for size in (80, 320)),
    *_long_oracle_cases(31, 1),
    *_long_oracle_cases(63, 2),
    # refusals past the first term: the offset counts every separator, and
    # a term refused more than once is reported where it first occurs
    ["sign", "--n", "2", "a  b^0"],
    ["sign", "--n", "2", "a b\tc"],
    ["sign", "--n", "2", "a^x b a^x"],
    ["sign", "--n", "2", "a b^4194304"],
    # b-powers the flipped orders must see through: disguised by a central
    # factor (a^3 at n = 2), moved by --conj, at n = 1, and a near miss
    # whose phi is that of b^-1 but which is b^-1 times a commutator
    *_both("cmp", "--n", "2", "--order", "dlike", "1", "a^3 b^-2 a^-3"),
    *_both("cmp", "--n", "5", "--order", "dlike", "--conj", "b a", "1", "a^-1 b^2 a"),
    *_both("cmp", "--n", "1", "--order", "dlike", "a^-1 b^3 a", "1"),
    *_both("cmp", "--n", "2", "--order", "dlike", "1", "b^-1 a b a^-1 b^-1"),
    # long words at even n >= 4, where the oracle's modulus is odd and its
    # fold runs on one packed int
    *(["sign", "--n", str(n), _text(_long_word(n + size, size))] for n in (4, 6, 62) for size in (80, 320)),
    *_long_oracle_cases(62, 3),
    # integer options take ASCII digits only, as word exponents do: int()
    # would read these as 63, 3, 1 and 1
    ["sign", "--n", "6_3", "a"],
    ["sign", "--n", "٣", "a"],
    ["converge", "--kmax", "１", "--plain"],
    ["suite", "--jobs", "١"],
    # options a command ignores are still checked: identities takes no
    # ball, yet refuses --max-len out of range; b3 works in G_2 = B_3 only
    ["suite", "--kind", "identities", "--max-len", "13"],
    ["b3", "--n", "7", "sign", "s1"],
    ["b3", "--n", "99", "bridge", "s1"],
]


def run_case(argv: list[str]) -> dict:
    """Run one case and return its argv, status, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([arg.replace("{tmp}", tmp) for arg in argv])

    def clean(text: str) -> str:
        return _WALL_TIME.sub('"wall_time": "<masked>"', text.replace(tmp, "{tmp}"))

    stdout, stderr = clean(out.getvalue()), clean(err.getvalue())
    return {"argv": argv, "status": status, "stdout": stdout, "stderr": stderr}


def _records() -> list[dict]:
    """The recorded cases; none before the first recording."""
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


@pytest.fixture(autouse=True)
def _fixed_machine(monkeypatch):
    # argparse wraps help text to COLUMNS, and --jobs is checked against
    # the CPU count, which two error cases print.
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.setattr(os, "cpu_count", lambda: CPUS)


def test_golden_file_covers_every_case():
    assert [record["argv"] for record in _records()] == CASES


@pytest.mark.parametrize("record", _records(), ids=lambda r: " ".join(r["argv"]) or "<none>")
def test_output_matches_golden(record):
    assert run_case(record["argv"]) == record


@pytest.mark.parametrize("argv", [["sign", "--n", "2", "a b a^-1"], ["--help"], ["no-such-command"]])
def test_process_matches_golden(argv, tmp_path):
    (record,) = [record for record in _records() if record["argv"] == argv]
    env = dict(os.environ, COLUMNS=COLUMNS, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "heckeord.cli", *argv], cwd=tmp_path, env=env, capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        record["status"],
        record["stdout"],
        record["stderr"],
    )


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    os.cpu_count = lambda: CPUS
    records = [run_case(argv) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(records)} cases in {GOLDEN}\n")
