"""Golden corpus: the CLI's exact bytes on every problem file, pinned.

Each (command, file) pair of the corpus is run in-process through cli.main,
and the sha256 of its (exit code, stdout, stderr) must equal the hash stored
in golden_corpus.json.  A change that moves any of these bytes on purpose
says why in CHANGES.md and regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from gen import run_cli

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden_corpus.json"

COMMANDS = {
    "check": [],
    "check --pretty": ["--pretty"],
    "check --max-steps 0": ["--max-steps", "0"],
    "quotient": [],
    "quotient --max-steps 0": ["--max-steps", "0"],
    "syzygies": [],
    "reduce": None,  # per file: u^1 differentiated once in every direction
    "ranking-audit --samples 300": ["--samples", "300"],
}


def _argv(label: str, path: Path) -> list[str]:
    extra = COMMANDS[label]
    if extra is None:
        n = json.loads(path.read_text())["n"]
        extra = ["--target", json.dumps([{"c": "1", "m": [[["u", 1, [1] * n], 1]]}])]
    # the path is relative so that messages naming it do not depend on the checkout
    return [label.split()[0], str(path.relative_to(ROOT))] + extra


def _digest(argv: list[str]) -> str:
    blob = json.dumps(run_cli(*argv))  # the tuple dumps as the list [code, stdout, stderr]
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cases() -> list[str]:
    return [f"{label} {path.name}" for label in COMMANDS for path in sorted(PROBLEMS.glob("*.json"))]


def _run(case: str) -> str:
    label, name = case.rsplit(" ", 1)
    return _digest(_argv(label, PROBLEMS / name))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("case", _cases())
def test_golden_corpus(case):
    assert _run(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    hashes = {case: _run(case) for case in _cases()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
