"""Pinned CLI outputs: the SHA-256 of stdout, and the exit code, of the
commands whose answers come out of the exact linear-algebra kernel, on the
committed benchmark corpus. A change that alters one of these outputs on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_digests.py

and says so. `mr` runs without --budget-ms: a budget cut would make them
depend on timing."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from signrank.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "bench" / "corpus"
DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"


def relative(path: Path) -> str:
    return str(path.relative_to(ROOT))


def commands() -> list[list[str]]:
    """Each command as argv, with corpus paths relative to the repo root."""
    subspaces = sorted((CORPUS / "duality").glob("*.mat")) + sorted((CORPUS / "witness").glob("*.mat"))
    runs = [["signs", relative(path), "--json"] for path in subspaces]
    runs += [["realize-nm2", relative(path), "--json"] for path in sorted((CORPUS / "witness").glob("real-*.sp"))]
    for eq in sorted({path.name[:3] for path in (CORPUS / "witness").glob("eq*-B.sp")}):
        runs.append(["rationalize", *(relative(CORPUS / "witness" / f"{eq}-{part}.sp") for part in "BCE"), "--json"])
    runs.append(["duality-check", "--random", "12", "--n", "6", "--json"])
    patterns = sorted((CORPUS / "minrank").glob("*.sp"))
    runs += [["mr", relative(path), "--json"] for path in patterns]
    runs += [["perp", relative(path), "--json"] for path in patterns]
    return runs


def digest(argv: list[str]) -> dict:
    out = io.StringIO()
    args = [str(ROOT / a) if a.startswith("bench/") else a for a in argv]
    with contextlib.redirect_stdout(out):
        code = main(args)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def pinned() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_the_pinned_commands_are_the_corpus_commands():
    assert len(commands()) == 36 + 9 + 6 + 4 + 1 + 15 + 15
    assert sorted(pinned()) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_its_digest(argv):
    assert digest(argv) == pinned()[" ".join(argv)]


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in commands()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS.relative_to(ROOT)}", file=sys.stderr)
