"""Byte identity of the CLI's answers, pinned as digests.

``tests/data/golden.json`` lists literal argv lists with the digest of each
answer: the sha256 of the exit code and the JSON document without
``diagnostics.timings``, or of the exit code, stdout and stderr where no
document is printed (``conftest.digest``).  The entries are every job of
the four benchmark workloads at seeds 1 and 5001, ``--json`` appended, and
the argv-only rows of the CI smoke run that end within about a second.
Each entry runs in process through ``cli.main``, and the test names every
entry whose digest moved.

After a deliberate change of output, rewrite the digests of the listed
argv lists (from the repository root):

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from fieldlab import cli
from conftest import digest

GOLDEN = Path(__file__).parent / "data" / "golden.json"
# options the CLI reads from the environment when no flag is given
ENV_OPTIONS = ("FIELDLAB_SEED", "FIELDLAB_MAX_HEIGHT", "FIELDLAB_DEGREE_CAP")


def answer_digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:  # argparse rejected the argv
        code = e.code
    return digest(code, out.getvalue(), err.getvalue())


def load() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_answers_match_golden_digests(monkeypatch):
    for name in ENV_OPTIONS:
        monkeypatch.delenv(name, raising=False)
    moved = [entry["argv"] for entry in load()
             if answer_digest(entry["argv"]) != entry["digest"]]
    assert not moved, f"{len(moved)} answers moved:\n" + "\n".join(map(repr, moved))


if __name__ == "__main__" and sys.argv[1:] == ["--rewrite"]:
    for name in ENV_OPTIONS:
        os.environ.pop(name, None)
    entries = [{"argv": e["argv"], "digest": answer_digest(e["argv"])} for e in load()]
    lines = ",\n".join(" " + json.dumps(e, ensure_ascii=False) for e in entries)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
