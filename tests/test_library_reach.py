"""The public API is what the CLI runs.

Every argv list of ``tests/data/golden.json`` runs in process through
``cli.main`` under ``sys.setprofile``, which records the code object of
every Python function called.  Each plain function that ``fieldlab``
exports must be among them, or be named in LIBRARY_ONLY with the reason it
is kept although no command reaches it.  A public route that no command
takes is then either deleted or moved into the tests as an oracle.
"""

import contextlib
import inspect
import io
import sys

import fieldlab
from fieldlab import cli
from test_golden import ENV_OPTIONS, load

LIBRARY_ONLY = {
    "automorphisms": "the README tour's Aut(E), without the split-prime data",
    "trace": "the README tour's trace, read from the power sums of trace_gram",
    "squarefree_part": "public polynomial arithmetic, and the squarefree step of chi_v -> m_v",
}


def reached_code() -> set:
    """The code objects of every function that the golden argv lists call."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for entry in load():
        out, err = io.StringIO(), io.StringIO()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli.main(list(entry["argv"]))
        except SystemExit:  # argparse rejected the argv
            pass
        finally:
            sys.setprofile(None)
    return reached


def test_every_exported_function_is_reached_by_a_command(monkeypatch):
    for name in ENV_OPTIONS:
        monkeypatch.delenv(name, raising=False)
    functions = {name: getattr(fieldlab, name) for name in fieldlab.__all__
                 if inspect.isfunction(getattr(fieldlab, name))}
    assert set(LIBRARY_ONLY) <= set(functions)
    reached = reached_code()
    unreached = sorted(name for name, fn in functions.items()
                       if fn.__code__ not in reached and name not in LIBRARY_ONLY)
    assert not unreached, f"no command reaches {unreached}"
    # a name kept as library-only that a command does reach needs no reason
    assert not [name for name in LIBRARY_ONLY if functions[name].__code__ in reached]
