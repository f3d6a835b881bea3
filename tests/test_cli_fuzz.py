"""Fuzzing the command line: every command on small generated input ends in a
documented exit code, never in an escaping exception or a traceback."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fieldlab import UPoly, format_poly  # noqa: E402
from fieldlab.cli import main  # noqa: E402

# a degree far past the parse-time cap, and a constant term that defeats
# trial division
HOSTILE = ["x^100000000+1", "x^2 - 1000000000000000000000000000057"]

POLYS = st.one_of(
    st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(
        lambda cs: format_poly(UPoly(cs))
    ),
    st.sampled_from(HOSTILE),
)
SETS = st.lists(POLYS, min_size=1, max_size=2).map(";".join)
RATIONALS = st.fractions(-5, 5, max_denominator=3).map(str)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["analyze", "primitive", "normal", "norm-one", "pell", "density-probe"]
    ))
    count = ["--count", str(draw(st.integers(1, 3)))]
    if command == "analyze":
        argv = [command, draw(POLYS)]
    elif command in ("primitive", "normal"):
        argv = [command, draw(POLYS), "--set", draw(SETS)] + count
    elif command == "norm-one":
        argv = [command, draw(POLYS)] + count
        if draw(st.booleans()):
            argv.append("--normal")
    elif command == "pell":
        argv = [command, f"--b={draw(RATIONALS)}", f"--c={draw(RATIONALS)}"] + count
    else:
        argv = [command, draw(SETS), "--degree", str(draw(st.integers(1, 2))),
                "--grid", str(draw(st.integers(1, 3)))]
    argv += ["--max-height", str(draw(st.integers(1, 3))),
             "--threads", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        argv.append("--randomized")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(deadline=None)
@given(argv=argvs())
def test_every_command_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
