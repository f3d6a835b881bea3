"""CLI behavior: exit codes, JSON schema, re-verifiable documents, determinism."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from fieldlab import (
    UPoly,
    galois_group,
    make_field,
    minpoly,
    no_low_degree_relation,
    norm,
    parse_poly,
    poly_eval,
)
from fieldlab.cli import main
from conftest import conjugate_rank


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def frac_list(strings):
    return [Fraction(s) for s in strings]


def strip_timings(text: str) -> str:
    return re.sub(r'"total_ms": \d+', '"total_ms": 0', text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_qi_json(capsys):
    code, doc = run_json(capsys, "analyze", "x^2+1")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["field"]["degree"] == 2
    report = doc["results"][0]
    assert report["automorphisms"] == ["0/1,1/1", "0/1,-1/1"]
    assert report["galois"] is True
    assert report["gram_det"] == "-4/1"
    assert doc["diagnostics"]["prime"] == 5


def test_analyze_non_galois_is_reported_not_an_error(capsys):
    code, doc = run_json(capsys, "analyze", "x^3-2")
    assert code == 0
    assert doc["results"][0]["automorphism_count"] == 1
    assert doc["results"][0]["galois"] is False


@pytest.mark.parametrize("polynomial", ["x^7-x-1", "x^8-x-1"])
def test_analyze_proves_trivial_group_without_split_prime(capsys, polynomial):
    code, doc = run_json(capsys, "analyze", polynomial)
    assert code == 0
    report = doc["results"][0]
    assert report["automorphism_count"] == 1
    assert report["galois"] is False
    # the one-root prime that proves Aut = {id}, at precision 1
    assert doc["diagnostics"]["precision"] == 1


def test_analyze_text_mode(capsys):
    code, out = run_cli(capsys, "analyze", "x^2+1")
    assert code == 0
    assert "degree 2" in out
    assert "galois: True" in out


@pytest.mark.parametrize("argv, shown", [
    (["analyze", "-x^2+2"], "field: x^2 - 2"),
    (["pell", "--b", "-1/2", "--c", "3"], "b = -1/2, c = 3"),
])
def test_values_starting_with_minus_are_not_options(capsys, argv, shown):
    # argparse alone reads "-x^2+2" and "-1/2" as unknown options (exit 2)
    assert main(argv) == 0
    assert shown in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_2_on_syntax_error(capsys):
    assert main(["analyze", "x^^2"]) == 2


def test_exit_2_on_reducible(capsys):
    assert main(["analyze", "x^2-1"]) == 2
    assert main(["primitive", "x^2-2*x+1", "--count", "1"]) == 2


def test_exit_2_names_the_factor_two_maps_share(capsys):
    # x^4+4 = (x^2+2x+2)(x^2-2x+2): make_field finds the factor at the split
    # prime 5, where two of its maps would agree
    assert main(["analyze", "x^4+4"]) == 2
    assert "x^2 + 2*x + 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "primitive", "normal"])
@pytest.mark.parametrize("text, factor", [
    ("(x^2+1)*(x^2+2)", "x^2 + 1"),
    ("(x^4+1)*(x^2+3)", "x^2 + 3"),
    ("x^5+x^3-2*x^2-2", "x^2 + 1"),
    ("(x^2-2)*(x^2-3)", "x^2 - 2"),
    ("(x^2+1)*(x^3-2)", "x^2 + 1"),
])
def test_exit_2_names_the_factor_of_a_split_product(capsys, command, text, factor):
    # each splits at a prime <= 200; no prime makes a product irreducible
    assert main([command, text, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: zero divisor; defining polynomial has factor {factor}\n"


def test_exit_2_on_square_discriminant(capsys):
    assert main(["pell", "--b", "0", "--c=-1", "--count", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["pell", "--b=1/0", "--c=-1"],
    ["pell", "--b=1", "--c=1/0"],
])
def test_exit_2_on_zero_denominator(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_exit_2_on_thread_count_below_one(capsys, threads):
    assert main(["primitive", "x^2+1", "--threads", threads]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err


def test_exit_2_on_huge_exponent_without_expanding(capsys):
    started = time.monotonic()
    assert main(["analyze", "x^100000000+1"]) == 2
    assert time.monotonic() - started < 1
    assert "exponent at most 64" in capsys.readouterr().err


def test_huge_constant_term_is_analyzed_quickly(capsys):
    # no rational root; trial division of the constant term never ended
    started = time.monotonic()
    code, doc = run_json(capsys, "analyze", "x^2 - 1000000000000000000000000000057")
    assert time.monotonic() - started < 5
    assert code == 0
    assert doc["results"][0]["automorphism_count"] == 2


# 7*10^3000 + 1, written out: under CPython's 4300-digit cap on int <-> str
# conversion, but the certificates of a norm-one hit in x^4 + BIG are longer
BIG = "7" + "0" * 2999 + "1"


def test_big_certificate_is_printed_as_json(capsys):
    cap = sys.get_int_max_str_digits()
    code, doc = run_json(capsys, "norm-one", f"x^4+{BIG}")
    assert code == 0 and sys.get_int_max_str_digits() == cap
    w = doc["results"][0]
    assert w["norm_value"] == "1/1"
    assert max(len(c) for c in w["per_h"][0]["min_poly"]) > cap


def test_big_certificate_is_printed_as_text(capsys):
    cap = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "norm-one", f"x^4+{BIG}")
    assert code == 0 and sys.get_int_max_str_digits() == cap
    assert "norm = 1 " in out and len(out) > cap


def test_exit_2_on_a_polynomial_literal_past_the_digit_cap(capsys):
    assert main(["analyze", "x^2+1" + "0" * 4400]) == 2
    assert "4300 digits" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pell", "--b=1e-20000", "--c=1"],
    ["pell", "--b=1", "--c=-1e10000000"],
    ["pell", "--b=1", "--c=1.5E+2467"],
    ["pell", "--b=" + "9" * 2500, "--c=1"],
    ["pell", "--b=1", "--c=1/" + "3" * 2500],
])
def test_exit_2_on_rational_option_past_the_power_budget(capsys, argv):
    # Fraction would expand 1e-10000000 for seconds; refused before that
    started = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - started < 1
    assert "more than 8192 bits" in capsys.readouterr().err


def test_rational_option_within_the_power_budget_is_accepted(capsys):
    # 10^2000 has 6,644 bits
    code, doc = run_json(capsys, "pell", "--b=1e-2000", "--c=1")
    assert code == 0 and doc["field"]["b"] == "1/1" + "0" * 2000


def test_trivial_extension_is_reported_before_the_group(capsys):
    # x - 1/2 has no prime to scan up to 2: normal exits 5, but norm-one
    # refuses the degree-1 field before it asks for the group
    assert main(["norm-one", "x-1/2", "--normal", "--prime-bound", "2"]) == 2
    assert "degree at least 2" in capsys.readouterr().err
    assert main(["normal", "x-1/2", "--prime-bound", "2"]) == 5
    assert "no fully split prime" in capsys.readouterr().err


def test_exit_3_on_not_galois(capsys):
    assert main(["normal", "x^3-2", "--set", "x", "--count", "1"]) == 3
    assert main(["norm-one", "x^3-2", "--count", "1", "--normal"]) == 3


def test_exit_3_on_trivial_group_without_split_prime(capsys):
    # no prime <= 10000 splits x^7-x-1; one with a single root proves Aut = {id}
    assert main(["normal", "x^7-x-1"]) == 3


def test_exit_4_with_partial_results(capsys):
    code, doc = run_json(capsys, "primitive", "x^2+1", "--count", "1000000",
                         "--max-height", "2")
    assert code == 4
    assert doc["diagnostics"]["budget_exhausted"] is True
    assert len(doc["results"]) > 0


def test_exit_4_norm_one_with_partial_results(capsys):
    code, doc = run_json(capsys, "norm-one", "x^2+1", "--count", "1000000",
                         "--max-height", "2")
    assert code == 4
    assert doc["diagnostics"]["budget_exhausted"] is True
    assert len(doc["results"]) > 0
    assert all(item["norm_value"] == "1/1" for item in doc["results"])


def test_exit_4_pell_with_partial_results(capsys):
    code, doc = run_json(capsys, "pell", "--b", "1", "--c=-1", "--count", "1000000",
                         "--max-height", "2")
    assert code == 4
    assert doc["diagnostics"]["budget_exhausted"] is True
    assert len(doc["results"]) > 0
    for item in doc["results"]:
        x, y = Fraction(item["x"]), Fraction(item["y"])
        assert x * x + x * y - y * y == 1


def test_exit_5_on_degree_cap(capsys):
    assert main(["analyze", "x^2+1", "--degree-cap", "1"]) == 5


PHI17 = "+".join(f"x^{i}" for i in range(16, 1, -1)) + "+x+1"


@pytest.mark.parametrize("cap", ["16", "9", "0", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_exit_2_on_degree_cap_out_of_range(capsys, monkeypatch, source, cap):
    # the permutation walk grows like n!: a cap past 8 is refused before
    # anything is parsed, so the 17th cyclotomic field cannot hang analyze
    argv = ["analyze", PHI17]
    if source == "flag":
        argv += ["--degree-cap", cap]
    else:
        monkeypatch.setenv("FIELDLAB_DEGREE_CAP", cap)
    started = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - started < 1
    assert f"degree cap must be in 1..8, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("normal", "x^4+1"), ("norm-one", "x^4+1", "--normal")])
@pytest.mark.parametrize("option", [("--degree-cap", "2"), ("--prime-bound", "3")])
def test_normal_commands_take_the_automorphism_options(capsys, command, option):
    # x^4+1 first splits mod 17
    assert main([*command, *option]) == 5
    assert main(list(command)) == 0


@pytest.mark.parametrize("bound", ["-5", "0", "1"])
@pytest.mark.parametrize("command", [("analyze", "x^4+1"), ("normal", "x^4+1"),
                                     ("norm-one", "x^4+1", "--normal")])
def test_exit_2_on_prime_bound_below_two(capsys, command, bound):
    # no prime lies below 2: refused before the scan, not reported as exit 5
    started = time.monotonic()
    assert main([*command, "--prime-bound", bound]) == 2
    assert time.monotonic() - started < 1
    assert f"prime bound must be at least 2, got {bound}" in capsys.readouterr().err


def test_normal_commands_take_the_env_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("FIELDLAB_DEGREE_CAP", "2")
    assert main(["normal", "x^4+1"]) == 5
    assert main(["norm-one", "x^4+1", "--normal"]) == 5


# ---------------------------------------------------------------------------
# document round-trip: re-verify certificates from the JSON alone
# ---------------------------------------------------------------------------


def test_primitive_document_reverifies(capsys):
    code, doc = run_json(capsys, "primitive", "x^2+1",
                         "--set", "x;x^2", "--count", "5")
    assert code == 0
    E = make_field(UPoly(frac_list(doc["field"]["coefficients"])))
    for item in doc["results"]:
        a = E.element(frac_list(item["element"]))
        for per in item["per_h"]:
            h = parse_poly(per["h"])
            value = poly_eval(h, a)
            assert value == E.element(frac_list(per["value"]))
            mp = UPoly(frac_list(per["min_poly"]))
            assert minpoly(value) == mp
            assert mp.degree == E.degree


def test_normal_document_reverifies(capsys):
    code, doc = run_json(capsys, "normal", "x^4-10*x^2+1",
                         "--set", "x", "--count", "3")
    assert code == 0
    E = make_field(UPoly(frac_list(doc["field"]["coefficients"])))
    G = galois_group(E)
    for item in doc["results"]:
        a = E.element(frac_list(item["element"]))
        assert minpoly(a).degree == 4
        assert conjugate_rank(G, a) == 4
        det = item["per_h"][0]["normal_det"]
        assert det is not None
        assert not E.element(frac_list(det)).is_zero


def test_norm_one_document_reverifies(capsys):
    code, doc = run_json(capsys, "norm-one", "x^2+1", "--count", "4", "--normal")
    assert code == 0
    E = make_field(UPoly(frac_list(doc["field"]["coefficients"])))
    first = E.element(frac_list(doc["results"][0]["element"]))
    assert first == E.element([Fraction(3, 5), Fraction(4, 5)])
    for item in doc["results"]:
        a = E.element(frac_list(item["element"]))
        assert Fraction(item["norm_value"]) == 1
        assert norm(a) == 1
        assert minpoly(a).degree == 2


def test_pell_document_verifies(capsys):
    code, doc = run_json(capsys, "pell", "--b", "1", "--c=-1", "--count", "6")
    assert code == 0
    b = Fraction(doc["field"]["b"])
    c = Fraction(doc["field"]["c"])
    assert len(doc["results"]) == 6
    for pair in doc["results"]:
        x, y = Fraction(pair["x"]), Fraction(pair["y"])
        assert x * x + b * x * y + c * y * y == 1


def test_pell_text_first_solution(capsys):
    code, out = run_cli(capsys, "pell", "--b", "0", "--c=-2", "--count", "1")
    assert code == 0
    assert re.search(r"\(x, y\) = \(-?3, -?2\)", out)


def test_density_probe(capsys):
    code, doc = run_json(capsys, "density-probe", "x^2;x^3+x",
                         "--degree", "1", "--grid", "10")
    assert code == 0
    report = doc["results"][0]
    assert report["no_relation"] is True
    assert report["points"] == 21 * 21


def test_density_probe_insufficient(capsys):
    assert main(["density-probe", "x;x^2;x^3", "--degree", "2", "--grid", "0"]) == 2


def test_density_probe_too_few_points_is_refused_quickly(capsys):
    # 3^10 = 59,049 grid points against C(22, 12) = 646,646 monomials: the
    # count alone decides, before any point or monomial is built
    started = time.monotonic()
    code = main(["density-probe", ";".join(f"x^{i}" for i in range(1, 11)),
                 "--degree", "12", "--grid", "1"])
    assert time.monotonic() - started < 1
    assert code == 2
    assert "need at least 646646 sample points, got 59049" in capsys.readouterr().err


def test_density_probe_too_many_points_is_refused_quickly(capsys):
    # 6001^2 = 36,012,001 points: refused before the first is built
    started = time.monotonic()
    code = main(["density-probe", "x;x^2", "--degree", "1", "--grid", "3000"])
    assert time.monotonic() - started < 1
    assert code == 2
    err = capsys.readouterr().err
    assert "--grid gives 36012001 points, more than 100000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--degree", "--grid"])
def test_density_probe_negative_option(capsys, option):
    assert main(["density-probe", "x;x^2", option, "-1"]) == 2
    err = capsys.readouterr().err
    assert f"{option} must be at least 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", range(6))
def test_density_probe_follows_alon(capsys, seed):
    # the points are the product S_1 x S_2 x S_3 of the value sets
    # S_i = h_i(grid); a relation of degree <= d vanishes on it iff some
    # |S_i| <= d: the product of (y_i - s) over S_i, else Alon's
    # Combinatorial Nullstellensatz
    rng = random.Random(seed)
    polys = [UPoly([rng.randint(-2, 2) for _ in range(k)] + [1]) for k in (1, 2, 3)]
    grid, degree = 2, rng.randint(1, 4)
    code, doc = run_json(
        capsys, "density-probe", ";".join(str(h) for h in polys),
        "--degree", str(degree), "--grid", str(grid),
    )
    assert code == 0
    sizes = [len({poly_eval(h, Fraction(t)) for t in range(-grid, grid + 1)})
             for h in polys]
    report = doc["results"][0]
    assert report["points"] == (2 * grid + 1) ** 3
    assert report["no_relation"] is (min(sizes) > degree)


def test_density_probe_large_grid_is_quick(capsys):
    # a 2,197 x 84 monomial matrix, tens of seconds by exact elimination alone
    started = time.monotonic()
    code, doc = run_json(capsys, "density-probe", "x^2;x^3;x^5",
                         "--degree", "6", "--grid", "6")
    assert time.monotonic() - started < 10
    assert code == 0
    assert doc["results"][0]["no_relation"] is True


def test_density_probe_witness_agrees_with_elimination(capsys):
    # where some value set h_i(grid) has at most d elements, the CLI answers
    # "relation exists" without building a point; no_low_degree_relation on
    # the built points must say the same
    rng = random.Random(13)
    fired = 0
    for _ in range(40):
        polys = [UPoly([rng.randint(-2, 2) for _ in range(k)] + [1])
                 for k in rng.sample([1, 2, 3, 4], 2)]
        grid, degree = rng.randint(1, 3), rng.randint(2, 5)
        values = [[poly_eval(h, Fraction(t)) for t in range(-grid, grid + 1)]
                  for h in polys]
        if min(len(set(v)) for v in values) > degree:
            continue
        points = list(itertools.product(*values))
        if len(points) < math.comb(len(polys) + degree, degree):
            continue
        fired += 1
        code, doc = run_json(capsys, "density-probe", ";".join(str(h) for h in polys),
                             "--degree", str(degree), "--grid", str(grid))
        assert code == 0
        report = doc["results"][0]
        assert report["points"] == len(points)
        assert report["no_relation"] is no_low_degree_relation(points, degree) is False
    assert fired >= 10


@pytest.mark.parametrize("degree", ["5", "7"])
def test_density_probe_witness_is_quick(capsys, degree):
    # x^2 takes 5 values on the grid ±4, so x_1 (x_1-1) (x_1-4) (x_1-9)
    # (x_1-16) vanishes on all 729 points: exact elimination took seconds
    started = time.monotonic()
    code, doc = run_json(capsys, "density-probe", "x^2;x^3;x^5",
                         "--degree", degree, "--grid", "4")
    assert time.monotonic() - started < 1
    assert code == 0
    assert doc["results"][0]["points"] == 729
    assert doc["results"][0]["no_relation"] is False


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_byte_identical_same_seed(capsys):
    argv = ["primitive", "x^4+1", "--set", "x;x^2", "--count", "10",
            "--seed", "3", "--randomized", "--json"]
    _, first = run_cli(capsys, *argv[:-1])
    _, second = run_cli(capsys, *argv[:-1])
    assert strip_timings(first) == strip_timings(second)


def test_threads_byte_identical(capsys):
    base = ["normal", "x^4-10*x^2+1", "--set", "x", "--count", "8", "--json"]
    _, single = run_cli(capsys, *base, "--threads", "1")
    _, multi = run_cli(capsys, *base, "--threads", "4")
    assert strip_timings(single) == strip_timings(multi)


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlab.cli", "analyze", "x^2-2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"][0]["automorphism_count"] == 2


@pytest.mark.parametrize("flags", [["--json"], []])
def test_closed_reader_keeps_the_exit_code_and_a_quiet_stderr(flags):
    # the read end of the pipe is closed before the command writes a byte
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fieldlab.cli", "analyze", "x^2+1/6469693230", *flags],
            stdout=write, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_successive_calls_print_what_fresh_processes_print(capsys):
    # main() reuses one parser: no flag or command of one call may leak into
    # the next
    calls = [
        ["primitive", "x^3-2", "--count", "2", "--randomized", "--seed", "7"],
        ["primitive", "x^3-2", "--count", "2"],
        ["normal", "x^4+1", "--count", "2", "--json"],
        ["normal", "x^4+1", "--count", "2"],
        ["norm-one", "x^2+1", "--normal", "--count", "2"],
        ["norm-one", "x^2+1", "--count", "2", "--json"],
        ["pell", "--b=-1/2", "--c", "3", "--count", "2", "--max-height", "40"],
    ]
    for argv in calls:
        code, out = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "fieldlab.cli", *argv],
                              capture_output=True, text=True)
        assert (code, strip_timings(out)) == (proc.returncode, strip_timings(proc.stdout)), argv


# ---------------------------------------------------------------------------
# environment overrides
# ---------------------------------------------------------------------------


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("FIELDLAB_SEED", "42")
    _, doc = run_json(capsys, "primitive", "x^2+1", "--count", "1", "--randomized")
    assert doc["diagnostics"]["seed"] == 42


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("FIELDLAB_SEED", "42")
    _, doc = run_json(capsys, "primitive", "x^2+1", "--count", "1",
                      "--randomized", "--seed", "7")
    assert doc["diagnostics"]["seed"] == 7


def test_env_max_height(capsys, monkeypatch):
    monkeypatch.setenv("FIELDLAB_MAX_HEIGHT", "2")
    assert main(["primitive", "x^2+1", "--count", "1000000", "--json"]) == 4


def test_env_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("FIELDLAB_DEGREE_CAP", "1")
    assert main(["analyze", "x^2+1"]) == 5
    monkeypatch.setenv("FIELDLAB_DEGREE_CAP", "8")
    assert main(["analyze", "x^2+1"]) == 0


def test_bad_env_value_is_invalid_input(capsys, monkeypatch):
    monkeypatch.setenv("FIELDLAB_SEED", "not-a-number")
    assert main(["primitive", "x^2+1", "--count", "1"]) == 2
