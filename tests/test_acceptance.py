"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line) each.

Each criterion re-verifies its claims from scratch with exact arithmetic; no
tolerance anywhere.  Runtime budgets are asserted where stated.
"""

import json
import random
import re
import time
from fractions import Fraction

from fieldlab import (
    NotAField,
    SearchConfig,
    UPoly,
    automorphisms,
    conjugate_vector,
    galois_group,
    minpoly,
    norm,
    normal_det,
    norm_one_normal,
    norm_one_primitive,
    parse_poly,
    pell_solutions,
    poly_eval,
    search_normal,
    search_primitive,
    trace,
)
from fieldlab.cli import main
from fieldlab.numberfield import invert
from conftest import (
    GALOIS_POLYS,
    REFERENCE_POLYS,
    conjugate_rank,
    distinct_mod_scalars,
    field,
    matrix_product,
    matrix_rank,
    random_elem,
    random_nonzero_elem,
    random_upoly,
    regrep,
)

EXPECTED_AUT_COUNTS = {
    "x^2+1": 2,
    "x^2-2": 2,
    "x^3-2": 1,
    "x^3-x-1": 1,
    "x^4-10*x^2+1": 4,
    "x^4+x^3+x^2+x+1": 4,
    "x^4+1": 4,
}


def test_criterion_01_automorphism_counts_under_10s():
    started = time.perf_counter()
    for text, expected in EXPECTED_AUT_COUNTS.items():
        E = field(text)
        auts = automorphisms(E)
        assert len(auts) == expected, f"{text}: got {len(auts)} automorphisms"
        for s in auts:
            assert poly_eval(E.minpoly, s.r).is_zero
    # hand-derived image set for Q(sqrt2, sqrt3): theta = sqrt2 + sqrt3,
    # theta^3 - 10*theta = sqrt2 - sqrt3
    E = field("x^4-10*x^2+1")
    th = E.gen()
    assert {s.r for s in automorphisms(E)} == {
        th, -th, th**3 - 10 * th, -(th**3) + 10 * th,
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"automorphism suite took {elapsed:.1f}s"


def test_criterion_02_primitive_search_25_per_field_under_60s():
    S = tuple(parse_poly(t) for t in ("x", "x^2", "x^3+x"))
    for text in REFERENCE_POLYS:
        E = field(text)
        started = time.perf_counter()
        results = search_primitive(E, SearchConfig(S=S, count=25))
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"{text}: search took {elapsed:.1f}s"
        assert len(results) == 25
        for w in results:
            for per in w.per_h:
                value = poly_eval(per.h, w.a)
                assert value == per.value
                mp = minpoly(value)
                assert mp == per.min_poly
                assert mp.degree == E.degree
        assert distinct_mod_scalars([w.a for w in results])


def test_criterion_03_norm_one_primitive_25_per_field():
    for text in REFERENCE_POLYS:
        E = field(text)
        results = norm_one_primitive(E, 25)
        assert len(results) == 25
        for w in results:
            assert norm(w.a) == 1
            assert minpoly(w.a).degree == E.degree
    assert norm_one_primitive(field("x^2+1"), 1)[0].a == field("x^2+1").gen()


def test_criterion_04_normal_search_25_with_rank_oracle():
    S = tuple(parse_poly(t) for t in ("x", "x^2"))
    for text in GALOIS_POLYS:
        E = field(text)
        G = galois_group(E)
        results = search_normal(E, SearchConfig(S=S, count=25))
        assert len(results) == 25
        for w in results:
            for per in w.per_h:
                value = poly_eval(per.h, w.a)
                assert per.normal_det is not None
                assert not per.normal_det.is_zero
                assert minpoly(value).degree == E.degree
                # independent oracle: exact elimination on conjugate coords
                assert conjugate_rank(G, value) == E.degree


def test_criterion_05_norm_one_normal_10_each():
    for text in ("x^2+1", "x^4-10*x^2+1"):
        E = field(text)
        G = galois_group(E)
        results = norm_one_normal(E, 10)
        assert len(results) == 10
        for w in results:
            assert norm(w.a) == 1
            assert minpoly(w.a).degree == E.degree
            assert conjugate_rank(G, w.a) == E.degree
    E = field("x^2+1")
    first = norm_one_normal(E, 1)[0].a
    assert first == E.element([Fraction(3, 5), Fraction(4, 5)])


def test_criterion_06_pell_20_solutions_and_rejections():
    for b, c in [(Fraction(0), Fraction(-2)), (Fraction(1), Fraction(-1))]:
        pairs = pell_solutions(b, c, 20)
        assert len(pairs) == 20
        assert len(set(pairs)) == 20
        for x, y in pairs:
            assert x * x + b * x * y + c * y * y == 1
    for b, c, witness in [(Fraction(0), Fraction(-1), 2), (Fraction(2), Fraction(1), 0)]:
        try:
            pell_solutions(b, c, 1)
        except NotAField as e:
            assert e.witness == witness
        else:
            raise AssertionError(f"(b={b}, c={c}) not rejected")


def test_criterion_07_determinant_vs_rank_200_per_galois_field():
    rng = random.Random(1944)
    for text in GALOIS_POLYS:
        E = field(text)
        assert E.degree <= 4
        G = galois_group(E)
        for _ in range(200):
            a = random_elem(E, rng, span=8)
            det_nonzero = not normal_det(G, a).is_zero
            rank_full = conjugate_rank(G, a) == E.degree
            assert det_nonzero == rank_full


def test_criterion_08_density_cross_check_all_fields():
    for text in GALOIS_POLYS:
        E = field(text)
        G = galois_group(E)
        th = E.gen()
        vectors = [conjugate_vector(G, th**i) for i in range(E.degree)]
        assert matrix_rank(vectors) == E.degree
    for text in REFERENCE_POLYS:
        E = field(text)
        assert (len(automorphisms(E)) == E.degree) == (text in GALOIS_POLYS)


def _strip_timings(text: str) -> str:
    return re.sub(r'"total_ms": \d+', '"total_ms": 0', text)


def test_criterion_09_byte_identical_json(capsys):
    commands = [
        ["analyze", "x^2+1"],
        ["primitive", "x^4+1", "--set", "x;x^2", "--count", "10",
         "--randomized", "--seed", "11"],
        ["normal", "x^4-10*x^2+1", "--set", "x", "--count", "8"],
        ["norm-one", "x^2+1", "--count", "8", "--normal"],
        ["pell", "--b", "0", "--c=-2", "--count", "10"],
        ["density-probe", "x^2;x^3+x", "--degree", "1", "--grid", "6"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert main(argv + ["--json"]) == 0
            outputs.append(_strip_timings(capsys.readouterr().out))
        assert outputs[0] == outputs[1], f"non-deterministic: {argv[0]}"
        json.loads(outputs[0])  # well-formed
    # thread fan-out must not reorder results
    base = ["normal", "x^4+1", "--set", "x;x^2", "--count", "10", "--json"]
    assert main(base + ["--threads", "1"]) == 0
    single = _strip_timings(capsys.readouterr().out)
    assert main(base + ["--threads", "4"]) == 0
    multi = _strip_timings(capsys.readouterr().out)
    assert single == multi


def test_criterion_10_invariant_suites_zero_tolerance():
    rng = random.Random(2026)
    # polynomial ring axioms
    for _ in range(150):
        p, q, r = (random_upoly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
    # field axioms and homomorphism properties
    for text in ("x^2+1", "x^3-2", "x^4+1"):
        E = field(text)
        for _ in range(50):
            a = random_nonzero_elem(E, rng, span=8)
            b = random_elem(E, rng, span=8)
            assert a * invert(a) == E.one()
            assert regrep(a * b).entries == matrix_product(regrep(a), regrep(b)).entries
            assert norm(a * b) == norm(a) * norm(b)
            assert trace(a + b) == trace(a) + trace(b)
