"""The result records are NamedTuples: immutable, compared, hashed and
printed by their fields, and importing the CLI loads neither dataclasses nor
inspect."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from fieldlab import (
    AssumedIrreducible,
    CertifiedModP,
    CertifiedSplitPrime,
    ConstantPolynomial,
    PerH,
    QMatrix,
    SearchConfig,
    SeparabilityReport,
    SolveResult,
    SplitPrimeData,
    WitnessedElement,
    galois_group,
    is_separable_ext,
    make_field,
    parse_poly,
    rank_and_solve,
)
from conftest import field

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh isolated interpreter: the modules the CLI itself brings in
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "before = set(sys.modules)\n"
        "import fieldlab.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_certificates_compare_hash_and_print_by_fields():
    assert CertifiedModP(17) == CertifiedModP(prime=17)
    assert hash(CertifiedModP(17)) == hash(CertifiedModP(prime=17))
    assert CertifiedModP(17) != CertifiedModP(19)
    assert repr(CertifiedModP(17)) == "CertifiedModP(prime=17)"
    assert repr(CertifiedSplitPrime(17, 3)) == "CertifiedSplitPrime(prime=17, precision=3)"
    assert repr(AssumedIrreducible()) == "AssumedIrreducible()"
    assert AssumedIrreducible() == AssumedIrreducible()
    assert len({CertifiedModP(5), CertifiedModP(5), CertifiedSplitPrime(5, 1)}) == 2
    assert make_field(parse_poly("x^4+1")).certificate == CertifiedSplitPrime(17, 1)


def test_certificates_of_different_kinds_never_compare_equal():
    kinds = [CertifiedModP(17), CertifiedSplitPrime(17, 1), CertifiedSplitPrime(17, 2),
             AssumedIrreducible()]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert (a == b) is (i == j), (a, b)


def test_records_are_immutable():
    E = field("x^2+1")
    a = E.gen()
    x = parse_poly("x")
    records = [
        (CertifiedModP(3), "prime"),
        (CertifiedSplitPrime(17, 1), "precision"),
        (AssumedIrreducible(), "prime"),
        (galois_group(E).split, "lifted_roots"),
        (is_separable_ext(E), "gram_det"),
        (rank_and_solve(QMatrix([[1, 2]])), "rank"),
        (SearchConfig(S=[x], count=1), "count"),
        (PerH(h=x, value=a, min_poly=E.minpoly, normal_det=None), "normal_det"),
        (WitnessedElement(a=a, per_h=(), norm_value=Fraction(1)), "norm_value"),
    ]
    assert [type(r) for r, _ in records[3:6]] == [
        SplitPrimeData, SeparabilityReport, SolveResult,
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def test_split_prime_data_keeps_its_modulus():
    data = galois_group(field("x^4+1")).split
    assert data.modulus == data.p ** data.precision
    assert data == SplitPrimeData(data.field, data.p, data.lifted_roots, data.precision,
                                  data.perms)
    assert data != data._replace(perms=())


def test_solve_result_fields():
    res = rank_and_solve(QMatrix([[1, 1], [2, 2]]), [1, 2])
    assert res == SolveResult(rank=1, solution=[Fraction(1), Fraction(0)])
    assert repr(res).startswith("SolveResult(rank=1, solution=")


def test_search_config_defaults_and_tuple_conversion():
    x = parse_poly("x")
    cfg = SearchConfig(S=[x], count=2)
    assert cfg.S == (x,) and isinstance(cfg.S, tuple)
    assert (cfg.max_height, cfg.seed, cfg.mode) == (1000, 0, "deterministic")
    assert cfg == SearchConfig((x,), 2, 1000, 0, "deterministic")
    assert hash(cfg) == hash(SearchConfig((x,), 2))
    assert repr(cfg).startswith("SearchConfig(S=(UPoly(")
    assert repr(cfg).endswith(", count=2, max_height=1000, seed=0, mode='deterministic')")


@pytest.mark.parametrize("kwargs, error, message", [
    ({"S": []}, ValueError, "S must be a non-empty set of polynomials"),
    ({"S": ["1"]}, ConstantPolynomial, "constant polynomial in S: 1"),
    ({"count": 0}, ValueError, "count must be at least 1"),
    ({"max_height": 0}, ValueError, "max_height must be at least 1"),
    ({"mode": "greedy"}, ValueError, "unknown mode 'greedy'"),
])
def test_search_config_errors(kwargs, error, message):
    options = {"S": ["x"], "count": 1, **kwargs}
    options["S"] = [parse_poly(t) for t in options["S"]]
    with pytest.raises(error) as info:
        SearchConfig(**options)
    assert str(info.value) == message
