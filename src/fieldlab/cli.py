"""Command-line front end.

Commands: analyze, primitive, normal, norm-one, pell, density-probe.  Output
is a single document on stdout, as text or (--json) as JSON with
schema_version "1".  Every rational in JSON is an exact "p/q" string and
elements are coefficient arrays, so certificates can be re-verified from the
document alone.  Identical arguments and seed produce byte-identical JSON
except for the diagnostics.timings block.

Exit codes: 0 success; 2 invalid input (syntax error, reducible polynomial,
square discriminant, bad sample, a density grid of more than 10^5 points, an
option out of range); 3 not Galois where the command requires it; 4 search
budget exhausted (partial results are still emitted); 5 internal cap hit
(degree cap, or no split prime while |Aut| may exceed 1).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import partial
from math import comb, log2

from .criteria import is_separable_ext, no_low_degree_relation
from .errors import (
    ConstantPolynomial,
    DegreeCapExceeded,
    EmptyInput,
    FieldlabError,
    HeightCapExceeded,
    InsufficientSample,
    NoSplitPrimeFound,
    NotAField,
    NotGalois,
    NotSquarefree,
    PolySyntaxError,
    RationalRoot,
    TrivialExtension,
    ZeroDivisor,
    ZeroPolynomial,
)
from .galois import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_PRIME_BOUND,
    automorphisms_with_diagnostics,
)
from .numberfield import SPLIT_DEGREE_CAP, NumberField, make_field
from .parsing import MAX_POWER_BITS, format_elem, format_poly, parse_poly
from .polynomials import UPoly
from .search import (
    DEFAULT_MAX_HEIGHT,
    SearchConfig,
    WitnessedElement,
    norm_one_normal,
    norm_one_primitive,
    pell_solutions,
    search_normal,
    search_primitive,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NOT_GALOIS = 3
EXIT_BUDGET = 4
EXIT_INTERNAL_CAP = 5

# the most points density-probe builds: 10^5 points take about a second and
# 45 MB, ten times as many take 300 MB
MAX_GRID_POINTS = 10**5

_INVALID_INPUT_ERRORS = (
    PolySyntaxError,
    EmptyInput,
    ZeroPolynomial,
    ConstantPolynomial,
    NotSquarefree,
    RationalRoot,
    NotAField,
    TrivialExtension,
    InsufficientSample,
    ZeroDivisor,
    ValueError,
)
_INTERNAL_CAP_ERRORS = (DegreeCapExceeded, NoSplitPrimeFound)
_NEGATIVE_VALUE = re.compile(r"-[\dx(]")


def _digits_unlimited(fn, *args):
    # fn(*args) free of CPython's cap on int <-> str conversion (4300 digits
    # by default, since 3.10.7), which guards parsing against hostile input;
    # fieldlab's own certificates may be longer.  The cap is restored on return.
    set_cap = getattr(sys, "set_int_max_str_digits", None)
    if set_cap is None:
        return fn(*args)
    cap = sys.get_int_max_str_digits()
    set_cap(0)
    try:
        return fn(*args)
    finally:
        set_cap(cap)


def rat_str(q) -> str:
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the digit cap: only a long certificate pays
        return _digits_unlimited(rat_str, q)


def _elem_json(e) -> list[str]:
    return [rat_str(c) for c in e.coeffs]


def _poly_json(p: UPoly) -> list[str]:
    return [rat_str(c) for c in p.coeffs]


def _witness_json(w: WitnessedElement) -> dict:
    return {
        "element": _elem_json(w.a),
        "per_h": [
            {
                "h": format_poly(p.h),
                "value": _elem_json(p.value),
                "min_poly": _poly_json(p.min_poly),
                "normal_det": None if p.normal_det is None else _elem_json(p.normal_det),
            }
            for p in w.per_h
        ],
        "norm_value": None if w.norm_value is None else rat_str(w.norm_value),
    }


def _field_json(E: NumberField) -> dict:
    return {
        "polynomial": format_poly(E.minpoly),
        "coefficients": _poly_json(E.minpoly),
        "degree": E.degree,
    }


class _Run:
    """Mutable bag for one invocation: resolved options plus diagnostics."""

    def __init__(self, args):
        self.args = args
        self.seed = _resolve(args.seed, "FIELDLAB_SEED", 0)
        self.max_height = _resolve(args.max_height, "FIELDLAB_MAX_HEIGHT", DEFAULT_MAX_HEIGHT)
        # the automorphism options of analyze, normal and norm-one --normal
        degree_cap = _resolve(args.degree_cap, "FIELDLAB_DEGREE_CAP", DEFAULT_DEGREE_CAP)
        # the permutation walk grows like n!: past degree 8 it runs for minutes
        if not 1 <= degree_cap <= SPLIT_DEGREE_CAP:
            raise ValueError(f"degree cap must be in 1..{SPLIT_DEGREE_CAP}, got {degree_cap}")
        prime_bound = DEFAULT_PRIME_BOUND if args.prime_bound is None else args.prime_bound
        # no prime lies below 2: the scan would only end in exit 5
        if prime_bound < 2:
            raise ValueError(f"prime bound must be at least 2, got {prime_bound}")
        self.aut_options = {"degree_cap": degree_cap, "prime_bound": prime_bound}
        self.mode = "randomized" if args.randomized else "deterministic"
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        self.prime = None
        self.precision = None
        self.budget_exhausted = False

    def budgeted(self, search) -> tuple[list, int]:
        """search()'s results and exit code; when the height budget runs out,
        its partial results, budget_exhausted set and EXIT_BUDGET."""
        try:
            return search(), EXIT_OK
        except HeightCapExceeded as e:
            self.budget_exhausted = True
            return list(e.partial), EXIT_BUDGET

    def document(self, command: str, field: dict | None, results) -> dict:
        return {
            "schema_version": "1",
            "command": command,
            "field": field,
            "results": results,
            "diagnostics": {
                "prime": self.prime,
                "precision": self.precision,
                "seed": self.seed,
                "mode": self.mode,
                "budget_exhausted": self.budget_exhausted,
                "timings": {"total_ms": None},  # filled just before printing
            },
        }


def _resolve(flag_value, env_name: str, default: int) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    return int(raw)


def _rational_arg(flag: str, raw: str) -> Fraction:
    # Fraction expands a decimal exponent into a power of ten (1e-20000 has
    # a 66,000-bit denominator), so the mantissa's digits and the exponent
    # bound the value before it is built; the result is held to the
    # parser's power budget, as a polynomial coefficient would be
    mantissa, e, exponent = raw.lower().partition("e")
    if e:
        try:
            shift = abs(int(exponent))
        except ValueError:
            shift = 0  # no decimal exponent: Fraction refuses the literal
        if (sum(ch.isdigit() for ch in mantissa) + shift) * log2(10) > MAX_POWER_BITS:
            raise ValueError(f"{flag}={raw}: more than {MAX_POWER_BITS} bits")
    try:
        q = Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"{flag}={raw}: zero denominator") from None
    if max(q.numerator.bit_length(), q.denominator.bit_length()) > MAX_POWER_BITS:
        raise ValueError(f"{flag}={raw}: more than {MAX_POWER_BITS} bits")
    return q


def _parse_set(raw: str) -> tuple[UPoly, ...]:
    return tuple(parse_poly(part) for part in raw.split(";"))


def _cmd_analyze(run: _Run) -> tuple[dict, int]:
    E = make_field(parse_poly(run.args.polynomial))
    auts, data = automorphisms_with_diagnostics(E, **run.aut_options)
    run.prime, run.precision = data.p, data.precision
    sep = is_separable_ext(E)
    report = {
        "degree": E.degree,
        "gram_det": rat_str(sep.gram_det),
        "separable": sep.is_separable,
        "automorphisms": [",".join(rat_str(c) for c in a.r.coeffs) for a in auts],
        "automorphism_count": len(auts),
        "galois": len(auts) == E.degree,
    }
    return run.document("analyze", _field_json(E), [report]), EXIT_OK


def _search_command(run: _Run, command: str) -> tuple[dict, int]:
    E = make_field(parse_poly(run.args.polynomial))
    cfg = SearchConfig(
        S=_parse_set(run.args.set),
        count=run.args.count,
        max_height=run.max_height,
        seed=run.seed,
        mode=run.mode,
    )
    engine = (search_primitive if command == "primitive"
              else partial(search_normal, **run.aut_options))
    found, code = run.budgeted(lambda: engine(E, cfg))
    return run.document(command, _field_json(E), [_witness_json(w) for w in found]), code


def _cmd_norm_one(run: _Run) -> tuple[dict, int]:
    E = make_field(parse_poly(run.args.polynomial))
    engine = partial(norm_one_normal, **run.aut_options) if run.args.normal else norm_one_primitive
    found, code = run.budgeted(lambda: engine(
        E, run.args.count, max_height=run.max_height, seed=run.seed, mode=run.mode,
    ))
    return run.document("norm-one", _field_json(E), [_witness_json(w) for w in found]), code


def _cmd_pell(run: _Run) -> tuple[dict, int]:
    b = _rational_arg("--b", run.args.b)
    c = _rational_arg("--c", run.args.c)
    pairs, code = run.budgeted(lambda: pell_solutions(
        b, c, run.args.count, max_height=run.max_height, seed=run.seed, mode=run.mode,
    ))
    results = [{"x": rat_str(x), "y": rat_str(y)} for x, y in pairs]
    field = {"form": "x^2 + b*x*y + c*y^2 = 1", "b": rat_str(b), "c": rat_str(c)}
    return run.document("pell", field, results), code


def _cmd_density_probe(run: _Run) -> tuple[dict, int]:
    polys = _parse_set(run.args.polynomials)
    for h in polys:
        if h.degree < 1:
            raise ConstantPolynomial(f"constant polynomial in probe list: {h}")
    m = run.args.grid
    d = run.args.degree
    if d < 0:
        raise ValueError(f"--degree must be at least 0, got {d}")
    if m < 0:
        raise ValueError(f"--grid must be at least 0, got {m}")
    # the grid has (2m+1)^k points: too few or too many is decided before
    # any is built
    needed, got = comb(len(polys) + d, d), (2 * m + 1) ** len(polys)
    if got < needed:
        raise InsufficientSample(needed, got)
    if got > MAX_GRID_POINTS:
        raise ValueError(f"--grid gives {got} points, more than {MAX_GRID_POINTS}")
    grid = [Fraction(t) for t in range(-m, m + 1)]
    values = [[h(t) for t in grid] for h in polys]
    # a coordinate x_i that takes at most d values A on the grid is a
    # witness: prod over a in A of (x_i - a) has degree <= d and vanishes on
    # every point, so no point is built
    if any(len(set(v)) <= d for v in values):
        verdict = False
    else:
        verdict = no_low_degree_relation(list(itertools.product(*values)), d)
    report = {
        "polynomials": [format_poly(h) for h in polys],
        "relation_degree": d,
        "grid": m,
        "points": got,
        "no_relation": verdict,
    }
    return run.document("density-probe", None, [report]), EXIT_OK


def _render_text(doc: dict) -> str:
    lines = []
    field = doc.get("field")
    if field:
        if "polynomial" in field:
            lines.append(f"field: {field['polynomial']} (degree {field['degree']})")
        elif "form" in field:
            lines.append(
                f"form: {field['form']} with b = {_pretty_rat(field['b'])}, "
                f"c = {_pretty_rat(field['c'])}"
            )
    for r in doc["results"]:
        if doc["command"] == "analyze":
            lines.append(f"degree: {r['degree']}")
            lines.append(f"gram det: {_pretty_rat(r['gram_det'])}")
            lines.append(f"separable: {r['separable']}")
            lines.append(f"automorphism count: {r['automorphism_count']}")
            for img in r["automorphisms"]:
                coeffs = [Fraction(c) for c in img.split(",")]
                lines.append(f"  θ ↦ {format_elem(coeffs)}")
            lines.append(f"galois: {r['galois']}")
        elif doc["command"] == "pell":
            lines.append(f"(x, y) = ({_pretty_rat(r['x'])}, {_pretty_rat(r['y'])})")
        elif doc["command"] == "density-probe":
            lines.append(
                f"probe of {'; '.join(r['polynomials'])} at degree "
                f"{r['relation_degree']} on grid ±{r['grid']}: "
                f"{'no relation' if r['no_relation'] else 'relation exists'}"
            )
        else:
            coeffs = [Fraction(c) for c in r["element"]]
            parts = [f"a = {format_elem(coeffs)}"]
            if r["norm_value"] is not None:
                parts.append(f"norm = {_pretty_rat(r['norm_value'])}")
            for p in r["per_h"]:
                mp = UPoly([Fraction(c) for c in p["min_poly"]])
                piece = f"minpoly[h={p['h']}] = {format_poly(mp)}"
                if p["normal_det"] is not None:
                    det = [Fraction(c) for c in p["normal_det"]]
                    piece += f", normal det = {format_elem(det)}"
                parts.append(piece)
            lines.append("   ".join(parts))
    if doc["diagnostics"]["budget_exhausted"]:
        lines.append("warning: height budget exhausted; results are partial")
    return "\n".join(lines)


def _pretty_rat(s: str) -> str:
    q = Fraction(s)
    return str(q.numerator) if q.denominator == 1 else str(q)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldlab",
        description=(
            "Exact constructions in number fields: automorphisms, primitive "
            "and normal generators, norm-one elements, Pell solutions. "
            "Text mode prints elements as polynomials in θ (e.g. 3/5 + 4/5*θ); "
            "--json prints coefficient arrays with every rational as an exact "
            "p/q string."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument("--max-height", type=int, default=None,
                        help="search budget: cap on coefficient height "
                             "(env FIELDLAB_MAX_HEIGHT, default 1000)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized mode (env FIELDLAB_SEED, default 0)")
    common.add_argument("--randomized", action="store_true",
                        help="sample candidates instead of enumerating")
    common.add_argument("--degree-cap", type=int, default=None,
                        help="max field degree for automorphism search, 1 to 8 "
                             "(env FIELDLAB_DEGREE_CAP, default 8)")
    common.add_argument("--prime-bound", type=int, default=None,
                        help="largest prime scanned for root counts of f "
                             "and a split prime (default 10000)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted; the search is serial")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="degree, trace form, automorphisms, Galois verdict")
    p.add_argument("polynomial", help="defining polynomial in x, e.g. \"x^2+1\"")

    p = sub.add_parser("primitive", parents=[common],
                       help="elements a with every h(a) a generator")
    p.add_argument("polynomial")
    p.add_argument("--set", default="x",
                   help="';'-separated polynomials h (default \"x\")")
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("normal", parents=[common],
                       help="elements a with every h(a) a normal generator")
    p.add_argument("polynomial")
    p.add_argument("--set", default="x")
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("norm-one", parents=[common],
                       help="norm-one generators via a = b^n/N(b)")
    p.add_argument("polynomial")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--normal", action="store_true",
                   help="additionally require a normal conjugate basis")

    p = sub.add_parser("pell", parents=[common],
                       help="rational solutions of x^2 + b*x*y + c*y^2 = 1")
    p.add_argument("--b", required=True, help="rational coefficient b (use --b=-1/2 for negatives)")
    p.add_argument("--c", required=True, help="rational coefficient c")
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("density-probe", parents=[common],
                       help="certify no low-degree relation on a value grid")
    p.add_argument("polynomials", help="';'-separated polynomial list")
    p.add_argument("--degree", type=int, default=1,
                   help="max total degree of the tested relations")
    p.add_argument("--grid", type=int, default=10,
                   help="evaluation grid is the integer box ±grid")

    return parser


_DISPATCH = {
    "analyze": _cmd_analyze,
    "primitive": lambda run: _search_command(run, "primitive"),
    "normal": lambda run: _search_command(run, "normal"),
    "norm-one": _cmd_norm_one,
    "pell": _cmd_pell,
    "density-probe": _cmd_density_probe,
}


# the parser of main(), built on its first call: parse_args leaves a parser
# unchanged, so one serves every call in a process
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    argv = sys.argv[1:] if argv is None else argv
    if _PARSER is None:
        _PARSER = build_parser()
    # argparse takes any token that starts with '-' for an option; a leading
    # space keeps a negative polynomial or number a value (no option starts
    # with '-' and a digit, 'x' or '('; parse_poly, Fraction and int all
    # skip the space)
    args = _PARSER.parse_args(
        [" " + a if _NEGATIVE_VALUE.match(a) else a for a in argv]
    )
    started = time.monotonic()
    try:
        run = _Run(args)
        doc, code = _DISPATCH[args.command](run)
    except NotGalois as e:
        print(f"error: not a Galois extension ({e.count} automorphisms)", file=sys.stderr)
        return EXIT_NOT_GALOIS
    except _INTERNAL_CAP_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL_CAP
    except _INVALID_INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    doc["diagnostics"]["timings"]["total_ms"] = int((time.monotonic() - started) * 1000)
    try:
        if args.json:
            print(json.dumps(doc, ensure_ascii=False, indent=2))
        else:
            # the text reads the document's rationals back, whatever their length
            print(_digits_unlimited(_render_text, doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: what is still buffered, and the
        # interpreter's flush at exit, go to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
