"""Seeded job lists for the four benchmark workloads.

A job is one fieldlab CLI invocation: an argv list (``--json`` is appended by
the runner) plus what the answer oracle needs to know about it.  The seed
only changes the generated argv; fieldlab itself never sees it, except as
the ``--seed`` of a job that runs in ``--randomized`` mode.

A seed yields one job list, which a run repeats pass after pass.  The seed
varies only inputs that leave the cost of a pass nearly unchanged, because
the benchmark's spread is measured over runs with different seeds: the
order of the jobs, the shift x -> x+k (k in SHIFTS) of the fields whose job
costs under about 1 % of the pass, the ``--seed`` of ``--randomized`` jobs,
the Pell form and the density-probe polynomials.  Every other field job is
shifted by FIXED_SHIFT: between shifts, the cost of one job differs by up
to a factor of two.

What each workload is for:

galois-ladder
    ``analyze`` on ten fields of degree 2 to 8, Galois and not.  Almost all
    of the time is automorphism recovery (split prime, Hensel lift, the
    permutation walk of x^7-2, ``compose``/``apply``).  ``x^7-x-1`` has
    Aut = {id} but exits 5 (no fully split prime below the bound) at the
    commit that introduced this benchmark; it is counted as a failed job,
    never dropped.
    Seed: the job order and the shifts of the four fields of degree <= 4.

normal-search
    ``normal`` and ``norm-one --normal`` on Galois fields of degree 4 to 8.
    Rejection-heavy: on x^8+1 most candidates fail ``normal_det`` and
    ``FieldElem.__mul__`` dominates.
    Seed: the job order and the ``--seed`` of the two jobs that run
    ``--randomized`` (together under 1 % of the pass apart between seeds).

primitive-pell
    ``primitive``, ``norm-one`` and ``pell`` with ``--threads 2``.  Almost
    every candidate is a hit, so the per-hit certificate (``minpoly``,
    ``rank_and_solve``) dominates; the only workload that runs the thread
    pool and its batches.
    Seed: the job order and the Pell form (b, c).

density-probe
    Four ``density-probe`` jobs, each of three seeded polynomials of
    degrees 2, 3, 5 at ``--degree 4 --grid 4``: one 729 x 35 rational
    elimination per job and no ``FieldElem`` arithmetic at all.  One
    triple's cost moves by up to 10 % either way with its coefficients;
    four per pass average most of that out.
    Seed: the non-leading coefficients (in -2..2) of the polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

SHIFTS = (-1, 1, 2)
FIXED_SHIFT = 1

# Cyclotomic fields Q(zeta_m): theta -> theta^j for j prime to m.
_CYCLOTOMIC = {
    "x^2+1": (1, 3),
    "x^4+x^3+x^2+x+1": (1, 2, 3, 4),
    "x^4+1": (1, 3, 5, 7),
    "x^6+x^5+x^4+x^3+x^2+x+1": (1, 2, 3, 4, 5, 6),
    "x^6+x^3+1": (1, 2, 4, 5, 7, 8),
    "x^8+1": tuple(range(1, 16, 2)),
}


def _auts() -> dict[str, tuple[tuple[int, ...], ...]]:
    out = {name: tuple((0,) * j + (1,) for j in js)
           for name, js in _CYCLOTOMIC.items()}
    out["x^4-10*x^2+1"] = ((0, 1), (0, -1), (0, 10, 0, -1), (0, -10, 0, 1))
    out["x^6-2"] = ((0, 1), (0, -1))
    out["x^7-2"] = ((0, 1),)
    out["x^7-x-1"] = ((0, 1),)
    return out


# Automorphisms of each field, as polynomials in a root theta of the
# unshifted defining polynomial (coefficients low degree first).  They are
# the oracle's independent knowledge of Aut(E); see oracle.py.
AUTOMORPHISMS = _auts()

# Integer coefficient lists of the named polynomials, low degree first.
POLYS = {
    "x^2+1": (1, 0, 1),
    "x^4-10*x^2+1": (1, 0, -10, 0, 1),
    "x^4+x^3+x^2+x+1": (1, 1, 1, 1, 1),
    "x^4+1": (1, 0, 0, 0, 1),
    "x^6+x^5+x^4+x^3+x^2+x+1": (1,) * 7,
    "x^6-2": (-2, 0, 0, 0, 0, 0, 1),
    "x^6+x^3+1": (1, 0, 0, 1, 0, 0, 1),
    "x^8+1": (1,) + (0,) * 7 + (1,),
    "x^7-2": (-2,) + (0,) * 6 + (1,),
    "x^7-x-1": (-1, -1) + (0,) * 5 + (1,),
    "x^3-2": (-2, 0, 0, 1),
    "x^5-2": (-2, 0, 0, 0, 0, 1),
    "x^8-2": (-2,) + (0,) * 7 + (1,),
    "x^3-x-1": (-1, -1, 0, 1),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the facts its answer must satisfy."""

    argv: tuple[str, ...]
    command: str
    poly: tuple[int, ...] = ()          # defining polynomial actually sent
    base: str = ""                      # key into POLYS / AUTOMORPHISMS
    shift: int = 0                      # poly(x) = POLYS[base](x + shift)
    hset: tuple[tuple[int, ...], ...] = ((0, 1),)
    count: int = 1
    normal: bool = False
    extra: dict = field(default_factory=dict, hash=False, compare=False)


def shift_poly(coeffs, k: int) -> tuple[int, ...]:
    """Coefficients of f(x + k), low degree first."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * k ** (i - j)
    return tuple(out)


def format_poly(coeffs) -> str:
    """Integer or rational coefficients as a fieldlab polynomial string."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            mono = "x" if i == 1 else f"x^{i}"
            body = mono if mag == 1 else f"{mag}*{mono}"
        terms.append((sign, body))
    first_sign, first = terms[0]
    text = ("-" if first_sign == "-" else "") + first
    return text + "".join(f"{s}{b}" for s, b in terms[1:])


def _field_job(command: str, base: str, k: int, args=(), hset=((0, 1),),
               count: int = 1, normal: bool = False) -> Job:
    poly = shift_poly(POLYS[base], k)
    argv = (command, format_poly(poly)) + tuple(args)
    return Job(argv, command, poly, base, k, tuple(hset), count, normal)


def galois_ladder(rng: random.Random) -> list[Job]:
    light = ["x^2+1", "x^4-10*x^2+1", "x^4+x^3+x^2+x+1", "x^4+1"]
    heavy = ["x^6+x^5+x^4+x^3+x^2+x+1", "x^6-2", "x^6+x^3+1", "x^8+1",
             "x^7-2", "x^7-x-1"]
    return ([_field_job("analyze", b, rng.choice(SHIFTS)) for b in light]
            + [_field_job("analyze", b, FIXED_SHIFT) for b in heavy])


_X, _X2, _X3PX = (0, 1), (0, 0, 1), (0, 1, 0, 1)


def normal_search(rng: random.Random) -> list[Job]:
    specs = [
        ("normal", "x^4+x^3+x^2+x+1", (), (_X,), 25, False, True),
        ("normal", "x^4-10*x^2+1", ("--set", "x;x^2"), (_X, _X2), 10, False, True),
        ("normal", "x^6+x^5+x^4+x^3+x^2+x+1", (), (_X,), 10, False, False),
        ("norm-one", "x^6+x^5+x^4+x^3+x^2+x+1", ("--normal",), (_X,), 5, True, False),
        ("normal", "x^8+1", (), (_X,), 5, False, False),
    ]
    jobs = []
    for command, base, args, hset, count, normal, randomized in specs:
        args = args + ("--count", str(count))
        if randomized:
            args += ("--randomized", "--seed", str(rng.randrange(1, 10**6)))
        jobs.append(_field_job(command, base, FIXED_SHIFT, args, hset, count, normal))
    return jobs


def _pell_form(rng: random.Random) -> tuple[Fraction, Fraction]:
    # b^2 - 4c must not be a rational square, or there is no field
    while True:
        b = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((1, 2, 3)))
        disc = b * b - 4 * c
        if not _is_rational_square(disc):
            return b, c


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return (isqrt(q.numerator) ** 2 == q.numerator
            and isqrt(q.denominator) ** 2 == q.denominator)


def primitive_pell(rng: random.Random) -> list[Job]:
    threads = ("--threads", "2")
    s3 = ("--set", "x;x^2;x^3+x")
    specs = [
        ("primitive", "x^3-2", s3 + ("--count", "25"), (_X, _X2, _X3PX), 25),
        ("primitive", "x^5-2", s3 + ("--count", "25"), (_X, _X2, _X3PX), 25),
        ("primitive", "x^8-2", s3 + ("--count", "10"), (_X, _X2, _X3PX), 10),
        ("primitive", "x^7-x-1", ("--set", "x;x^2", "--count", "10"), (_X, _X2), 10),
        ("norm-one", "x^5-2", ("--count", "25"), (_X,), 25),
        ("norm-one", "x^3-x-1", ("--count", "25"), (_X,), 25),
    ]
    jobs = [_field_job(command, base, FIXED_SHIFT, args + threads, hset, count)
            for command, base, args, hset, count in specs]
    b, c = _pell_form(rng)
    argv = ("pell", f"--b={b}", f"--c={c}", "--count", "25") + threads
    jobs.append(Job(argv, "pell", count=25, extra={"b": b, "c": c}))
    return jobs


def density_probe(rng: random.Random) -> list[Job]:
    jobs = []
    for _ in range(4):
        polys = tuple(tuple([rng.randint(-2, 2) for _ in range(degree)] + [1])
                      for degree in (2, 3, 5))
        argv = ("density-probe", ";".join(format_poly(p) for p in polys),
                "--degree", "4", "--grid", "4")
        jobs.append(Job(argv, "density-probe",
                        extra={"polys": polys, "degree": 4, "grid": 4}))
    return jobs


WORKLOADS = {
    "galois-ladder": galois_ladder,
    "normal-search": normal_search,
    "primitive-pell": primitive_pell,
    "density-probe": density_probe,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
