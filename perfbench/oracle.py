"""Answer oracle: re-checks every emitted answer in plain Fraction arithmetic.

Nothing here imports fieldlab.  Field elements are coefficient lists (low
degree first) modulo the monic integer polynomial the job sent.  Each check
returns a list of problems; an empty list means the answer verified.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import AUTOMORPHISMS, Job


def _vec(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _mulmod(a, b, g) -> list[Fraction]:
    n = len(g) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for d in range(2 * n - 2, n - 1, -1):  # g is monic: x^n = -(g_0 + ...)
        c = prod[d]
        if c:
            for i in range(n):
                prod[d - n + i] -= c * g[i]
    return prod[:n]


def _evalmod(p, r, g) -> list[Fraction]:
    """p(r) mod g by Horner; p is a plain coefficient list."""
    n = len(g) - 1
    acc = [Fraction(0)] * n
    for c in reversed(p):
        acc = _mulmod(acc, r, g)
        acc[0] += c
    return acc


def _rank(rows) -> int:
    work = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _det(rows) -> Fraction:
    work = [list(map(Fraction, r)) for r in rows]
    n = len(work)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] / work[c][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def _gen(g, k: int = 0) -> list[Fraction]:
    n = len(g) - 1
    e = [Fraction(0)] * n
    e[0] = Fraction(k)
    if n > 1:
        e[1] += 1
    return e


def automorphisms(job: Job) -> list[tuple[Fraction, ...]]:
    """Images of theta' = theta - k under Aut(E), from the known table.

    With g(x) = f(x + k), sigma(theta') = P(theta' + k) - k when
    sigma(theta) = P(theta); each image is checked to be a root of g.
    """
    g = job.poly
    out = []
    for P in AUTOMORPHISMS[job.base]:
        img = _evalmod(P, _gen(g, job.shift), g)
        img[0] -= job.shift
        if any(_evalmod(g, img, g)):
            raise ValueError(f"automorphism table entry {P} is not a root of {job.base}")
        out.append(tuple(img))
    return out


def _power_rank(v, g) -> int:
    rows, cur = [], [Fraction(1)] + [Fraction(0)] * (len(g) - 2)
    for _ in range(len(g) - 1):
        rows.append(cur)
        cur = _mulmod(cur, v, g)
    return _rank(rows)


def _conjugate_rank(v, auts, g) -> int:
    return _rank([_evalmod(v, s, g) for s in auts])


def _norm(v, g) -> Fraction:
    n = len(g) - 1
    cols, cur = [], list(v)
    for _ in range(n):
        cols.append(cur)
        cur = _mulmod(cur, _gen(g, 0), g)
    return _det(cols)


def _field_problems(doc, job: Job) -> list[str]:
    sent = [Fraction(c) for c in job.poly]
    if _vec(doc["field"]["coefficients"]) != sent:
        return [f"field polynomial changed: {doc['field']['polynomial']}"]
    return []


def check_analyze(doc, job: Job) -> list[str]:
    problems = _field_problems(doc, job)
    g = job.poly
    report = doc["results"][0]
    got = [tuple(_vec(s.split(","))) for s in report["automorphisms"]]
    for r in got:
        if any(_evalmod(g, r, g)):
            problems.append(f"image {r} is not a root of f")
    want = automorphisms(job)
    if len(set(got)) != len(got):
        problems.append("duplicate automorphisms")
    if set(got) != set(want):
        problems.append(f"automorphism set differs: {len(got)} found, |Aut| = {len(want)}")
    if got and got[0] != tuple(_gen(g, 0)):
        problems.append("identity is not listed first")
    if report["automorphism_count"] != len(want):
        problems.append("automorphism_count is wrong")
    if report["galois"] != (len(want) == len(g) - 1):
        problems.append("galois verdict is wrong")
    return problems


def _distinct_mod_scalars(elems) -> bool:
    rays = set()
    for e in elems:
        lead = next(c for c in e if c)
        rays.add(tuple(c / lead for c in e))
    return len(rays) == len(elems)


def check_search(doc, job: Job) -> list[str]:
    """primitive, normal and norm-one: certificates of every hit."""
    problems = _field_problems(doc, job)
    g = job.poly
    n = len(g) - 1
    results = doc["results"]
    if len(results) != job.count:
        problems.append(f"{len(results)} results, {job.count} requested")
    need_normal = job.command == "normal" or job.normal
    auts = automorphisms(job) if need_normal else None
    elems = []
    for w in results:
        a = _vec(w["element"])
        elems.append(a)
        if len(w["per_h"]) != len(job.hset):
            problems.append("per_h length differs from the set")
            continue
        for h, per in zip(job.hset, w["per_h"]):
            v = _vec(per["value"])
            if v != _evalmod(h, a, g):
                problems.append(f"value is not h(a) for h = {per['h']}")
            mp = _vec(per["min_poly"])
            if len(mp) != n + 1 or mp[-1] != 1 or any(_evalmod(mp, v, g)):
                problems.append("min_poly does not vanish at the value with degree n")
            if _power_rank(v, g) != n:
                problems.append("value does not generate the field")
            if need_normal:
                if per["normal_det"] is None or not any(_vec(per["normal_det"])):
                    problems.append("normal_det missing or zero")
                if _conjugate_rank(v, auts, g) != n:
                    problems.append("conjugates of the value are not a basis")
        if job.command == "norm-one":
            if w["norm_value"] != "1/1" or _norm(a, g) != 1:
                problems.append("norm is not 1")
    if job.command == "norm-one":
        if len({tuple(e) for e in elems}) != len(elems):
            problems.append("norm-one results repeat")
    elif not _distinct_mod_scalars(elems):
        problems.append("results are not distinct modulo rational scalars")
    return problems


def check_pell(doc, job: Job) -> list[str]:
    b, c = job.extra["b"], job.extra["c"]
    problems = []
    if Fraction(doc["field"]["b"]) != b or Fraction(doc["field"]["c"]) != c:
        problems.append("form coefficients changed")
    pairs = [(Fraction(r["x"]), Fraction(r["y"])) for r in doc["results"]]
    if len(pairs) != job.count or len(set(pairs)) != len(pairs):
        problems.append("wrong number of distinct solutions")
    for x, y in pairs:
        if x * x + b * x * y + c * y * y != 1:
            problems.append(f"({x}, {y}) is not a solution")
    return problems


def check_density(doc, job: Job) -> list[str]:
    """A relation of degree <= d vanishes on the product grid S_1 x ... x S_m
    iff some |S_i| <= d (product of (y_i - s), else Alon's Nullstellensatz)."""
    m, d = job.extra["grid"], job.extra["degree"]
    sizes = []
    for p in job.extra["polys"]:
        values = {sum(c * t ** i for i, c in enumerate(p)) for t in range(-m, m + 1)}
        sizes.append(len(values))
    report = doc["results"][0]
    problems = []
    if report["points"] != (2 * m + 1) ** len(sizes):
        problems.append("wrong number of points")
    if report["no_relation"] != (min(sizes) > d):
        problems.append(f"verdict {report['no_relation']} but value-set sizes {sizes}")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "primitive": check_search,
    "normal": check_search,
    "norm-one": check_search,
    "pell": check_pell,
    "density-probe": check_density,
}


def check(doc, job: Job) -> list[str]:
    """Problems with one successful job's JSON document (empty when it verifies)."""
    if doc.get("command") != job.command:
        return [f"command {doc.get('command')!r} != {job.command!r}"]
    return CHECKS[job.command](doc, job)
