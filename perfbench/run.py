"""fieldlab benchmark: fixed CLI job lists, run in process as a closed loop.

Usage, from the root of a fieldlab checkout:

    python3 perfbench/run.py --workload galois-ladder --seed 1 --seconds 20 --trace 0

One client runs one job at a time through ``fieldlab.cli.main(argv)`` with
``--json``, pass after pass over the workload's job list (see workloads.py),
at least MIN_PASSES times and then as long as the next pass is expected to
end within ``--seconds``.  Every answer is checked by the oracle after the
timed loop, and every repetition of a job must print the same JSON
(diagnostics.timings aside).

End-to-end metrics: setup_s (fresh interpreter importing fieldlab.cli and
building its parser, median of 22 wall times), pass_s (one pass over the
job list in nominal seconds: wall time scaled by the speed the host gave the
process meanwhile, see pass_seconds and speed.py), ok_share (jobs that
succeeded and verified, over jobs run) and peak_rss_mb.  The details file
also has the wall times: of each job, of each pass, and the job latency
median and tail, in which a failed job ranks above every successful one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes
for half the time untraced, then as long again with every public fieldlab
function wrapped (tracing.py), and reports per-layer metrics per traced
pass plus the tracing overhead.  Details (environment, digests,
latencies, per-function table) go to ``.perfbench/``; spans of a traced run
go to a file next to them.
The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_SPAWNS = 22
MIN_PASSES = 2
OUT_DIR = ".perfbench"
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import fieldlab.cli\n"
    "fieldlab.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

# per-layer metrics of wrapped functions: (span name, statistics), per traced pass
FUNCTION_METRICS = [
    ("numberfield.FieldElem.__mul__", ("calls", "self_s")),
    ("numberfield.make_field", ("self_s",)),
    ("linalg.field_det", ("self_s",)),
    ("linalg.rank_and_solve", ("calls", "self_s")),
    ("linalg.qmatrix_det", ("self_s",)),
    ("representation.minpoly", ("calls", "self_s")),
    ("representation.norm", ("calls", "self_s")),
    ("criteria.normal_det", ("calls", "self_s")),
    ("criteria.no_low_degree_relation", ("self_s",)),
    ("criteria.is_separable_ext", ("self_s",)),
    ("galois.find_split_prime", ("calls", "self_s")),
    ("galois.hensel_lift", ("calls", "self_s")),
    ("galois.automorphisms_with_diagnostics", ("calls", "self_s")),
    ("galois.apply", ("calls", "self_s")),
    ("galois.compose", ("calls", "self_s")),
    ("galois.galois_group", ("calls", "self_s")),
    ("polynomials.poly_eval", ("calls", "self_s")),
    ("polynomials.poly_gcd", ("calls", "self_s")),
    ("polynomials.squarefree_part", ("calls", "self_s")),
    ("polynomials.mod_is_irreducible", ("calls", "self_s")),
    ("polynomials.rational_reconstruct", ("calls",)),
    ("parsing.parse_poly", ("self_s",)),
    ("cli.main", ("self_s",)),
]
_UNITS = {"calls": "count", "self_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    units = {f"{fn}.{stat}": _UNITS[stat] for fn, stats in FUNCTION_METRICS for stat in stats}
    units.update({
        "criteria.normal_det.zero_share": "share",
        "polynomials.rational_reconstruct.none_share": "share",
        "galois.find_split_prime.prime": "count",
        "galois.find_split_prime.failures": "count",
        "galois.final_precision": "count",
        "search.candidates": "count",
        "search.certified": "count",
        "search.hits": "count",
        "search.hit_share": "share",
        "search.wasted": "count",
        "process.cpu_s": "s",
        "trace.pass_s": "s",
        "trace.untraced_pass_s": "s",
        "trace.overhead_s": "s",
        "trace.unwrapped_s": "s",
        "trace.other_thread_s": "s",
        "trace.accounted_share": "share",
        "trace.spans": "count",
    })
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


# -- running jobs -----------------------------------------------------------

def run_job(cli, job):
    """(latency_s, exit_code, stdout, stderr, start) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv) + ["--json"])
    except SystemExit as e:  # argparse rejected the argv
        code = e.code
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue(), t0


def run_pass(cli, jobs, tracer=None):
    """One pass over the job list: (wall_s, cpu_s, per-job results)."""
    results = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is None:
            results.append(run_job(cli, job))
        else:
            tracer.job = i
            results.append(tracer.span("bench.job", run_job, cli, job))
    return time.perf_counter() - t0, time.process_time() - c0, results


def closed_loop(cli, jobs, seconds, min_passes, tracer=None):
    """Passes over the job list: at least min_passes, then another one only
    while it should end within seconds, judged by the longest pass so far."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start + max(p[0] for p in passes) <= seconds):
        if tracer is None:
            passes.append(run_pass(cli, jobs))
        else:
            passes.append(tracer.span("bench.pass", run_pass, cli, jobs, tracer))
    return passes


# -- checking answers ---------------------------------------------------------

def digest(code, out: str, err: str) -> str:
    """sha256 of the exit code and the JSON document without its timings."""
    try:
        doc = json.loads(out)
    except ValueError:  # no document: the exit code and stderr are the answer
        body = out + err
    else:
        doc.get("diagnostics", {}).pop("timings", None)
        body = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(f"{code}\n{body}".encode()).hexdigest()


def verify(jobs, passes):
    """Judge every job run; the oracle sees each job's first answer once.

    Returns (correct, ok, digests, problems): ok[p][i] tells whether job i
    of pass p succeeded; digests and problems are lists indexed by job.
    correct is False when an emitted answer failed the oracle or a
    repetition of a job printed a different document.
    """
    digests: list[str] = []
    problems: list[list[str]] = []
    ok = []
    correct = True
    for _, _, results in passes:
        ok.append([])
        for i, (_, code, out, err, _) in enumerate(results):
            d = digest(code, out, err)
            if i == len(digests):
                digests.append(d)
                problems.append(_judge(jobs[i], code, out, err))
                correct = correct and not (code == 0 and problems[i])
            elif d != digests[i]:
                problems[i].append("result digest changed between repetitions")
                correct = False
            ok[-1].append(code == 0 and not problems[i])
    return correct, ok, digests, problems


def _judge(job, code, out, err) -> list[str]:
    if code != 0:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return [f"exit code {code}: {last}"]
    try:
        return oracle.check(json.loads(out), job)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        return [f"malformed answer: {e!r}"]


# -- metrics ------------------------------------------------------------------

def quantile(samples, q: Fraction):
    """Nearest-rank q-quantile of (latency, ok) pairs; failed jobs rank last.

    q is exact, so the rank is too.  Returns (value, samples beyond it).
    When the rank lands on a failed job the value is the largest latency
    measured, a lower bound.
    """
    ranked = sorted(samples, key=lambda s: (not s[1], s[0]))
    i = max(math.ceil(q * len(ranked)) - 1, 0)
    latency, ok = ranked[i]
    return (latency if ok else max(s[0] for s in samples)), len(ranked) - 1 - i


def measure_setup(spawns: int) -> list[float]:
    """Seconds a fresh interpreter needs to import fieldlab.cli and build the
    parser; one unmeasured spawn first, so compiling bytecode is not counted.
    Wall time: an import gains only about half as much as the speed kernel
    (speed.py) from a faster host, so scaling would not steady it."""
    times = []
    for i in range(spawns + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout))
    return times


def environment() -> dict:
    head = None
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as fh:
                head = fh.read().strip()
        else:
            head = ref
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join("src", "fieldlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "commit": head,
        "source_sha256": src.hexdigest(),
        "loadavg": list(os.getloadavg()),
    }


def _m(value, unit):
    return {"value": value, "unit": unit}


def pass_seconds(latencies, stat=min) -> float:
    """Seconds of one pass: the sum over the job list of a statistic of each
    job's latencies, given one row of latencies per pass.  pass_s takes each
    job's fastest nominal time: nominal, because a job of several seconds
    meets both fast and slow spells of the host, so no statistic of its wall
    times settles between runs; fastest, because a job's first run in the
    process also pays for growing the heap, which the host's speed does
    not explain."""
    return sum(stat(lat) for lat in zip(*latencies))


def end_to_end(passes, scaled, ok, setup_times):
    samples = [(r[0], good) for (_, _, results), row in zip(passes, ok)
               for r, good in zip(results, row)]
    tail_q = Fraction(max(len(samples) - 10, 1), len(samples))
    tail_value, tail_beyond = quantile(samples, tail_q)
    p50 = statistics.median(lat if good else math.inf for lat, good in samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": pass_seconds(scaled),
        "ok_share": sum(good for _, good in samples) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # job latency median and tail go to the details file only: from 14 to 60
    # samples of up to ten different jobs, these order statistics moved by
    # up to a third between runs, too much for a bound to mean anything
    wall = [[r[0] for r in results] for _, _, results in passes]
    details = {"pass_wall_s": [p[0] for p in passes],
               "pass_wall_median_jobs_s": pass_seconds(wall, statistics.median),
               "scaled_latencies_s": scaled,
               "op_p50_s": p50 if p50 < math.inf else max(lat for lat, _ in samples),
               "op_tail_s": tail_value, "op_tail_percentile": float(100 * tail_q),
               "op_tail_samples_beyond": tail_beyond, "job_samples": len(samples),
               "passes": len(passes), "setup_samples_s": setup_times}
    return {k: _m(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def per_layer(tracer, untraced, traced):
    n = len(traced)
    spans = tracer.spans()
    stats = tracer.stats()
    counters = tracer.counters()
    units = per_layer_units()
    values = {}
    for fn, wanted in FUNCTION_METRICS:
        calls, self_s = stats.get(fn, (0, 0.0))
        for stat in wanted:
            values[f"{fn}.{stat}"] = calls / n if stat == "calls" else self_s / n

    def share(part, whole):
        return part / whole if whole else 0.0

    nd_calls = stats.get("criteria.normal_det", (0, 0.0))[0]
    rr_calls = stats.get("polynomials.rational_reconstruct", (0, 0.0))[0]
    # means over the traced passes: the main thread's self times of all spans,
    # unwrapped time included, add up to trace.pass_s
    traced_total = sum(end - start for _, name, start, end, *_ in spans
                       if name == "bench.pass")
    traced_s = traced_total / n
    untraced_s = statistics.fmean(p[0] for p in untraced)
    bench_self = sum(stats.get(k, (0, 0.0))[1] for k in ("bench.pass", "bench.job"))
    values.update({
        "criteria.normal_det.zero_share": share(counters["normal_det.zero"], nd_calls),
        "polynomials.rational_reconstruct.none_share":
            share(counters["rational_reconstruct.none"], rr_calls),
        "galois.find_split_prime.prime": counters["find_split_prime.prime.max"],
        "galois.find_split_prime.failures": counters["find_split_prime.fail"] / n,
        "galois.final_precision": counters["final_precision.max"],
        "search.candidates": counters["search.candidates"] / n,
        "search.certified": counters["search.certified"] / n,
        "search.hits": counters["search.hits"] / n,
        "search.hit_share": share(counters["search.hits"], counters["search.certified"]),
        "search.wasted": counters["search.wasted"] / n,
        "process.cpu_s": statistics.fmean(p[1] for p in untraced),
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unwrapped_s": bench_self / n,
        "trace.other_thread_s": tracer.other_thread_self_s() / n,
        "trace.accounted_share": tracer.main_thread_self_s() / traced_total,
        "trace.spans": len(spans) / n,
    })
    return {k: _m(values[k], u) for k, u in units.items()}, stats


def write_spans(path, tracer):
    with open(path, "w") as fh:
        fh.write('{"fields": ["id", "name", "start", "end", "parent", "job", "thread"],\n'
                 ' "spans": [\n')
        spans = tracer.spans()
        for i, sp in enumerate(spans):
            fh.write(json.dumps(sp) + (",\n" if i + 1 < len(spans) else "\n"))
        fh.write("]}\n")


# -- entry point -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fieldlab", "cli.py")):
        print("error: run from the root of a fieldlab checkout (no src/fieldlab/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import fieldlab.cli as cli

    # one vCPU for this process and every thread fieldlab starts, so that the
    # speed samples (speed.py), taken in the main thread, come from the vCPU
    # that does the work; the two vCPUs of a shared host drift apart
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    jobs = make_jobs(args.workload, args.seed)
    env = environment()
    env["pinned_cpu"] = cpu
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "jobs": [list(j.argv) for j in jobs],
              "closed_loop": "1 client, 1 job at a time, in process"}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        from tracing import Tracer

        untraced = closed_loop(cli, jobs, args.seconds / 2, 1)
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            traced = closed_loop(cli, jobs, args.seconds / 2, 1, tracer)
        finally:
            uninstall()
        passes = untraced + traced
        metrics, stats = per_layer(tracer, untraced, traced)
        detail["functions"] = {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(stats.items())}
        detail["spans_file"] = stem + "-spans.json"
        write_spans(detail["spans_file"], tracer)
    else:
        # half the set-ups before the timed loop and half after, so that their
        # median does not hang on the host's speed at a single moment
        setup_times = measure_setup(SETUP_SPAWNS // 2)
        with speed.SpeedSampler() as sampler:
            passes = closed_loop(cli, jobs, args.seconds, MIN_PASSES)
        setup_times += measure_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2)
        scaled = [[sampler.scaled(r[4], r[4] + r[0]) for r in results]
                  for _, _, results in passes]
        detail["speed_kernel_s"] = {"samples": len(sampler.kernel_s),
                                    "median": statistics.median(sampler.kernel_s),
                                    "nominal": speed.K_NOMINAL_S}

    correct, ok, digests, problems = verify(jobs, passes)
    attempted = sum(len(row) for row in ok)
    failed = attempted - sum(sum(row) for row in ok)
    if not args.trace:
        metrics, extra = end_to_end(passes, scaled, ok, setup_times)
        detail.update(extra)
    detail.update({
        "latencies_s": [[r[0] for r in results] for _, _, results in passes],
        "digests": digests,
        "problems": {str(i): msgs for i, msgs in enumerate(problems) if msgs},
        "failed_share": failed / attempted,
    })
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for i, msgs in enumerate(problems):
        for msg in msgs:
            print(f"job {i} ({' '.join(jobs[i].argv[:2])}): {msg}")
    answers = hashlib.sha256(json.dumps(detail["digests"]).encode()).hexdigest()[:16]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} jobs, "
          f"{failed} failed, answers digest {answers}; details in {stem}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
