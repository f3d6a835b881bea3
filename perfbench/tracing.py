"""Outside-in tracing of fieldlab: wraps each module's public functions.

The modules import each other with ``from .x import y``, so a function is
rebound in every ``fieldlab.*`` namespace that holds it, not only in the
module that defines it.  Each wrapped call records a span (name, start, end,
parent span, job id, thread) and adds its self time -- duration minus the
time its child spans cover -- to per-name totals.  Spans and totals are kept
per thread and merged at the end, so the thread pool of ``--threads 2``
needs no lock on the hot path.

A few wrappers also count what their layer wastes: zero group determinants,
failed rational reconstructions, split-prime failures, and the candidates
certified after a search already had its count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("parsing", "polynomials", "numberfield", "linalg", "representation",
          "galois", "criteria", "search", "cli")

# counters kept next to the spans; "max" entries keep the largest value seen
_COUNTERS = ("normal_det.zero", "rational_reconstruct.none", "find_split_prime.fail",
             "find_split_prime.prime.max", "final_precision.max",
             "search.candidates", "search.certified", "search.hits", "search.wasted")


class _ThreadState:
    def __init__(self, name: str):
        self.name = name
        self.stack: list[list] = []      # [span_id, child_seconds]
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self_seconds]
        self.counters = dict.fromkeys(_COUNTERS, 0)


class Tracer:
    """Span recorder; install() wraps fieldlab, the returned callable undoes it."""

    def __init__(self):
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    # -- recording ---------------------------------------------------------

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(threading.current_thread().name)
            self._states.append(st)
        return st

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; the wrappers' common body."""
        st = self.state()
        sid = next(self._ids)
        parent = st.stack[-1][0] if st.stack else None
        frame = [sid, 0.0]
        st.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            dur = t1 - t0
            if st.stack:
                st.stack[-1][1] += dur
            stat = st.stats.get(name)
            if stat is None:
                stat = st.stats[name] = [0, 0.0]
            stat[0] += 1
            stat[1] += dur - frame[1]
            st.spans.append((sid, name, t0, t1, parent, self.job, st.name))

    def count(self, key: str, amount: int = 1) -> None:
        self.state().counters[key] += amount

    def keep_max(self, key: str, value: int) -> None:
        c = self.state().counters
        c[key] = max(c[key], value)

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, list]:
        merged: dict[str, list] = {}
        for st in self._states:
            for name, (calls, self_s) in st.stats.items():
                m = merged.setdefault(name, [0, 0.0])
                m[0] += calls
                m[1] += self_s
        return merged

    def counters(self) -> dict[str, int]:
        out = dict.fromkeys(_COUNTERS, 0)
        for st in self._states:
            for key, value in st.counters.items():
                out[key] = max(out[key], value) if key.endswith(".max") else out[key] + value
        return out

    def main_thread_self_s(self) -> float:
        main = threading.main_thread().name
        return sum(s for st in self._states if st.name == main
                   for _, s in st.stats.values())

    def other_thread_self_s(self) -> float:
        main = threading.main_thread().name
        return sum(s for st in self._states if st.name != main
                   for _, s in st.stats.values())

    def spans(self) -> list[tuple]:
        return sorted((sp for st in self._states for sp in st.spans), key=lambda sp: sp[0])

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"fieldlab.{layer}") for layer in LAYERS}
        replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        probes = self._probes()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if inspect.isgeneratorfunction(obj):
                    if attr == "enumerate_candidates":
                        replace[id(obj)] = (obj, self._count_yields(obj))
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = (obj, self._wrap(name, obj, probes.get(name)))
        search = modules["search"]
        replace[id(search._hits)] = (search._hits, self._wrap_hits(search._hits))

        undo = []
        for mod in [m for name, m in sys.modules.items()
                    if name == "fieldlab" or name.startswith("fieldlab.")]:
            for attr, obj in list(vars(mod).items()):
                pair = replace.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])
                    undo.append((mod, attr, obj))

        elem = modules["numberfield"].FieldElem
        mul = elem.__dict__["__mul__"]
        wrapped_mul = self._wrap("numberfield.FieldElem.__mul__", mul)
        for attr in ("__mul__", "__rmul__"):
            if elem.__dict__[attr] is mul:
                setattr(elem, attr, wrapped_mul)
                undo.append((elem, attr, mul))

        def uninstall():
            for owner, attr, obj in undo:
                setattr(owner, attr, obj)
        return uninstall

    def _wrap(self, name: str, fn, probe=None):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is None:
                return span(name, fn, *args, **kwargs)
            return probe(lambda: span(name, fn, *args, **kwargs))

        return wrapper

    def _probes(self):
        from fieldlab.errors import NoSplitPrimeFound

        def normal_det(call):
            det = call()
            if det.is_zero:
                self.count("normal_det.zero")
            return det

        def rational_reconstruct(call):
            q = call()
            if q is None:
                self.count("rational_reconstruct.none")
            return q

        def find_split_prime(call):
            try:
                data = call()
            except NoSplitPrimeFound:
                self.count("find_split_prime.fail")
                raise
            self.keep_max("find_split_prime.prime.max", data.p)
            return data

        def automorphisms_with_diagnostics(call):
            result = call()
            self.keep_max("final_precision.max", result[1].precision)
            return result

        return {
            "criteria.normal_det": normal_det,
            "polynomials.rational_reconstruct": rational_reconstruct,
            "galois.find_split_prime": find_split_prime,
            "galois.automorphisms_with_diagnostics": automorphisms_with_diagnostics,
        }

    def _count_yields(self, gen_fn):
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.count("search.candidates")
                yield item

        return wrapper

    def _wrap_hits(self, hits_fn):
        # certify starts in stream order (the thread pool's queue is FIFO), so
        # a candidate's call number is its stream position, give or take the
        # race of two workers for the next number; everything certified past
        # the last hit the consumer took was wasted
        def wrapper(E, cfg, certify, threads):
            calls = itertools.count()
            position: dict[int, int] = {}
            last_used = -1

            def counted(cand):
                position[id(cand)] = next(calls)
                w = certify(cand)
                self.count("search.certified")
                if w is not None:
                    self.count("search.hits")
                return w

            inner = hits_fn(E, cfg, counted, threads)
            try:
                for w in inner:
                    last_used = position[id(w.a)]
                    yield w
            except GeneratorExit:
                # the consumer has its count; closing waits for the pool
                inner.close()
                self.count("search.wasted", next(calls) - (last_used + 1))
                raise

        return wrapper
