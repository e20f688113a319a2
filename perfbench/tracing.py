"""Timing spans around the public functions each surfmatch layer exports.

The benchmark never edits the program.  For a traced phase it rebinds the
module attributes through which the estimators reach each layer (the
harness imports ``trial_seed``, ``sample_iid`` and the rest into its own
namespace; ``decode`` reaches the matcher through ``maindecoder``) and puts
the originals back afterwards.  Spans are aggregated in memory per name:
every duration, the summed self time (duration minus the time of child
spans), and a count of the parent span names.
"""
from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (surfmatch module whose attribute is rebound, attribute, span name).  The
# span name is the layer that defines the function, then the function.
TARGETS = (
    ("harness", "trial_seed", "noise.trial_seed"),
    ("harness", "sample_iid", "noise.sample_iid"),
    ("harness", "inject_k_errors", "noise.inject_k_errors"),
    ("harness", "syndrome_from_errors", "noise.syndrome_from_errors"),
    ("harness", "run_chain", "harness.run_chain"),
    ("harness", "adaptive_predecode", "predecoder.adaptive_predecode"),
    ("harness", "decode", "maindecoder.decode"),
    ("maindecoder", "brute_force_mwpm", "maindecoder.brute_force_mwpm"),
    ("harness", "build_decoding_graph", "graph.build_decoding_graph"),
    ("harness", "build_path_table", "graph.build_path_table"),
)


class SpanStats:
    __slots__ = ("durations", "self_s", "parents")

    def __init__(self) -> None:
        self.durations = array("d")
        self.self_s = 0.0
        self.parents: Counter = Counter()

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.observe_s = 0.0  # time in observers, excluded from every span
        self._stack: list[list] = []  # [span name, time of its child spans]

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span called ``name``.

        ``observe(args, result)`` runs after the span closes.  Its time is
        counted as child time of the enclosing span and in ``observe_s``, so
        the benchmark's own checks are not charged to any layer.
        """
        stack = self._stack
        st = self.stats.setdefault(name, SpanStats())
        durations, parents = st.durations, st.parents

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                durations.append(dt)
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    parents[stack[-1][0]] += 1
                else:
                    parents[None] += 1
            if observe is not None:
                t0 = perf_counter()
                observe(args, result)
                dt = perf_counter() - t0
                self.observe_s += dt
                if stack:
                    stack[-1][1] += dt
            return result
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args)

    @contextmanager
    def installed(self, observers: dict):
        """Rebind every target to a traced wrapper for the ``with`` body.

        ``observers`` maps a span name to ``observe(args, result)``, called
        after the span closes.  A target the program no longer has is left
        out; its span then reads zero calls and the run reports it missing.
        """
        saved = []
        try:
            for module, attr, span in TARGETS:
                mod = importlib.import_module(f"surfmatch.{module}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(span, fn, observers.get(span)))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        return {
            name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                   "parents": {str(p): n for p, n in st.parents.items()}}
            for name, st in sorted(self.stats.items())
        }
