"""Span tracing of the package's layers, installed from outside the package.

The tracer wraps the public names each layer module exposes and rebinds every
module attribute that refers to the original object, so a call from one layer
into another (``cli`` -> ``calibration.calibrate``, ``calibration`` ->
``mechanism.normalizer_ratio``, ...) becomes a span even though the callee was
bound with ``from .x import y``.  Nothing under ``src/`` is edited.

Spans are aggregated in memory per name: calls, inclusive seconds and self
seconds (inclusive minus the time covered by child spans).  A name that no
longer exists in the package is listed in ``absent`` and skipped, so the
benchmark keeps working when a later change removes a traced function.
"""

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "bounded_laplace"


# (span name, module, owner class or None, attribute, result counter)
SPANS = (
    ("calibration.calibrate", "calibration", None, "calibrate", "iterations"),
    ("calibration.fixed_point_operator", "calibration", None, "fixed_point_operator", None),
    ("calibration.epsilon_ratio_grid", "calibration", None, "epsilon_ratio_grid", None),
    ("calibration.achieved_epsilon", "calibration", None, "achieved_epsilon", None),
    ("mechanism.normalizer_ratio", "mechanism", None, "normalizer_ratio", None),
    ("mechanism.cdf", "mechanism", "CalibratedMechanism", "cdf", None),
    ("mechanism.sample_inverse", "mechanism", "CalibratedMechanism", "sample_inverse", "values"),
    ("mechanism.sample_rejection", "mechanism", "CalibratedMechanism", "sample_rejection",
     "rejection"),
    ("mechanism.sample_truncated", "mechanism", None, "sample_truncated", "values"),
    ("kernels.worst_interval_margin", "_kernels", None, "worst_interval_margin", None),
    ("verification.check_privacy_inequality", "verification", None,
     "check_privacy_inequality", None),
    ("verification.check_sufficient_condition", "verification", None,
     "check_sufficient_condition", None),
    ("verification.check_ratio_monotonicity", "verification", None,
     "check_ratio_monotonicity", None),
    ("verification.check_fixed_point_properties", "verification", None,
     "check_fixed_point_properties", None),
    ("verification.empirical_privacy_estimate", "verification", None,
     "empirical_privacy_estimate", None),
    ("verification.run_all_checks", "verification", None, "run_all_checks", None),
    ("cli.main", "cli", None, "main", None),
)

LAYERS = ("calibration", "mechanism", "kernels", "verification", "cli", "bench")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Aggregating span tracer; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats = {}
        self.absent = []
        self._stack = []
        self._undo = []

    def stat(self, name):
        return self.stats.get(name, SpanStats())

    def _record(self, name):
        return self.stats.setdefault(name, SpanStats())

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, elapsed):
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        st = self._record(name)
        st.calls += 1
        st.total_s += elapsed
        st.self_s += elapsed - frame[0]
        return st

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, time.perf_counter() - t0)

    def wrap(self, name, fn, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                st = self._exit(name, frame, clock() - t0)
            if counter == "iterations":
                st.count("iterations", int(result.iterations))
            elif counter == "values":
                st.count("values", int(np.size(result)))
            elif counter == "rejection":
                values, draws = result
                st.count("values", int(np.size(values)))
                st.count("attempts", int(np.sum(draws)))
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module_name, owner, attr, counter in self.spans:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            target = getattr(module, owner, None) if owner else module
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, counter)
            if owner:
                self._rebind(target, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

