"""Spans around calls into ncfourier's public functions, recorded from outside.

:class:`Tracer` replaces each traced function in every ``ncfourier.*`` module
namespace that binds it, so calls between modules (``campaign`` ->
``checks`` -> ``estimator``) pass through a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.  A span's self
time is its duration minus the durations of its direct children; calls are
nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (module, function); several functions may share a span name
TRACED = {
    "campaign.load_config": [("campaign", "load_config")],
    "campaign.run_campaign": [("campaign", "run_campaign")],
    "checks.check_lemma_constants": [("checks", "check_lemma_constants")],
    "checks.check_hausdorff_young": [("checks", "check_hausdorff_young")],
    "checks.check_inversion_plancherel": [("checks", "check_inversion_plancherel")],
    "checks.check_paley": [("checks", "check_paley")],
    "checks.check_real_interpolation": [("checks", "check_real_interpolation")],
    "checks.check_multiplier_bound": [("checks", "check_multiplier_bound")],
    "checks.check_schur_bound": [("checks", "check_schur_bound")],
    "checks.torus_experiments": [
        ("checks", "sharpness_experiment"),
        ("checks", "endpoint_experiment"),
        ("checks", "growth_symbol_check"),
    ],
    "fourier.multiplier_map": [("fourier", "multiplier_map")],
    "fourier.fourier": [("fourier", "fourier")],
    "fourier.inverse_fourier": [("fourier", "inverse_fourier")],
    "schur.schur_map": [("schur", "schur_map")],
    "lorentz.lp_norm": [("lorentz", "lp_norm")],
    "lorentz.lorentz_norm": [("lorentz", "lorentz_norm")],
    "estimator.estimate_pq_norm": [("estimator", "estimate_pq_norm")],
    "estimator.brute_force_pq_norm": [("estimator", "brute_force_pq_norm")],
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.estimates: list = []  # every NormEstimate returned while installed
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        record_estimate = name == "estimator.estimate_pq_norm"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if record_estimate:
                self.estimates.append(result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind a wrapper in place of every traced function, wherever ncfourier binds it."""
        namespaces = [
            vars(mod) for key, mod in list(sys.modules.items())
            if mod is not None and (key == "ncfourier" or key.startswith("ncfourier."))
        ]
        for name, targets in TRACED.items():
            for module, attr in targets:
                original = getattr(sys.modules[f"ncfourier.{module}"], attr)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._patched.append((ns, key, original))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time (s), call count, and inclusive durations (s)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list] = defaultdict(list)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            calls[name] += 1
            durations[name].append(end - start)
        return self_s, calls, durations

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]) + "\n")
