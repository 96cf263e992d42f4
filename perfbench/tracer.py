"""Per-layer timing from outside the program.

The package modules import one another's functions by name (``from
.simulate import sample_exact``), so a call is only seen if the name is
replaced in the namespace the caller looks it up in. ``Tracer.install``
replaces each target function in every carkov namespace that holds it
with a wrapper that times the call. Nothing under src/ changes.

Each wrapped call is a span. A span's self time is its duration minus
the durations of the wrapped calls made inside it. Spans are folded into
per-label totals as they close, so memory stays flat however many calls
a run makes. A target that no longer exists is skipped and listed in
``Tracer.absent``; its counters read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

#: namespaces searched for each target name
NAMESPACES = (
    "carkov",
    "carkov.model",
    "carkov.covariance",
    "carkov.markov",
    "carkov.simulate",
    "carkov.validate",
    "carkov.cli",
)

#: (span label, module to take the function from, name). The recursion
#: kernel is taken from carkov.simulate, which imports it, so that the
#: benchmark never imports the kernel package itself.
TARGETS = (
    ("kernels.ar1_recursion", "carkov.simulate", "ar1_recursion"),
    ("simulate.exact_step_operator", "carkov.simulate", "exact_step_operator"),
    ("simulate.sample_exact", "carkov.simulate", "sample_exact"),
    ("simulate.sample_spectral", "carkov.simulate", "sample_spectral"),
    ("simulate.write_csv", "carkov.simulate", "write_csv"),
    ("covariance.residue_expansion", "carkov.covariance", "residue_expansion"),
    ("covariance.moments", "carkov.covariance", "moments"),
    ("covariance.eval_r", "carkov.covariance", "eval_r"),
    ("covariance.quadrature_r", "carkov.covariance", "quadrature_r"),
    ("markov.assemble", "carkov.markov", "assemble"),
    ("model.validate", "carkov.model", "validate"),
    ("validate.check_markov_factorization", "carkov.validate", "check_markov_factorization"),
    ("validate.check_ode_annihilation", "carkov.validate", "check_ode_annihilation"),
    ("validate.check_lyapunov", "carkov.validate", "check_lyapunov"),
    ("validate.check_characteristic", "carkov.validate", "check_characteristic"),
    ("validate.check_diffusion_identity", "carkov.validate", "check_diffusion_identity"),
    ("validate.check_empirical_covariance", "carkov.validate", "check_empirical_covariance"),
    ("validate.check_partial_correlation", "carkov.validate", "check_partial_correlation"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_steps(stat, args, kwargs, result):
    stat["steps"] += len(_arg(args, kwargs, 3, "shocks"))


def _count_bytes(stat, args, kwargs, result):
    stat["bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_report(stat, args, kwargs, result):
    stat["reports"] += 1
    stat["reports_failed"] += not result.passed


#: extra counters taken from a call's arguments or result
_COUNTERS = {
    "kernels.ar1_recursion": _count_steps,
    "simulate.write_csv": _count_bytes,
}


class Tracer:
    """Wraps the target functions and accumulates per-label counters."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for label, home, name in TARGETS:
            try:
                fn = getattr(importlib.import_module(home), name, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, fn)
            for ns in NAMESPACES:
                try:
                    module = importlib.import_module(ns)
                except ImportError:
                    continue
                if getattr(module, name, None) is fn:
                    self._patched.append((module, name, fn))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _wrap(self, label, fn):
        stat = self.stats[label]
        stack = self._stack
        count = _COUNTERS.get(label)
        if label.startswith("validate.check_"):
            count = _count_report

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat["failed"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - inner
            if count is not None:
                count(stat, args, kwargs, result)
            return result

        return wrapper

    def merge(self, stats: dict) -> None:
        """Add counters recorded elsewhere, such as in a traced child process."""
        for label, counters in stats.items():
            for key, value in counters.items():
                self.stats[label][key] += value

    def dump(self, path, **extra) -> None:
        payload = {"stats": {k: dict(v) for k, v in self.stats.items()}, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
