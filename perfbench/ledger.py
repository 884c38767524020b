"""The layer ledger: spans recorded around each repro layer's public
entry points, from the benchmark's own files.

Each *boundary* names one function at the place its caller looks it
up.  ``repro.engine.batchsweep`` binds ``candidate_executions`` and
``expand_test`` when it is imported, so those two are wrapped in the
``batchsweep`` namespace; ``consistent_on`` is looked up on
``repro.ir.plan`` at call time, so it is wrapped there.  A wrapper bound
at a stale name would read 0 without any error, which is why every
workload lists the boundaries it must see fire (``REQUIRED``).

A boundary's *self time* is its span minus the spans of the wrapped
boundaries called inside it.  For a function returning an iterator the
span covers only the time spent inside ``next``, which is where lazy
expansion and enumeration do their work.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: boundary -> (module, attribute path, how the callee is wrapped).
#: ``call``: a function; ``iter``: a function whose returned iterator is
#: timed inside ``next``; ``method``/``classmethod``: on the named class.
BOUNDARIES = {
    "frontend.load_dialect": ("repro.litmus.frontend", "load_dialect", "call"),
    "batchsweep.candidate_executions": (
        "repro.engine.batchsweep", "candidate_executions", "iter"),
    "batchsweep.expand_test": ("repro.engine.batchsweep", "expand_test", "iter"),
    "diy.enumerate_cycles": ("repro.synth.diy", "enumerate_cycles", "iter"),
    "diy.cycle_execution": ("repro.synth.diy", "cycle_execution", "call"),
    "from_execution.to_litmus": (
        "repro.litmus.from_execution", "to_litmus", "call"),
    "synthesis.enumerate_executions": (
        "repro.synth.synthesis", "enumerate_executions", "iter"),
    "synthesis.canonical_key": ("repro.synth.synthesis", "canonical_key", "call"),
    "synthesis.weakenings": ("repro.synth.synthesis", "weakenings", "iter"),
    "IRModel.consistent": ("repro.ir.model", "IRModel.consistent", "method"),
    "CatModel.consistent": ("repro.cat.model", "CatModel.consistent", "method"),
    "plan.plan_for": ("repro.ir.plan", "plan_for", "call"),
    "codegen.compiled_for": ("repro.ir.codegen", "compiled_for", "call"),
    "BatchContext.of": ("repro.ir.batch", "BatchContext.of", "classmethod"),
    "plan.consistent_on": ("repro.ir.plan", "consistent_on", "call"),
    "campaign.run_campaign": ("repro.engine.campaign", "run_campaign", "call"),
    "batchsweep.prefill_units": ("repro.engine.batchsweep", "prefill_units", "call"),
    "lockelision.check_lock_elision": (
        "repro.metatheory.lockelision", "check_lock_elision", "call"),
    "ServiceClient.submit": ("repro.serve.client", "ServiceClient.submit", "method"),
    "ServiceClient.cells": ("repro.serve.client", "ServiceClient.cells", "method"),
    "ServiceClient.job": ("repro.serve.client", "ServiceClient.job", "method"),
    "ServiceClient.healthz": ("repro.serve.client", "ServiceClient.healthz", "method"),
    "ServiceClient.metrics_text": (
        "repro.serve.client", "ServiceClient.metrics_text", "method"),
}

#: The boundaries each workload must see fire at least once.
REQUIRED = {
    "corpus": (
        "frontend.load_dialect", "batchsweep.candidate_executions",
        "batchsweep.expand_test", "plan.plan_for", "codegen.compiled_for",
        "BatchContext.of", "plan.consistent_on", "campaign.run_campaign",
        "batchsweep.prefill_units",
    ),
    "diy": (
        "diy.enumerate_cycles", "diy.cycle_execution",
        "from_execution.to_litmus", "batchsweep.expand_test",
        "plan.plan_for", "codegen.compiled_for", "BatchContext.of",
        "plan.consistent_on", "campaign.run_campaign",
        "batchsweep.prefill_units",
    ),
    "space": (
        "synthesis.enumerate_executions", "synthesis.canonical_key",
        "synthesis.weakenings", "IRModel.consistent",
        "lockelision.check_lock_elision",
    ),
    "serve": (
        "ServiceClient.submit", "ServiceClient.cells", "ServiceClient.job",
        "ServiceClient.healthz", "ServiceClient.metrics_text",
    ),
}


class Ledger:
    """Self time, calls and work counts per boundary, while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: work counters: iterator items, packed candidates, ...
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []
        self._compiled: set = set()

    # -- spans -----------------------------------------------------------

    def _close(self, name: str, start: float) -> None:
        span = time.perf_counter() - start
        inner = self._stack.pop()
        self.self_s[name] += span - inner
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += span

    def _call(self, name, fn, args, kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def _iterate(self, name, fn, args, kwargs):
        it = None
        while True:
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                if it is None:
                    it = iter(fn(*args, **kwargs))
                item = next(it)
            except StopIteration:
                self._close(name, start)
                return
            except BaseException:
                self._close(name, start)
                raise
            self._close(name, start)
            self.counts[name + ".items"] += 1
            yield item

    # -- work counts observed at the boundary ----------------------------

    def _observe(self, name: str, args, result) -> None:
        if name in ("plan.plan_for", "codegen.compiled_for"):
            key = (name, args[0], args[2])  # (token, n): one compile each
            if key not in self._compiled:
                self._compiled.add(key)
                self.counts["ir.compiles"] += 1
        elif name == "BatchContext.of":
            self.counts["ir.packed"] += result.batch
        elif name == "plan.consistent_on":
            self.counts["ir.kernel_candidates"] += args[2].batch
        elif name == "batchsweep.prefill_units":
            pending = sum(len(unit[2]) for unit in args[0])
            self.counts["engine.pending_cells"] += pending
            self.counts["engine.covered_cells"] += len(result[1])

    # -- install / remove ------------------------------------------------

    def _wrapper(self, name: str, fn, kind: str):
        ledger = self
        if kind == "iter":
            def wrapped(*args, **kwargs):
                return ledger._iterate(name, fn, args, kwargs)
        elif kind == "classmethod":
            def wrapped(cls, *args, **kwargs):
                result = ledger._call(name, fn, (cls,) + args, kwargs)
                ledger._observe(name, args, result)
                return result
            return classmethod(wrapped)
        else:
            def wrapped(*args, **kwargs):
                result = ledger._call(name, fn, args, kwargs)
                ledger._observe(name, args, result)
                return result
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Wrap every boundary in place."""
        for name, (module, path, kind) in BOUNDARIES.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            fn = original.__func__ if kind == "classmethod" else original
            setattr(owner, attr, self._wrapper(name, fn, kind))
            self._originals.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped name back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def diff(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Ledger.snapshot` results."""
    return {
        part: {
            key: value - before[part].get(key, 0)
            for key, value in after[part].items()
        }
        for part in after
    }


def missing(workload: str, snap: dict) -> list[str]:
    """The required boundaries of ``workload`` that never fired."""
    return [name for name in REQUIRED[workload] if not snap["calls"].get(name)]
