"""One fresh process of an in-process workload (``corpus``, ``diy``,
``space``), started by ``run.py``.

It imports repro, loads the suite, runs the first round and reports
``ready`` at once, so the parent times set-up from spawn to that line.
It then runs measured rounds until ``--seconds`` have passed and
reports every round's raw and host-normalised time (``hostspeed.py``),
the checked work and its peak RSS.  With
``--trace 1`` the first round and every second measured round run under
the ledger; the rounds in between run unwrapped, so the two sets give
the tracing overhead.

Protocol: each report is one stdout line ``perfbench <json>``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import random
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402


def emit(kind: str, **payload) -> None:
    print("perfbench " + json.dumps({"kind": kind, **payload}), flush=True)


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def drain(steps):
    """Run a round (a generator, see ``workloads.py``) to its output."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def measured_round(steps, before: list[float]):
    """Run a round, sampling host speed after each of its steps.

    Each step's time is scaled by the factor of the samples either side
    of it, so a round's normalised time follows the host's speed step
    by step.  Returns the output, the raw and normalised round times and
    the last samples, which open the next round.
    """
    raw = norm = 0.0
    done = False
    while not done:
        t0 = time.perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            output, done = stop.value, True
        step = time.perf_counter() - t0
        after = hostspeed.beside(step)
        raw += step
        norm += step * hostspeed.factor(before + after)
        before = after
    return output, raw, norm, before


def knobs() -> dict:
    """The evaluation settings this process runs with."""
    from repro.core import relbatch
    from repro.ir import codegen, plan
    from repro.litmus import candidates

    return {
        "batch": candidates.batch_size(),
        "codegen": codegen.enabled(),
        "min_kernel_batch": plan.kernel_floor(),
        "backend": relbatch.active_backend(),
        "expansion_cache": candidates._cache_limit,
        "env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    import ledger as ledger_mod
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        pathlib.Path(args.root), random.Random(args.seed)
    )
    ledger = ledger_mod.Ledger() if args.trace else None
    attempted = 0
    failures: list[str] = []

    def checked(output) -> None:
        nonlocal attempted
        count, bad = workload.check(output)
        attempted += count
        failures.extend(bad)

    if ledger is not None:
        ledger.install()
    t0 = time.perf_counter()
    output = drain(workload.round())
    first = time.perf_counter() - t0
    emit("ready")
    if ledger is not None:
        ledger.remove()
        setup = ledger.snapshot()
    checked(output)

    rounds: list[float] = []
    normalised: list[float] = []
    traced: list[bool] = []
    # These samples also close set-up, which the parent opened with its own.
    setup_samples = samples = hostspeed.beside(first)
    start = time.perf_counter()
    # Traced runs alternate unwrapped and wrapped rounds: at least one each.
    least = 2 if ledger is not None else 1
    while len(rounds) < least or time.perf_counter() - start < args.seconds:
        on = ledger is not None and len(rounds) % 2 == 1
        gc.collect()
        if on:
            ledger.install()
        output, raw, norm, samples = measured_round(workload.round(), samples)
        if on:
            ledger.remove()
        rounds.append(raw)
        normalised.append(norm)
        traced.append(on)
        checked(output)

    report = {
        "rounds": rounds,
        "normalised": normalised,
        "setup_samples": setup_samples,
        "traced": traced,
        "work": workload.work,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb(),
        "knobs": knobs(),
    }
    if ledger is not None:
        whole = ledger.snapshot()
        report["ledger"] = {
            "measured": ledger_mod.diff(whole, setup),
            "whole": whole,
            "missing": ledger_mod.missing(args.workload, whole),
        }
    emit("result", **report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
