"""perfbench: the repro benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``corpus``, ``diy`` and ``space`` run
in ``PROCESSES`` fresh worker processes one after another, each given
an equal share of ``--seconds`` for measured rounds after its set-up;
``serve`` drives ``repro serve`` subprocesses from this process (see
``serveload.py``).  Every output is checked against a reference; any
mismatch makes the run exit 1.  Timings are host-normalised
(``hostspeed.py``); the raw ones are reported beside them.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer ledger (``ledger.py``).  The
report lines above it give every metric's sample count and IQR, the
workload-specific metrics that are not gated, and provenance.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

WORKLOADS = ("corpus", "diy", "space", "serve")
#: Fresh processes per in-process run: set-up is a median over these.
PROCESSES = 4
#: A run must end within 180 s; every child is killed at this deadline.
DEADLINE_S = 170.0
#: Host-speed sampling before each fresh start (``hostspeed.py``).
SETUP_SAMPLE_S = 0.1
#: Tail percentiles tried from the highest down (``latency_tail_s``).
TAIL_LADDER = (99, 95, 90, 75, 50)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def metric(values, unit: str, value=None) -> dict:
    """A metric over its samples: the median unless ``value`` is given."""
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": unit,
        "n": len(values),
        "iqr": iqr(values),
    }


# ----------------------------------------------------------------------
# in-process workloads: fresh worker processes
# ----------------------------------------------------------------------


def run_worker(root, workload, seed, seconds, trace, tmp_root, deadline) -> dict:
    """Spawn one worker; time spawn -> ``ready``; return its report."""
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=os.path.join(tmp, "cache"),
        REPRO_CODEGEN_DIR=os.path.join(tmp, "codegen"),
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--root", str(root), "--seed", seed, "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    before = hostspeed.sample(SETUP_SAMPLE_S)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=tmp, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup = None
    report = None
    try:
        for line in proc.stdout:
            if not line.startswith("perfbench "):
                continue
            message = json.loads(line[len("perfbench "):])
            if message["kind"] == "ready":
                setup = time.perf_counter() - start
            elif message["kind"] == "result":
                report = message
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or setup is None or report is None:
        raise RuntimeError(f"{workload} worker exited {code} without a result")
    report["setup"] = setup
    report["setup_factor"] = hostspeed.factor(before + report["setup_samples"])
    return report


def in_process(args, root, tmp_root, deadline) -> dict:
    reports = [
        run_worker(root, args.workload, f"{args.seed}:{i}",
                   args.seconds / PROCESSES, args.trace, tmp_root, deadline)
        for i in range(PROCESSES)
    ]
    raw = [t for r in reports for t in r["rounds"]]
    rounds = [t for r in reports for t in r["normalised"]]
    setups = scaled([r["setup"] for r in reports],
                    [r["setup_factor"] for r in reports])
    work = reports[0]["work"]
    failures = [f for r in reports for f in r["failures"]]
    out = {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "failures": failures,
        "knobs": reports[0]["knobs"],
        "samples": f"{PROCESSES} processes, {len(rounds)} rounds",
        "e2e": {
            "setup_s": metric(setups, "s"),
            "verdicts_per_s": rate([work] * len(rounds), rounds),
            "latency_p50_s": metric(rounds, "s"),
            "peak_rss_mb": metric([r["peak_rss_mb"] for r in reports], "MB"),
        },
        "extra": {
            "latency_tail_s": tail_metric(rounds),
            "host_factor": metric([n / r for r, n in zip(raw, rounds)], "1"),
            "raw_setup_s": metric([r["setup"] for r in reports], "s"),
            "raw_verdicts_per_s": rate([work] * len(raw), raw),
            "raw_latency_p50_s": metric(raw, "s"),
        },
    }
    if args.trace:
        out["layers"], out["missing"] = layers_in_process(reports)
    return out


def rate(works, times) -> dict:
    """Total work over the samples' total time, in 1/s."""
    return metric([w / t for w, t in zip(works, times)], "1/s",
                  value=sum(works) / sum(times))


def scaled(times, factors) -> list[float]:
    return [t * f for t, f in zip(times, factors)]


def tail_metric(values) -> dict:
    """The highest ladder percentile with at least ten samples above it,
    named with that count."""
    out = {"value": None, "unit": "s", "n": len(values),
           "note": "fewer than ten samples beyond p50"}
    if len(values) < 11:
        return out
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in TAIL_LADDER:
        beyond = sum(1 for v in values if v > cuts[pct - 1])
        if beyond >= 10:
            return {"value": cuts[pct - 1], "unit": "s", "n": len(values),
                    "percentile": pct, "beyond": beyond}
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merged(snapshots) -> dict:
    out = {"self_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for part, values in snap.items():
            for key, value in values.items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def split_traced(times, traced) -> tuple[list, list]:
    """``times`` of the traced samples, and of the others."""
    return ([t for t, on in zip(times, traced) if on],
            [t for t, on in zip(times, traced) if not on])


def overhead(times, traced) -> float:
    """Median traced sample over median untraced one, minus 1; from
    host-normalised times, so drift between the two does not count."""
    on, off = split_traced(times, traced)
    return statistics.median(on) / statistics.median(off) - 1.0


def layers_in_process(reports) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced round; compile metrics per process
    (compilation happens in set-up, so it is never in a round)."""
    measured = merged(r["ledger"]["measured"] for r in reports)
    whole = merged(r["ledger"]["whole"] for r in reports)
    traced, _ = split_traced([t for r in reports for t in r["rounds"]],
                             [on for r in reports for on in r["traced"]])
    n = len(traced)
    s = lambda *names: sum(measured["self_s"].get(k, 0.0) for k in names)
    c = lambda *names: sum(measured["calls"].get(k, 0) for k in names)
    k = lambda *names: sum(measured["counts"].get(x, 0) for x in names)
    pending = k("engine.pending_cells")
    covered = k("engine.covered_cells")
    values = {
        "litmus.parse_s": s("frontend.load_dialect") / n,
        "litmus.files": c("frontend.load_dialect") / n,
        "litmus.expand_s": s("batchsweep.candidate_executions",
                             "batchsweep.expand_test") / n,
        "litmus.candidates": k("batchsweep.candidate_executions.items",
                               "batchsweep.expand_test.items") / n,
        "synth.diy_s": s("diy.enumerate_cycles", "diy.cycle_execution") / n,
        "synth.cycles": k("diy.enumerate_cycles.items") / n,
        "synth.to_litmus_s": s("from_execution.to_litmus") / n,
        "synth.enumerate_s": s("synthesis.enumerate_executions") / n,
        "synth.executions": k("synthesis.enumerate_executions.items") / n,
        "synth.canonical_s": s("synthesis.canonical_key") / n,
        "synth.weakenings_s": s("synthesis.weakenings") / n,
        "models.check_s": s("IRModel.consistent", "CatModel.consistent") / n,
        "models.checks": c("IRModel.consistent", "CatModel.consistent") / n,
        "ir.compile_s": sum(
            whole["self_s"].get(x, 0.0)
            for x in ("plan.plan_for", "codegen.compiled_for")
        ) / len(reports),
        "ir.compiles": whole["counts"].get("ir.compiles", 0) / len(reports),
        "ir.pack_s": s("BatchContext.of") / n,
        "ir.packed": k("ir.packed") / n,
        "ir.kernel_s": s("plan.consistent_on") / n,
        "ir.kernel_calls": c("plan.consistent_on") / n,
        "ir.batch_mean": ratio(k("ir.kernel_candidates"), c("plan.consistent_on")),
        "engine.campaign_self_s": s("campaign.run_campaign") / n,
        "engine.prefill_self_s": s("batchsweep.prefill_units") / n,
        "engine.prefill_coverage": ratio(covered, pending),
        "engine.fallback_cells": (pending - covered) / n,
        "metatheory.elision_s": s("lockelision.check_lock_elision") / n,
        "trace.coverage": sum(measured["self_s"].values()) / sum(traced),
        "trace.overhead_frac": overhead(
            [t for r in reports for t in r["normalised"]],
            [on for r in reports for on in r["traced"]]),
    }
    missing = sorted({m for r in reports for m in r["ledger"]["missing"]})
    return values, missing


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def serve(args, root, tmp_root) -> dict:
    import ledger as ledger_mod
    import serveload
    from worker import knobs

    s = serveload.run(root, str(args.seed), args.seconds, bool(args.trace),
                      tmp_root)
    f = s["factor"]
    cold = scaled(s["cold"], f)
    out = {
        "attempted": s["attempted"],
        "failed": len(s["failures"]),
        "failures": s["failures"],
        "knobs": knobs(),
        "samples": f"{s['epochs']} server epochs, {len(cold)} cold jobs",
        "e2e": {
            "setup_s": metric(scaled(s["setup"], s["setup_factor"]), "s"),
            "verdicts_per_s": rate(s["pair_cells"], scaled(s["pair_s"], f)),
            "latency_p50_s": metric(cold, "s"),
            "peak_rss_mb": metric(s["rss"], "MB"),
        },
        "extra": {
            "latency_tail_s": tail_metric(cold),
            "first_cell_p50_s": metric(scaled(s["first"], f), "s"),
            "cached_job_p50_s": metric(scaled(s["cached"], f), "s"),
            "host_factor": metric(f, "1"),
            "raw_setup_s": metric(s["setup"], "s"),
            "raw_verdicts_per_s": rate(s["pair_cells"], s["pair_s"]),
            "raw_latency_p50_s": metric(s["cold"], "s"),
        },
    }
    if args.trace:
        ledger = s["ledger"].snapshot()
        traced = s["traced"].count(True)
        requests = sum(ledger["calls"].values())
        computed = s["counters"].get("cells_computed", 0)
        served = s["counters"].get("cells_cached_served", 0)
        stats = s["stats"]
        out["layers"] = {
            "serve.requests": requests / (2 * traced),
            "serve.request_s": ratio(sum(ledger["self_s"].values()), requests),
            "serve.empty_poll_frac": ratio(stats["empty_polls"], stats["polls"]),
            "serve.server_job_s": statistics.median(s["server_job_s"]),
            "serve.protocol_s": statistics.median(
                a - b for a, b in zip(s["done"], s["server_job_s"])
            ),
            "serve.cells_computed": computed / s["epochs"],
            "serve.cells_cached": served / s["epochs"],
            "serve.cached_hit_frac": ratio(served, served + computed),
            "trace.coverage": sum(ledger["self_s"].values()) / s["traced_wall"],
            "trace.overhead_frac": overhead(cold, s["traced"]),
        }
        out["missing"] = ledger_mod.missing("serve", ledger)
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def provenance(root: pathlib.Path) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
        git = described.stdout.strip() if described.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": git or "unavailable",
    }


def report(args, out: dict, prov: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{out['samples']}")
    for name, m in {**out["e2e"], **out["extra"]}.items():
        if m.get("value") is None:
            print(f"  {name:<18} n/a ({m.get('note')})")
            continue
        line = f"  {name:<18} {m['value']:.6g} {m['unit']}  n={m['n']}"
        if "iqr" in m:
            line += f"  IQR={m['iqr']:.4g}"
        if "percentile" in m:
            line += f"  p{m['percentile']} ({m['beyond']} beyond)"
        print(line)
    attempted = max(out["attempted"], 1)
    print(f"  {'failed_frac':<18} {out['failed'] / attempted:.6g} 1  "
          f"({out['failed']}/{out['attempted']})")
    for failure in out["failures"][:5]:
        print(f"  FAILED {failure}")
    for name, value in out.get("layers", {}).items():
        print(f"  {name:<26} {value:.6g}")
    if out.get("missing"):
        print(f"  MISSING boundaries (never fired): {', '.join(out['missing'])}")
    print(f"  provenance {json.dumps(prov)} knobs {json.dumps(out['knobs'])}")


def declared_metrics(root: pathlib.Path, trace: int, out: dict) -> dict:
    """The metrics ``BENCHMARK.json`` declares for this mode, with its
    units.  A per-layer metric of a layer the workload never reaches
    reads 0; a computed metric that is not declared is a bug."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    values = out["layers"] if trace else {
        name: m["value"] for name, m in out["e2e"].items()
    }
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {
            "value": values[m["name"]] if not trace else values.get(m["name"], 0.0),
            "unit": m["unit"],
        }
        for m in declared
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd().resolve()
    src = root / "src"
    needed = (src / "repro", root / "tests" / "corpus",
              root / "tests" / "corpus_verdicts.json")
    absent = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if absent:
        print(f"perfbench: run from a repro checkout; missing {absent}",
              file=sys.stderr)
        return 2

    # The program runs with its default evaluation knobs: drop inherited
    # REPRO_* settings; children get per-run cache and codegen dirs.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [str(src), str(HERE)]

    deadline = time.monotonic() + DEADLINE_S
    tmp_parent = root / ".perfbench-tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=tmp_parent)
    try:
        if args.workload == "serve":
            out = serve(args, root, tmp_root)
        else:
            out = in_process(args, root, tmp_root, deadline)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    report(args, out, provenance(root))
    correct = out["failed"] == 0 and not out.get("missing")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": declared_metrics(root, args.trace, out),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
