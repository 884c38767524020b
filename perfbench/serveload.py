"""The ``serve`` workload: a ``repro serve --jobs 1`` subprocess driven
over HTTP by one closed-loop client with one job in flight.

The run is a sequence of *epochs*.  Each epoch spawns a server on a
fresh result cache (set-up: spawn until ``/v1/healthz`` answers; the
generated-kernel directory is one per run), then submits every cold job
once, in a seed-chosen order:
one per corpus slice, so each cold job computes
cells no earlier job computed.  Each cold job is followed
by an identical resubmit, which the shared store must serve entirely
from cache.  Epochs repeat until the window has passed; only whole
epochs run, so every run submits the same multiset of jobs.

Cells are polled every ``POLL_S``: the client's ``iter_cells`` sleeps
0.2 s between empty polls, which would round latencies up to steps of
200 ms.  The host's speed is sampled around each boot and each cold
job with its resubmit (``hostspeed.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

from repro.engine.campaign import litmus_suite
from repro.models.registry import MODELS
from repro.serve.client import ServiceClient, ServiceError

import hostspeed
import ledger as ledger_mod
from worker import peak_rss_mb

POLL_S = 0.005
#: Host-speed sampling around each boot (``hostspeed.py``).
SETUP_SAMPLE_S = 0.05
BOOT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
#: Corpus slices, each checked against every native model: the cold
#: jobs of one epoch.  A fresh server's first two or three jobs pay for
#: plan compilation; with 16 jobs the median cold job is a warm one.
SLICES = 16


def cold_jobs(root: pathlib.Path) -> list[dict]:
    """One job per corpus slice x the native models, with the golden
    verdict of each cell it must stream, keyed by the server's item
    names.

    The slices deal the sorted corpus files out in turn, so every slice
    mixes all four dialects and the cold jobs are alike in size and
    cost: the latency quantiles then describe one kind of job.
    """
    corpus = root / "tests" / "corpus"
    golden = json.loads(
        (root / "tests" / "corpus_verdicts.json").read_text(encoding="utf-8")
    )
    files = sorted(corpus.glob("*/*.litmus"))
    models = sorted(MODELS)
    jobs = []
    for index in range(SLICES):
        chunk = files[index::SLICES]
        paths = [str(p) for p in chunk]
        # The server names items exactly as ``litmus_suite`` does.
        names = [item.name for item in litmus_suite(paths)]
        relpaths = [p.relative_to(corpus).as_posix() for p in chunk]
        jobs.append({
            "spec": {
                "suite": {"kind": "files", "paths": paths},
                "models": models,
                "label": f"slice{index}",
            },
            "want": {
                (name, model): golden[relpath][model]
                for name, relpath in zip(names, relpaths)
                for model in models
            },
        })
    return jobs


def run_job(client: ServiceClient, spec: dict, stats: dict) -> dict:
    """Submit one job and poll its cells until it is done and drained."""
    start = time.perf_counter()
    job_id = client.submit(spec)["id"]
    cells: list[dict] = []
    first = last = None
    cursor = 0
    while True:
        payload = client.cells(job_id, since=cursor)
        now = time.perf_counter()
        stats["polls"] += 1
        cursor = payload["next"]
        if payload["cells"]:
            cells.extend(payload["cells"])
            first = now if first is None else first
            last = now
        else:
            stats["empty_polls"] += 1
        if payload["state"] == "failed":
            raise ServiceError(f"job {job_id} failed: {client.job(job_id)}")
        if payload["state"] == "done" and not payload["cells"]:
            break
        if now - start > JOB_TIMEOUT_S:
            raise ServiceError(f"job {job_id} still {payload['state']}")
        if not payload["cells"]:
            time.sleep(POLL_S)
    if first is None:
        raise ServiceError(f"job {job_id} streamed no cells")
    return {
        "id": job_id,
        "cells": cells,
        "latency": last - start,
        "first": first - start,
        "done": now - start,
        "end": now,
    }


def check(job: dict, cells: list[dict], cached: bool) -> list[str]:
    """Failures of one job's cells against the golden matrix; every
    resubmit cell (``cached``) must come from the shared store."""
    failures = []
    got = {}
    for cell in cells:
        key = (cell["item"], cell["model"])
        if cell.get("error") is not None:
            failures.append(f"{key}: {cell['error']}")
        elif cell["cached"] is not cached:
            failures.append(f"{key}: cached={cell['cached']}, expected {cached}")
        elif key in got or job["want"].get(key) is not bool(cell["verdict"]):
            failures.append(f"{key}: got {cell['verdict']}")
        got[key] = cell["verdict"]
    failures.extend(f"{key}: missing" for key in job["want"] if key not in got)
    return failures


def server_counters(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
    return out


def epoch(jobs, rng, tmp_root, traced, out) -> None:
    """One server lifetime: boot, every cold job and its resubmit."""
    tmp = tempfile.mkdtemp(prefix="serve-", dir=tmp_root)
    env = dict(os.environ, REPRO_CODEGEN_DIR=os.path.join(tmp_root, "codegen"))
    ledger = out["ledger"] if traced else None
    if ledger is not None:
        ledger.install()
    stats = out["stats"]
    samples = hostspeed.sample(SETUP_SAMPLE_S)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--jobs", "1",
         "--port", "0", "--cache-dir", os.path.join(tmp, "cache")],
        cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            raise ServiceError(f"server did not start: {line!r}")
        client = ServiceClient(line.rsplit(" ", 1)[-1].strip(), timeout=60.0)
        while True:
            try:
                client.healthz()
                break
            except ServiceError:
                if time.perf_counter() - start > BOOT_TIMEOUT_S:
                    raise
                time.sleep(POLL_S)
        setup = time.perf_counter() - start
        before, samples = samples, hostspeed.sample(SETUP_SAMPLE_S)
        out["setup"].append(setup)
        out["setup_factor"].append(hostspeed.factor(before + samples))

        for job in rng.sample(jobs, len(jobs)):
            pair = time.perf_counter()
            cold = run_job(client, job["spec"], stats)
            out["failures"].extend(check(job, cold["cells"], cached=False))
            server_s = client.job(cold["id"])["elapsed_seconds"]
            warm = run_job(client, job["spec"], stats)
            out["failures"].extend(check(job, warm["cells"], cached=True))
            pair = warm["end"] - pair
            before, samples = samples, hostspeed.beside(pair)
            out["factor"].append(hostspeed.factor(before + samples))
            out["pair_s"].append(pair)
            out["pair_cells"].append(len(cold["cells"]) + len(warm["cells"]))
            out["attempted"] += 2 * len(job["want"])
            out["cold"].append(cold["latency"])
            out["first"].append(cold["first"])
            out["cached"].append(warm["latency"])
            out["server_job_s"].append(server_s)
            out["done"].append(cold["done"])
            out["traced"].append(traced)
            if traced:
                out["traced_wall"] += pair
        out["rss"].append(peak_rss_mb(proc.pid))
        for name, value in server_counters(client.metrics_text()).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if ledger is not None:
            ledger.remove()
        shutil.rmtree(tmp, ignore_errors=True)


def run(root: pathlib.Path, seed: str, seconds: float, trace: bool,
        tmp_root: str) -> dict:
    """Whole epochs until ``seconds`` have passed; the samples."""
    jobs = cold_jobs(root)
    rng = random.Random(seed)
    out = {
        "setup": [], "setup_factor": [], "cold": [], "first": [], "cached": [],
        "done": [], "server_job_s": [], "traced": [], "factor": [],
        "pair_s": [], "pair_cells": [], "rss": [], "failures": [],
        "counters": {}, "attempted": 0, "traced_wall": 0.0,
        "stats": {"polls": 0, "empty_polls": 0},
        "ledger": ledger_mod.Ledger() if trace else None,
    }
    start = time.perf_counter()
    n = 0
    least = 2 if trace else 1  # traced runs alternate: one epoch each
    while n < least or time.perf_counter() - start < seconds:
        epoch(jobs, rng, tmp_root, trace and n % 2 == 1, out)
        n += 1
    out["epochs"] = n
    return out
