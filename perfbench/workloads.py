"""The in-process workloads: one *round* re-checks a workload's whole
suite, and every round's output is checked against a reference that
does not come from the batched path being measured.

``round()`` is a generator: it yields between the round's steps, where
the worker samples the host's speed, and returns the round's output.

The repro functions are called through their modules
(``campaign.run_campaign``, ``frontend.load_dialect``, ...) so that the
ledger's wrappers, installed on those module attributes, see the calls.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.engine import campaign
from repro.litmus import candidates, frontend
from repro.metatheory import lockelision
from repro.models.registry import MODELS
from repro.synth import diy, synthesis

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def reset_expansion_caches() -> None:
    """Start a round from cold candidate expansion, as a fresh
    ``repro campaign`` process does (the LRUs outlive a campaign)."""
    candidates.expand_program.cache_clear()
    candidates._expand_test.cache_clear()


def matrix_digest(rows) -> str:
    """sha256 over the sorted ``(item, model, verdict)`` rows."""
    canon = sorted((item, model, bool(verdict)) for item, model, verdict in rows)
    return hashlib.sha256(json.dumps(canon).encode("utf-8")).hexdigest()


class Corpus:
    """The 218-file herd corpus x the 8 native models, parsed from text
    and checked with no result cache every round."""

    def __init__(self, root: pathlib.Path, rng: random.Random) -> None:
        corpus = root / "tests" / "corpus"
        self.texts = [
            (path.relative_to(corpus).as_posix(), path.read_text(encoding="utf-8"))
            for path in sorted(corpus.glob("*/*.litmus"))
        ]
        rng.shuffle(self.texts)
        self.golden = json.loads(
            (root / "tests" / "corpus_verdicts.json").read_text(encoding="utf-8")
        )
        self.models = sorted(MODELS)
        self.work = len(self.texts) * len(self.models)

    def round(self):
        reset_expansion_caches()
        items = [
            campaign.CampaignItem(relpath, frontend.load_dialect(text))
            for relpath, text in self.texts
        ]
        return campaign.run_campaign(items, self.models)
        yield  # unreachable: makes round() a generator of one step

    def check(self, result) -> tuple[int, list[str]]:
        failures = []
        for relpath, _ in self.texts:
            want = self.golden.get(relpath, {})
            for model in self.models:
                cell = result.cells.get((relpath, model))
                if cell is None or cell.error is not None:
                    failures.append(f"{relpath} x {model}: no verdict")
                elif want.get(model) is not bool(cell.verdict):
                    failures.append(
                        f"{relpath} x {model}: got {cell.verdict}, "
                        f"reference {want.get(model)}"
                    )
        return self.work, failures


def has_po_edge(item_name: str) -> bool:
    """Whether a ``diy-<edge>+<edge>...`` test's cycle has a program-order
    edge, i.e. is a critical cycle that SC forbids by construction."""
    names = item_name[len("diy-"):].split("+")
    return any(diy.edge(name).kind == "po" for name in names)


class Diy:
    """``diy_suite("x86", default vocabulary, length 6)``, regenerated
    every round, x ``x86,x86tm,sc,tsc`` (``x86tm`` is a .cat model)."""

    ARCH, LENGTH = "x86", 6

    def __init__(self, root: pathlib.Path, rng: random.Random) -> None:
        self.reference = REFERENCE["diy"]
        self.models = list(self.reference["models"])
        rng.shuffle(self.models)
        self.work = self.reference["items"] * len(self.models)

    def round(self):
        reset_expansion_caches()
        items = campaign.diy_suite(self.ARCH, None, self.LENGTH)
        yield
        return items, campaign.run_campaign(items, self.models)

    def check(self, output) -> tuple[int, list[str]]:
        items, result = output
        failures = []
        if len(items) != self.reference["items"]:
            failures.append(
                f"suite has {len(items)} tests, reference "
                f"{self.reference['items']}"
            )
        observable = {
            model: set(names)
            for model, names in self.reference["observable"].items()
        }
        rows = []
        for item in items:
            for model in self.models:
                cell = result.cells.get((item.name, model))
                if cell is None or cell.error is not None:
                    failures.append(f"{item.name} x {model}: no verdict")
                    continue
                rows.append((item.name, model, cell.verdict))
                if bool(cell.verdict) != (item.name in observable[model]):
                    failures.append(f"{item.name} x {model}: got {cell.verdict}")
                elif model == "sc" and cell.verdict and has_po_edge(item.name):
                    failures.append(f"{item.name}: critical cycle observable under sc")
        if not failures and matrix_digest(rows) != self.reference["digest"]:
            failures.append("verdict matrix digest differs from the scalar path's")
        return self.work, failures


class Space:
    """Exhaustive Table 1 cells (no time budget) plus lock elision, in a
    seed-chosen order each round."""

    def __init__(self, root: pathlib.Path, rng: random.Random) -> None:
        self.reference = REFERENCE["space"]
        self.tasks = list(self.reference["synthesize"]) + list(
            self.reference["elision"]
        )
        self.rng = rng
        self.work = self.reference["candidates_per_round"]

    def round(self):
        out = []
        for task in self.rng.sample(self.tasks, len(self.tasks)):
            if out:
                yield
            if "events" in task:
                result = synthesis.synthesize(task["arch"], task["events"])
                out.append((task, (len(result.forbid), len(result.allow))))
            else:
                result = lockelision.check_lock_elision(
                    task["arch"], fixed=task["fixed"]
                )
                out.append((task, result.sound))
        return out

    def check(self, output) -> tuple[int, list[str]]:
        failures = []
        for task, got in output:
            want = (
                (task["forbid"], task["allow"]) if "events" in task
                else task["sound"]
            )
            if got != want:
                failures.append(f"{task}: got {got}")
        return len(self.tasks), failures


WORKLOADS = {"corpus": Corpus, "diy": Diy, "space": Space}


def record_diy_reference() -> dict:
    """The ``diy`` reference, recomputed on the scalar path (batch 0)."""
    reference = dict(REFERENCE["diy"])
    candidates.set_batch_size(0)
    try:
        items = campaign.diy_suite(Diy.ARCH, None, Diy.LENGTH)
        result = campaign.run_campaign(items, reference["models"])
    finally:
        candidates.set_batch_size(None)
    if result.errors():
        raise RuntimeError(f"scalar diy run errored: {result.errors()[:3]}")
    reference["items"] = len(items)
    reference["observable"] = {
        model: sorted(i.name for i in items if result.verdict(i.name, model))
        for model in reference["models"]
    }
    reference["digest"] = matrix_digest(
        (name, model, cell.verdict) for (name, model), cell in result.cells.items()
    )
    return reference


if __name__ == "__main__":
    # Re-record the diy reference from the scalar path:
    #   PYTHONPATH=src python3 perfbench/workloads.py
    REFERENCE["diy"] = record_diy_reference()
    (HERE / "reference.json").write_text(
        json.dumps(REFERENCE, indent=1) + "\n", encoding="utf-8"
    )
    print(f"diy reference: {REFERENCE['diy']['items']} tests, "
          f"digest {REFERENCE['diy']['digest'][:16]}")
