"""The campaign service: submit suite × model jobs, stream verdicts.

A long-running front end over the campaign engine, in four layers:

* :mod:`~repro.serve.protocol` — the JSON job-spec / job-record wire
  shapes and their validation;
* :mod:`~repro.serve.service` — the scheduler: a job queue executed one
  campaign at a time over the engine's worker pool, with resilient
  per-shard dispatch (timeouts, bounded retries, poisoned cells) and a
  shared on-disk result store refreshed per job for fleet-wide dedupe;
* :mod:`~repro.serve.server` — the stdlib HTTP face (``/v1/jobs``,
  cursor-polled ``/cells``, ``/metrics``, ``/healthz``);
* :mod:`~repro.serve.client` — the matching urllib client with
  streaming/waiting poll loops.

Quickstart (in process)::

    from repro.serve import CampaignService, JobSpec

    service = CampaignService(jobs=4).start()
    job = service.submit(JobSpec.from_dict({
        "suite": {"kind": "diy", "arch": "x86", "length": 3},
        "models": ["x86", "x86tm"],
    }))

Over HTTP: ``repro serve`` on the server side, ``repro submit`` /
``repro jobs`` (or :class:`ServiceClient`) on the client side.  See
``src/repro/serve/README.md`` for the protocol reference.
"""

from __future__ import annotations

import importlib

#: Public name -> submodule defining it.  Submodules load on first
#: access, so ``repro.serve.protocol`` (the CLI parser reads its
#: ``DEFAULT_PORT``) does not pull in the server, service and engine.
_EXPORTS = {
    "CampaignService": "service",
    "DEFAULT_PORT": "protocol",
    "JOB_STATES": "protocol",
    "Job": "service",
    "JobSpec": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceServer": "server",
    "SpecError": "protocol",
    "serve_forever": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
