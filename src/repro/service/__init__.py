"""Simulation-as-a-service: the async what-if query server.

The service layer turns the cell runner into a long-lived daemon:
clients POST what-if queries — a named report target, validated
parameters, and an optional cost-override document — to an asyncio
JSON-over-HTTP server (``python -m repro serve``), and get back the
exact bytes the direct PR-3 runner path would have produced for the
same request (the differential harness in
``tests/test_service_differential.py`` holds the service to that).

Module map:

* :mod:`repro.service.protocol` — wire format: schemas, the stable
  error document, and the hand-rolled HTTP framing (stdlib only);
* :mod:`repro.service.queries` — the target registry: canonicalization,
  query keys, cell planning, and deterministic reassembly;
* :mod:`repro.service.broker` — the coalescing execution core: one
  worker thread batching deduplicated cells through the resilient
  runner pool, with an in-flight future registry so identical
  concurrent queries simulate each cell exactly once;
* :mod:`repro.service.server` — admission control, budgets, deadlines,
  and the asyncio endpoint itself;
* :mod:`repro.service.client` — sync and async clients (the CLI's
  ``python -m repro query`` rides the sync one).
"""

from repro.service.broker import SimulationBroker
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.server import ServiceConfig, ServiceServer, start_in_thread

__all__ = [
    "AsyncServiceClient",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "SimulationBroker",
    "start_in_thread",
]
