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
* :mod:`repro.service.broker` — the coalescing execution core: cache
  hits answered on the submitting thread, misses batched through the
  runner on one worker thread, with an in-flight future registry so
  identical concurrent queries simulate each cell exactly once;
* :mod:`repro.service.server` — admission control and the asyncio
  endpoint itself;
* :mod:`repro.service.client` — sync and async clients (the CLI's
  ``python -m repro query`` rides the sync one).

The package imports none of them: import the module you use, so a
command that needs no server does not load asyncio.
"""
