"""The observability layer's hard invariant: zero effect when disabled.

Two guards:

* a golden sha256 of the full report — if any instrumentation ever
  perturbs a simulated cycle (or reorders output), this hash moves;
* enabled-vs-disabled equality — running the same operation with spans
  and metrics recording must produce the exact same cycle counts.
"""

import hashlib

from repro.core import suite
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import ALL_KEYS, build_testbed

#: sha256 of ``suite.full_report()`` captured on the pre-observability
#: tree.  Observability must never move this; a *deliberate* model
#: change that shifts results should update it alongside EXPERIMENTS.md.
GOLDEN_FULL_REPORT_SHA256 = (
    "506bcac1f2ebd268c475acd778a53c6fcdeadb15db143102d8077468a7f46725"
)


def test_full_report_byte_identical_with_obs_disabled():
    text = suite.full_report()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FULL_REPORT_SHA256, (
        "full_report() output changed (len=%d). If this was a deliberate "
        "model change, re-capture the golden hash; if you were adding "
        "observability, it leaked simulated cycles." % len(text)
    )


def test_microbench_cycles_identical_with_obs_enabled():
    for key in ALL_KEYS:
        baseline = MicrobenchmarkSuite(build_testbed(key)).run_all()
        testbed = build_testbed(key)
        testbed.machine.obs.enable(trace_resume=True)
        observed = MicrobenchmarkSuite(testbed).run_all()
        assert observed == baseline, key


def test_table3_breakdown_identical_with_obs_enabled():
    from repro.core.breakdown import hypercall_breakdown

    baseline = hypercall_breakdown()
    testbed = build_testbed("kvm-arm")
    testbed.machine.obs.enable()
    observed = hypercall_breakdown(testbed)
    assert observed == baseline
