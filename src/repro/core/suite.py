"""One-call entry points: the whole paper, or one experiment.

>>> from repro.core import suite
>>> print(suite.full_report())            # the whole evaluation section
>>> print(suite.ablation_report())        # Section V IRQ distribution
>>> print(suite.vhe_report())             # Section VI VHE comparison

Each is a one-line call into the query registry
(:mod:`repro.service.queries`), the one place a target is planned,
run, rendered and assembled: ``python -m repro <table>`` prints the same
text and ``--emit-json`` writes the registry's JSON for it.  Cells run
through :func:`repro.runner.run_plan`: deduplicated (Table II and the
VHE comparison share their KVM ARM microbenchmark cell), run in this
process or served from the content-addressed result cache, then merged
back deterministically.  ``REPRO_CACHE_DIR`` configures the default
cache; ``full_report`` also takes ``cache_dir`` directly, and
``python -m repro bench`` exposes the whole grid with per-cell timing.

``table2_data``, ``table5_data`` and ``figure4_data`` return the
registry's JSON result for the default parameters.
"""

from repro.service import queries


def full_report(cache_dir=None):
    """Everything, in paper order — one deduplicated cell-grid run."""
    return queries.render(*queries.run_local("report", cache_dir=cache_dir))


def ablation_report():
    return queries.render(*queries.run_local("ablation"))


def vhe_report():
    return queries.render(*queries.run_local("vhe"))


def table2_data():
    return queries.assemble(*queries.run_local("table2"))


def table5_data():
    return queries.assemble(*queries.run_local("table5"))


def figure4_data():
    return queries.assemble(*queries.run_local("figure4"))
