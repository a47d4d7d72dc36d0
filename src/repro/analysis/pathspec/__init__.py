"""PathSpec: statically extracted world-switch path specifications.

The paper's Tables II/III treat every hypervisor transition as the same
trap → save → restore → eret skeleton with per-step costs.  This package
derives that skeleton *from the code*: it walks the flow CFG
(:mod:`repro.analysis.flow.cfg`) and the step extraction
(:mod:`repro.analysis.flow.effects`) over the hypervisor models and
emits each function's enumerated paths as a declarative IR — ordered
steps, register-class tokens, cost-field references into
:mod:`repro.hw.costs`, and escape edges.

The extracted specs are committed as golden JSON under ``specs/``
(schema ``repro-pathspec/1``) and checked by the ``--spec`` lint tier:

* SPEC001 — code ↔ committed-spec drift (golden-file semantics),
* SPEC002 — spec ↔ cost-table consistency in both directions.
"""

from repro.analysis.pathspec.extract import (  # noqa: F401
    SCHEMA,
    FunctionSpec,
    PathTrace,
    build_documents,
    extract_tree,
    group_for,
    load_committed,
    module_specs,
    render_document,
    resolve_spec_dir,
)
