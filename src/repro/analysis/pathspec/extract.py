"""Whole-program PathSpec extraction over the hypervisor models.

One :class:`FunctionSpec` per function that touches the machine (at
least one op or architectural step anywhere in its body): every
enumerated CFG path is kept in memory as a :class:`PathTrace` (steps,
terminator, escape line) for the flow rules, and serialized — line
numbers stripped, structurally identical paths deduplicated — for the
committed golden JSON under ``specs/``.

Register-class tokens are canonicalized through module-level name
aliases (``ARM_SWITCH_ORDER = ALL_ARM_CLASSES``) so a sweep keeps the
same token no matter which local alias the module loops over.
"""

import json
import pathlib

from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.effects import Extractor, Step

SCHEMA = "repro-pathspec/1"

#: serialized paths per function are deduplicated then capped; the full
#: enumeration stays available in memory for the flow rules.
MAX_SERIALIZED_PATHS = 64

_CACHE_ATTR = "_pathspec_cache"


class PathTrace:
    """One enumerated path: its steps plus how it leaves the function."""

    __slots__ = ("steps", "terminator", "escape_line")

    def __init__(self, steps, terminator, escape_line):
        self.steps = steps
        self.terminator = terminator
        self.escape_line = escape_line


class FunctionSpec:
    """Extracted paths of one function, addressable by a stable id."""

    __slots__ = ("module", "qualname", "func", "paths", "truncated", "all_steps")

    def __init__(self, module, qualname, func, paths, truncated, all_steps):
        self.module = module
        self.qualname = qualname
        self.func = func
        self.paths = paths
        self.truncated = truncated
        #: steps of every CFG statement node, reachable or not
        self.all_steps = all_steps

    @property
    def spec_id(self):
        return "%s::%s" % (self.module.relpath, self.qualname)

    def serialize(self):
        """The committed JSON form: lines stripped, paths deduplicated
        in first-seen order and capped at :data:`MAX_SERIALIZED_PATHS`."""
        seen = set()
        paths = []
        truncated = self.truncated
        for trace in self.paths:
            doc = {
                "terminator": trace.terminator,
                "steps": [serialize_step(step) for step in trace.steps],
            }
            key = json.dumps(doc, sort_keys=True)
            if key in seen:
                continue
            if len(paths) >= MAX_SERIALIZED_PATHS:
                truncated = True
                break
            seen.add(key)
            paths.append(doc)
        return {
            "id": self.spec_id,
            "module": self.module.relpath,
            "function": self.qualname,
            "truncated": truncated,
            "paths": paths,
        }


def serialize_step(step):
    if step.kind == "arch":
        return {"arch": step.arch}
    doc = {
        "op": step.label,
        "category": step.category,
        "cost": step.cost,
        "cost_kind": step.cost_kind,
    }
    if step.reg_class is not None:
        doc["class"] = step.reg_class
    return doc


def _module_name_aliases(tree):
    """Top-level ``NAME = OTHER_NAME`` assigns, resolved transitively."""
    import ast

    raw = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Name)
        ):
            raw[stmt.targets[0].id] = stmt.value.id
    aliases = {}
    for name in raw:
        target, seen = name, set()
        while target in raw and target not in seen:
            seen.add(target)
            target = raw[target]
        aliases[name] = target
    return aliases


def _canonical_step(step, aliases):
    if step.kind != "op" or step.reg_class not in aliases:
        return step
    return Step(
        "op",
        label=step.label,
        category=step.category,
        cost=step.cost,
        cost_kind=step.cost_kind,
        reg_class=aliases[step.reg_class],
        line=step.line,
    )


def _iter_qualified_functions(tree):
    """Every function with its class-qualified name, in document order."""
    import ast

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            elif not isinstance(child, ast.Lambda):
                yield from walk(child, prefix)

    yield from walk(tree, "")


def module_specs(module, max_paths=2000):
    """Every function's :class:`FunctionSpec` for one source module.

    Results are memoized on the module object so the three SPEC rules
    and the rewired SYM rules share one extraction per run.
    """
    cache = getattr(module, _CACHE_ATTR, None)
    if cache is not None and cache[0] == max_paths:
        return cache[1]
    aliases = _module_name_aliases(module.tree)
    specs = []
    for qualname, func in _iter_qualified_functions(module.tree):
        extractor = Extractor(func)
        cfg = build_cfg(func)
        all_steps = []
        for node in cfg.nodes:
            if node.kind == "stmt":
                all_steps.extend(
                    _canonical_step(step, aliases)
                    for step in extractor.steps(node.stmt)
                )
        paths = []
        for path in cfg.iter_paths(max_paths):
            steps = []
            for node in path.nodes:
                steps.extend(
                    _canonical_step(step, aliases)
                    for step in extractor.steps(node.stmt)
                )
            paths.append(PathTrace(tuple(steps), path.terminator, path.escape_line))
        specs.append(
            FunctionSpec(
                module, qualname, func, tuple(paths), cfg.truncated, tuple(all_steps)
            )
        )
    setattr(module, _CACHE_ATTR, (max_paths, specs))
    return specs


def extract_tree(project, config):
    """Specs for every stepped function in the SPEC-scoped modules."""
    prefixes = config.paths_for("SPEC001")
    specs = []
    for module in project.in_paths(prefixes):
        specs.extend(
            spec
            for spec in module_specs(module, config.flow_max_paths)
            if spec.all_steps
        )
    return specs


def group_for(relpath):
    """Which ``specs/<group>.json`` document a module's specs land in."""
    if relpath.startswith("hv/kvm/"):
        return "kvm"
    if relpath.startswith("hv/xen/"):
        return "xen"
    return relpath.split("/", 1)[0] or "root"


def build_documents(specs):
    """``{group: document}`` — specs sorted by id inside each group."""
    documents = {}
    for spec in sorted(specs, key=lambda s: s.spec_id):
        group = group_for(spec.module.relpath)
        document = documents.setdefault(
            group, {"schema": SCHEMA, "group": group, "specs": []}
        )
        document["specs"].append(spec.serialize())
    return documents


def render_document(document):
    """The canonical byte form a spec document is committed in."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def resolve_spec_dir(config, project):
    """Where the committed golden specs live for this run."""
    if getattr(config, "spec_dir", None):
        return pathlib.Path(config.spec_dir)
    for root in getattr(project, "roots", ()):
        return pathlib.Path(root) / "specs"
    return pathlib.Path("specs")


def load_committed(spec_dir):
    """Committed specs indexed by id.

    Returns ``(specs, sources, problems)`` — ``sources`` maps each id to
    the JSON file it came from; ``problems`` is a list of
    ``(path, message)`` pairs for unreadable or malformed files.
    """
    committed, sources, problems = {}, {}, []
    spec_dir = pathlib.Path(spec_dir)
    if not spec_dir.is_dir():
        return committed, sources, problems
    for path in sorted(spec_dir.glob("*.json")):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append((path, "cannot load spec document: %s" % exc))
            continue
        specs = document.get("specs") if isinstance(document, dict) else None
        if document is None or not isinstance(specs, list):
            problems.append((path, "spec document has no 'specs' list"))
            continue
        if document.get("schema") != SCHEMA:
            problems.append(
                (
                    path,
                    "spec document schema is %r, expected %r"
                    % (document.get("schema"), SCHEMA),
                )
            )
        for spec in specs:
            if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
                problems.append((path, "spec entry without a string 'id'"))
                continue
            committed[spec["id"]] = spec
            sources[spec["id"]] = path
    return committed, sources, problems
