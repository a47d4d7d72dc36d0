"""Rule engine: source discovery, suppression comments, rule dispatch.

The engine is deliberately simple: it parses every ``*.py`` file under the
given paths once, computes a *package-relative* path for each (so rules can
scope themselves to subsystems like ``hv/`` or ``os/`` regardless of where
the tree is checked out), collects per-line suppressions, and hands the
whole :class:`Project` to each rule.  Rules are pure functions from project
to violations; the engine filters suppressed findings afterwards.
"""

import ast
import dataclasses
import pathlib
import re

#: ``# repro-lint: ignore[CAL001,DET001]`` or ``# repro-lint: ignore``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?"
)

#: directories never scanned
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache"}


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding: ``path:line:col rule message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self):
        return "%s:%d:%d %s %s" % (self.path, self.line, self.col, self.rule, self.message)

    def as_dict(self):
        return dataclasses.asdict(self)


class SourceModule:
    """One parsed source file plus its suppression table."""

    def __init__(self, path, relpath, text):
        self.path = str(path)
        #: package-relative posix path, e.g. ``hv/xen/netback.py``
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=self.path)
        #: line -> set of suppressed rule codes ("*" = all)
        self.suppressions = self._parse_suppressions()

    def _parse_suppressions(self):
        table = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = match.group(1)
            if rules is None:
                codes = {"*"}
            else:
                codes = {code.strip().upper() for code in rules.split(",") if code.strip()}
            table.setdefault(lineno, set()).update(codes)
            if line[: match.start()].strip() == "":
                # A standalone suppression comment covers the next *code*
                # line, so a multi-line justification can sit above a
                # `def` with the directive leading the block.
                target = lineno + 1
                while (
                    target <= len(self.lines)
                    and self.lines[target - 1].lstrip().startswith("#")
                ):
                    target += 1
                table.setdefault(target, set()).update(codes)
        return table

    @property
    def subsystem(self):
        """First component of the package-relative path ('' for top level)."""
        return self.relpath.split("/", 1)[0] if "/" in self.relpath else ""

    def in_any(self, prefixes):
        """True when this module falls under one of the path ``prefixes``.

        A prefix is either a subsystem directory (``"hv"``) or an exact
        relative file path (``"sim/rng.py"``).  An empty prefix tuple means
        "everything".
        """
        if not prefixes:
            return True
        for prefix in prefixes:
            if self.relpath == prefix or self.relpath.startswith(prefix.rstrip("/") + "/"):
                return True
        return False

    def is_suppressed(self, line, rule):
        """Suppression entries match exactly or as a prefix, so
        ``# repro-lint: ignore[CAL]`` waives every CAL rule."""
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        if "*" in rules:
            return True
        rule = rule.upper()
        return any(rule == entry or rule.startswith(entry) for entry in rules)

    def violation(self, node_or_line, rule, message):
        """Build a :class:`Violation` anchored at an AST node (or line no)."""
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0
        else:
            line, col = node_or_line.lineno, node_or_line.col_offset
        return Violation(self.path, line, col, rule, message)

    def __repr__(self):
        return "SourceModule(%s)" % self.relpath


class Project:
    """Every scanned module, addressable by package-relative path."""

    def __init__(self, modules):
        self.modules = sorted(modules, key=lambda m: m.relpath)
        self._by_relpath = {m.relpath: m for m in self.modules}

    def module(self, relpath):
        return self._by_relpath.get(relpath)

    def in_paths(self, prefixes):
        return [m for m in self.modules if m.in_any(prefixes)]


def _package_root(path):
    """Outermost contiguous package directory containing ``path``."""
    current = path if path.is_dir() else path.parent
    root = current
    while (current / "__init__.py").exists():
        root = current
        current = current.parent
    return root


def _relativize(file_path, scan_root):
    """Package-relative path: everything after the last ``repro`` directory
    component, falling back to the path relative to the scan root."""
    parts = file_path.parts
    if "repro" in parts[:-1]:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index + 1:])
    try:
        return file_path.relative_to(scan_root).as_posix()
    except ValueError:
        return file_path.name


def discover(paths):
    """Parse every python file under ``paths``.

    Returns ``(project, errors)`` where errors is a list of
    :class:`Violation` with rule ``E001`` for unparseable files.
    """
    modules, errors = [], []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            root = path
            files = sorted(
                f for f in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(f.parts) and "egg-info" not in str(f)
            )
        else:
            root = _package_root(path)
            files = [path]
        for file_path in files:
            relpath = _relativize(file_path.resolve(), root.resolve())
            try:
                text = file_path.read_text(encoding="utf-8")
                modules.append(SourceModule(file_path, relpath, text))
            except (SyntaxError, UnicodeDecodeError) as exc:
                line = getattr(exc, "lineno", None) or 1
                errors.append(
                    Violation(str(file_path), line, 0, "E001", "cannot parse: %s" % exc)
                )
    return Project(modules), errors


def run_analysis(paths, config=None, select=None, ignore=None):
    """Run the configured rules over ``paths``; returns sorted violations.

    ``config`` defaults to the built-in :class:`~repro.analysis.config.LintConfig`
    (no pyproject discovery — explicit is better for tests); ``select``
    optionally narrows to an iterable of rule codes, ``ignore`` drops
    codes *or code prefixes* from whatever was resolved (raising
    ``KeyError`` for entries matching nothing).
    """
    from repro.analysis.config import LintConfig
    from repro.analysis.rules import active_rules, expand_codes

    if config is None:
        config = LintConfig()
    project, errors = discover(paths)
    violations = list(errors)
    rules = active_rules(config, select)
    if ignore:
        dropped = expand_codes(ignore)
        rules = tuple(rule for rule in rules if rule.code not in dropped)
    for rule in rules:
        for violation in rule.check(project, config):
            module = _module_for(project, violation)
            if module is not None and module.is_suppressed(violation.line, violation.rule):
                continue
            violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def _module_for(project, violation):
    for module in project.modules:
        if module.path == violation.path:
            return module
    return None
