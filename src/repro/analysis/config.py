"""Lint configuration, optionally sourced from ``[tool.repro-lint]``.

Defaults are built in so the linter runs with no configuration at all
(fixture tests rely on this).  A ``pyproject.toml`` can scope rules to
subsystem paths and tune thresholds:

.. code-block:: toml

    [tool.repro-lint]
    select = ["CAL001", "DET001"]

    [tool.repro-lint.paths]
    CAL001 = ["hv", "os", "core"]

    [tool.repro-lint.options]
    cal001-min-literal = 50

``tomllib`` only exists on Python 3.11+; on older interpreters a minimal
fallback parser reads just the ``[tool.repro-lint*]`` sections, which must
then stay within the simple ``key = int | "str" | [list-of-strings]``
subset (the block in this repository does).
"""

import dataclasses
import pathlib
import re

try:
    import tomllib as _toml
except ImportError:  # Python <= 3.10
    _toml = None

#: default subsystem scoping per rule; () = the whole scanned tree.
DEFAULT_RULE_PATHS = {
    "CAL001": ("hv", "os", "core"),
    "DET001": ("sim", "hw", "os", "hv", "core"),
    "COV001": ("hv", "os", "hw"),
    "API001": ("hv",),
}


@dataclasses.dataclass
class LintConfig:
    """Resolved configuration handed to every rule."""

    #: rule codes to run (None = every registered rule)
    select: tuple = None
    #: per-rule path scoping, package-relative prefixes
    rule_paths: dict = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_RULE_PATHS)
    )
    #: CAL001: smallest literal considered "cycle scale"
    cal001_min_literal: int = 50
    #: CAL001: files where paper Table III primitives are allowed
    cal001_table3_allow: tuple = ("hw/costs.py",)
    #: API001: smallest hex literal considered an address/page constant
    api001_min_address: int = 0x1000
    #: DET001: files exempt from the randomness ban
    det001_allow: tuple = ("sim/rng.py",)
    #: COV001: package-relative path of the cost-model module
    cov001_costs_module: str = "hw/costs.py"

    def paths_for(self, rule_code):
        return tuple(self.rule_paths.get(rule_code, ()))

    @classmethod
    def load(cls, pyproject_path):
        """Build a config from a ``pyproject.toml`` (missing block = defaults)."""
        text = pathlib.Path(pyproject_path).read_text(encoding="utf-8")
        data = _parse_toml(text)
        section = data.get("tool", {}).get("repro-lint", {})
        config = cls()
        if "select" in section:
            config.select = tuple(str(code).upper() for code in section["select"])
        for code, prefixes in section.get("paths", {}).items():
            config.rule_paths[str(code).upper()] = tuple(prefixes)
        options = section.get("options", {})
        for key, value in options.items():
            attr = key.replace("-", "_")
            if hasattr(config, attr):
                current = getattr(config, attr)
                setattr(config, attr, tuple(value) if isinstance(current, tuple) else value)
        return config

    @classmethod
    def discover(cls, start_path):
        """Walk upward from ``start_path`` looking for a pyproject.toml."""
        current = pathlib.Path(start_path).resolve()
        if current.is_file():
            current = current.parent
        for candidate in [current, *current.parents]:
            pyproject = candidate / "pyproject.toml"
            if pyproject.exists():
                return cls.load(pyproject)
        return cls()


def _parse_toml(text):
    if _toml is not None:
        return _toml.loads(text)
    return _parse_toml_minimal(text)


_SECTION_RE = re.compile(r"^\[([^\]]+)\]\s*$")
_KEYVAL_RE = re.compile(r"^([A-Za-z0-9_.-]+)\s*=\s*(.+?)\s*$")


def _parse_toml_minimal(text):
    """Tiny TOML subset: sections, ints, quoted strings, one-line lists.

    Only used on interpreters without ``tomllib``; sufficient for the
    ``[tool.repro-lint]`` block this package documents.
    """
    data = {}
    current = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        section = _SECTION_RE.match(line)
        if section:
            current = {}
            node = data
            parts = section.group(1).split(".")
            for part in parts[:-1]:
                node = node.setdefault(part.strip().strip('"'), {})
            node[parts[-1].strip().strip('"')] = current
            continue
        if current is None:
            continue
        keyval = _KEYVAL_RE.match(line)
        if keyval:
            current[keyval.group(1).strip('"')] = _parse_value(keyval.group(2))
    return data


def _parse_value(raw):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(item) for item in _split_list(inner)]
    if raw.startswith(('"', "'")):
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw, 0)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def _split_list(inner):
    items, depth, start = [], 0, 0
    for index, char in enumerate(inner):
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == "," and depth == 0:
            items.append(inner[start:index].strip())
            start = index + 1
    tail = inner[start:].strip()
    if tail:
        items.append(tail)
    return items
