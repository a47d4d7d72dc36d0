"""Rule protocol and shared AST helpers."""

import ast


class Rule:
    """One lint rule: a pure function from project + config to violations."""

    code = "XXX000"
    name = "unnamed"
    description = ""

    def check(self, project, config):
        """Yield :class:`~repro.analysis.engine.Violation` objects."""
        raise NotImplementedError


def iter_numeric_constants(tree):
    """Every int/float literal in ``tree`` (bools excluded)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        ):
            yield node


def terminal_name(node):
    """Final identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_constants(node, into):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant):
            into.add(id(sub))


def named_definition_constants(tree, module_level_only=False):
    """``id()`` of every literal that already has a *name*.

    Allowed (named) contexts:

    * module-level and class-level assignments — constant definitions and
      dataclass field defaults (skipped when ``module_level_only``, except
      for the module level itself);
    * function parameter defaults (the parameter names the value);
    * function-body assignments whose value *is* the literal
      (``slots = 256`` — a plain rename).

    Everything else — literals buried in expressions, call arguments,
    comparisons — is anonymous and fair game for CAL001/API001.
    """
    allowed = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            _collect_constants(stmt, allowed)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and not module_level_only:
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    _collect_constants(stmt, allowed)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            defaults = list(arguments.defaults) + [
                default for default in arguments.kw_defaults if default is not None
            ]
            for default in defaults:
                _collect_constants(default, allowed)
        elif isinstance(node, ast.Assign) and not module_level_only:
            if isinstance(node.value, ast.Constant):
                allowed.add(id(node.value))
    return allowed


def is_hex_literal(module, node):
    """True when the literal is written in hex in the source text."""
    if node.lineno - 1 >= len(module.lines):
        return False
    line = module.lines[node.lineno - 1]
    return line[node.col_offset:node.col_offset + 2].lower() == "0x"
