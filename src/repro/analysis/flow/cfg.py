"""Per-function control-flow graphs over stdlib ``ast``.

The flow rules (SYM001/SYM002) need to reason about *paths*, not
lines: "is there a way through this world-switch function that saves the
VGIC state but returns before restoring it?".  This module builds a
statement-level CFG for one function and enumerates its acyclic paths.

Design points, chosen for the shapes that actually occur in the model
layers (costed generators full of ``yield``/``yield from``, early
returns, ``try/finally`` cleanup):

* Nodes are statement occurrences.  ``finally`` bodies are *duplicated*
  per exit kind (normal, return, raise, break, continue) — the textbook
  trick that keeps path enumeration a plain graph walk.
* Loops are traversed acyclically: every edge is used at most once per
  path, so a loop body contributes zero-or-one iterations.  That is
  exactly the right abstraction for pairing checks (a save inside a
  loop pairs with a restore inside the same or a later loop; iteration
  counts are a cost question, not a shape question).
* ``except`` handlers are entered from two points: the top of the
  ``try`` body (the body failed immediately) and its end (it failed
  late).  Implicit exceptions at arbitrary interior points are not
  modeled; explicit ``raise`` statements are exact.
* Nested ``def``/``class`` statements are opaque single nodes — the
  nested function gets its own CFG when the caller asks for it.
* Generator functions need nothing special: ``yield`` is just an
  expression, and the DES drives the paths we enumerate.

Every path carries a *terminator*: ``"return"``, ``"raise"``, or
``"fall"`` (off the end), plus the statement that caused the escape —
which is what lets SYM002 say "this trap entry leaks through the
``return`` on line N".
"""

import ast

#: path terminators
RETURN, RAISE, FALL = "return", "raise", "fall"


class Node:
    """One statement occurrence in the graph (synthetic for entry/exits)."""

    __slots__ = ("index", "stmt", "kind", "succ")

    def __init__(self, index, stmt=None, kind="stmt"):
        self.index = index
        self.stmt = stmt
        self.kind = kind  # "entry" | "stmt" | RETURN | RAISE | FALL
        self.succ = []

    @property
    def line(self):
        return self.stmt.lineno if self.stmt is not None else 0

    def __repr__(self):
        what = type(self.stmt).__name__ if self.stmt is not None else self.kind
        return "Node(%d, %s, line %d)" % (self.index, what, self.line)


class Path:
    """One acyclic walk: the statement nodes plus how the walk ended."""

    __slots__ = ("nodes", "terminator", "escape")

    def __init__(self, nodes, terminator, escape):
        self.nodes = nodes
        self.terminator = terminator  # RETURN | RAISE | FALL
        #: the Return/Raise statement node that ended the path (None for FALL)
        self.escape = escape

    @property
    def escape_line(self):
        return self.escape.line if self.escape is not None else 0

    def __repr__(self):
        return "Path(%d stmts, %s)" % (len(self.nodes), self.terminator)


class Cfg:
    """The graph for one function: entry node, exit nodes, all nodes."""

    def __init__(self, func):
        self.func = func
        self.nodes = []
        self.entry = self._new(None, "entry")
        self.return_exit = self._new(None, RETURN)
        self.raise_exit = self._new(None, RAISE)
        self.fall_exit = self._new(None, FALL)
        #: set when path enumeration hit its budget (rules then stay quiet
        #: rather than reporting on a partial path set)
        self.truncated = False

    def _new(self, stmt, kind="stmt"):
        node = Node(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    # ------------------------------------------------------------------
    # path enumeration

    def iter_paths(self, max_paths=2000):
        """Yield every acyclic :class:`Path` (each edge used at most once).

        Stops — and marks ``self.truncated`` — after ``max_paths`` paths,
        so pathological functions degrade to "not analyzed" instead of
        hanging the linter.
        """
        exits = {self.return_exit, self.raise_exit, self.fall_exit}
        emitted = 0
        # stack entries: (node, edge-index to try next, used-edge set is
        # maintained incrementally alongside the stack)
        stack = [(self.entry, 0)]
        trail = [self.entry]
        used = set()

        while stack:
            node, edge_index = stack[-1]
            if node in exits:
                emitted += 1
                if emitted > max_paths:
                    self.truncated = True
                    return
                yield self._snapshot(trail, node)
                self._pop(stack, trail, used)
                continue
            if edge_index >= len(node.succ):
                if not node.succ and node is not self.entry:
                    # dangling node (unreachable continuation) — treat as fall
                    emitted += 1
                    if emitted > max_paths:
                        self.truncated = True
                        return
                    yield self._snapshot(trail, self.fall_exit)
                self._pop(stack, trail, used)
                continue
            stack[-1] = (node, edge_index + 1)
            edge = (node.index, edge_index)
            if edge in used:
                continue
            used.add(edge)
            successor = node.succ[edge_index]
            stack.append((successor, 0))
            trail.append(successor)

    def _snapshot(self, trail, exit_node):
        nodes = tuple(n for n in trail if n.kind == "stmt")
        escape = None
        if exit_node.kind in (RETURN, RAISE):
            for node in reversed(nodes):
                if isinstance(node.stmt, (ast.Return, ast.Raise)):
                    escape = node
                    break
        return Path(nodes, exit_node.kind if exit_node.kind != "entry" else FALL, escape)

    @staticmethod
    def _pop(stack, trail, used):
        node, _ = stack.pop()
        if trail and trail[-1] is node:
            trail.pop()
        if stack:
            parent, next_index = stack[-1]
            used.discard((parent.index, next_index - 1))


class _Frame:
    """One level of lexical control context during the build."""

    __slots__ = ("kind", "after", "head", "finalbody")

    def __init__(self, kind, after=None, head=None, finalbody=None):
        self.kind = kind  # "loop" | "finally"
        self.after = after  # loop: the break target
        self.head = head  # loop: the continue target
        self.finalbody = finalbody  # finally: stmt list to splice


class _Builder:
    def __init__(self, cfg):
        self.cfg = cfg

    def build(self, body):
        tails = self._block(body, [self.cfg.entry], [])
        self._connect(tails, self.cfg.fall_exit)

    # -- plumbing ------------------------------------------------------

    def _connect(self, tails, target):
        for tail in tails:
            tail.succ.append(target)

    def _block(self, stmts, tails, frames):
        """Wire ``stmts`` after ``tails``; returns the new loose ends."""
        for stmt in stmts:
            if not tails:
                break  # unreachable code after return/raise/break
            tails = self._statement(stmt, tails, frames)
        return tails

    def _statement(self, stmt, tails, frames):
        node = self.cfg._new(stmt)
        self._connect(tails, node)
        if isinstance(stmt, ast.Return):
            self._abrupt(node, frames, None, self.cfg.return_exit)
            return []
        if isinstance(stmt, ast.Raise):
            self._abrupt(node, frames, None, self.cfg.raise_exit)
            return []
        if isinstance(stmt, ast.Break):
            loop = self._abrupt(node, frames, "loop", None)
            if loop is not None:
                pass  # _abrupt already connected to loop.after
            return []
        if isinstance(stmt, ast.Continue):
            self._abrupt(node, frames, "loop", None, to_head=True)
            return []
        if isinstance(stmt, ast.If):
            then_tails = self._block(stmt.body, [node], frames)
            if stmt.orelse:
                else_tails = self._block(stmt.orelse, [node], frames)
            else:
                else_tails = [node]
            return then_tails + else_tails
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, node, frames)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, node, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._block(stmt.body, [node], frames)
        # plain statement (incl. nested def/class, which stay opaque)
        return [node]

    def _loop(self, stmt, head, frames):
        # a lightweight join point: collect everything that exits the loop
        join = self.cfg._new(None, "join")
        frame = _Frame("loop", after=join, head=head)
        body_tails = self._block(stmt.body, [head], frames + [frame])
        self._connect(body_tails, head)  # back edge (a dead end: bounds paths)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # `for` bodies run exactly once in the path abstraction: the
            # model's for-loops sweep non-empty register-class lists, and
            # a zero-iteration edge would fabricate save/restore
            # imbalance paths that cannot occur.  `while` keeps the
            # zero-iteration edge (the condition may be false at entry).
            if stmt.orelse:
                tails = self._block(stmt.orelse, list(body_tails), frames)
                self._connect(tails, join)
            else:
                self._connect(body_tails, join)
        else:
            if stmt.orelse:
                else_tails = self._block(stmt.orelse, [head], frames)
                self._connect(else_tails, join)
            else:
                head.succ.append(join)  # zero-iteration / loop-done edge
        return [join]

    def _try(self, stmt, node, frames):
        inner = frames + (
            [_Frame("finally", finalbody=stmt.finalbody)] if stmt.finalbody else []
        )
        body_tails = self._block(stmt.body, [node], inner)
        handler_tails = []
        for handler in stmt.handlers:
            # entered from the top of the body (failed immediately)...
            entry_tails = self._block(handler.body, [node], inner)
            handler_tails.extend(entry_tails)
            # ...and from its end (failed late), when the body completes
            if body_tails:
                late_tails = self._block(handler.body, list(body_tails), inner)
                handler_tails.extend(late_tails)
        if stmt.orelse:
            body_tails = self._block(stmt.orelse, body_tails, inner)
        tails = list(body_tails) + handler_tails
        if stmt.finalbody:
            tails = self._block(stmt.finalbody, tails, frames)
        return tails

    def _abrupt(self, node, frames, stop_kind, exit_node, to_head=False):
        """Route an abrupt exit through enclosing ``finally`` bodies.

        ``stop_kind`` == "loop" stops the unwind at the innermost loop
        (break/continue); otherwise unwinds everything to ``exit_node``.
        """
        tails = [node]
        for frame in reversed(frames):
            if frame.kind == "finally":
                tails = self._block(frame.finalbody, tails, [])
            elif frame.kind == "loop" and stop_kind == "loop":
                self._connect(tails, frame.head if to_head else frame.after)
                return frame
        if stop_kind == "loop":
            # break/continue outside a loop: syntactically invalid; treat
            # as falling off the end so the walk still terminates.
            self._connect(tails, self.cfg.fall_exit)
            return None
        self._connect(tails, exit_node)
        return None


def build_cfg(func):
    """Build the :class:`Cfg` for one ``FunctionDef``/``AsyncFunctionDef``."""
    cfg = Cfg(func)
    _Builder(cfg).build(func.body)
    return cfg
