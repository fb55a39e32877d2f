"""LOCK001/LOCK002 — guarded-by discipline for shared mutable state.

The concurrent subsystems annotate their shared attributes at the point
of initialization::

    self._entries: dict[ReleaseKey, MaterializedRelease] = {}  # guarded-by: _lock

(the comment may also sit on the line directly above when the
assignment is long).  The annotations are the pass's ground truth:

**LOCK001** — inside the class, every load or store of an annotated
``self.<attr>`` must be lexically inside ``with self.<lock>:`` for the
annotated lock.  Two documented escape hatches reflect real idioms
rather than weaken the rule: ``__init__`` is exempt (the object is not
yet shared), and methods whose name ends in ``_locked`` are exempt (the
repo-wide convention that the caller already holds the lock — the
callers themselves remain checked).  Deliberate lock-free fast paths
(e.g. the sharded engine's warm read) carry an explicit
``# statan: ignore[LOCK001]`` pragma with a justification.  Guards are
inherited: a class's base classes are resolved through the module's
imports to classes defined anywhere in the analyzed program, so a
subclass in another module is held to its base's annotations.

**LOCK002** — no blocking call while holding an annotated lock.
"Blocking" is the canonical catalog exported by
:mod:`repro.utils.io_atomic`: file I/O (``open``, ``os.replace``,
``np.save`` …, plus ``Path`` method names) *and* waits
(``time.sleep``, the shared retry runner
:func:`~repro.faults.retry.run_with_retry` — a backoff schedule held
under a hot lock stalls every reader behind it), extended transitively
through same-module helper functions.  Cross-module method calls
(``self.store.put``) are not resolved — the durable tier (store,
lineages) deliberately serializes its writes, and now its retries,
under its own single-writer lock, and its discipline is covered by the
crash-safety tests; what LOCK002 polices is the serve-path classes,
whose hot locks must never be held across a file operation or a
backoff sleep.
"""

from __future__ import annotations

import ast
import re

from repro.statan.core import (
    Finding,
    LintPass,
    Program,
    SourceModule,
    dotted_call_name,
    register,
)
from repro.utils.io_atomic import (
    BLOCKING_CALL_NAMES,
    BLOCKING_PATH_METHODS,
    BLOCKING_WAIT_NAMES,
)

__all__ = ["LockDisciplinePass", "GUARDED_BY"]

#: The annotation grammar: ``# guarded-by: _lock`` (trailing text allowed).
GUARDED_BY = re.compile(r"#.*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _self_attr(node: ast.AST) -> str | None:
    """``"x"`` when ``node`` is ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_locks(node: ast.With) -> set[str]:
    """Lock attribute names acquired by ``with self.<name>`` items."""
    held: set[str] = set()
    for item in node.items:
        attr = _self_attr(item.context_expr)
        if attr is not None:
            held.add(attr)
    return held


def _collect_annotations(
    module: SourceModule, class_node: ast.ClassDef
) -> dict[str, str]:
    """``{attr: lock}`` from guarded-by comments inside ``class_node``."""
    guards: dict[str, str] = {}
    for node in ast.walk(class_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                match = GUARDED_BY.search(module.comment_on_line(node.lineno))
                above = module.comment_on_line(node.lineno - 1)
                if not match and above.lstrip().startswith("#"):
                    # Only a comment-only line above annotates; a trailing
                    # comment there belongs to the previous statement.
                    match = GUARDED_BY.search(above)
                if match:
                    guards[attr] = match.group(1)
    return guards


def _class_origins(module: SourceModule) -> dict[str, str]:
    """Local name -> dotted origin: absolute imports and top-level classes."""
    names = {
        node.name: f"{module.name}.{node.name}"
        for node in module.tree.body
        if isinstance(node, ast.ClassDef)
    }
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
    return names


def _program_guards(program: Program) -> dict[tuple[str, str], dict[str, str]]:
    """``{(module, class): {attr: lock}}`` with base-class guards inherited.

    A base is followed when it names a class defined in the analyzed
    program, directly or through an import; a subclass's own annotation
    wins over an inherited one for the same attribute.
    """
    own: dict[tuple[str, str], dict[str, str]] = {}
    bases: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for module in program.modules:
        origins = _class_origins(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            ident = (module.name, node.name)
            own[ident] = _collect_annotations(module, node)
            bases[ident] = []
            for dotted in filter(None, map(dotted_call_name, node.bases)):
                head = dotted.split(".", 1)[0]
                origin = origins.get(head, head) + dotted[len(head):]
                bases[ident].append(tuple(origin.rsplit(".", 1)))

    def guards_of(ident: tuple[str, str], chain: tuple = ()) -> dict[str, str]:
        merged: dict[str, str] = {}
        for base in bases[ident]:
            if base in own and base not in chain:
                merged.update(guards_of(base, chain + (ident,)))
        merged.update(own[ident])
        return merged

    return {ident: guards_of(ident) for ident in own}


def _local_callee_name(call: ast.Call) -> str | None:
    """Callee name when the call can target a same-module function.

    Only bare names (``helper(...)``) and self-method calls
    (``self.helper(...)``) can resolve to functions defined in this
    module.  An attribute call on any other receiver —
    ``self._entries.append(...)`` — targets a foreign object, which the
    name merge must not conflate with a local helper of the same name.
    """
    if isinstance(call.func, ast.Name):
        return call.func.id
    return _self_attr(call.func)


def _local_io_functions(module: SourceModule) -> set[str]:
    """Bare names of same-module functions that (transitively) do file I/O."""
    bodies: dict[str, list[ast.AST]] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.setdefault(node.name, []).append(node)

    def direct_io(fn: ast.AST) -> bool:
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call) and _is_blocking_call(sub):
                return True
        return False

    io_names = {name for name, fns in bodies.items() if any(map(direct_io, fns))}
    changed = True
    while changed:
        changed = False
        for name, fns in bodies.items():
            if name in io_names:
                continue
            for fn in fns:
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.Call):
                        callee = _local_callee_name(sub)
                        if callee in io_names and callee in bodies:
                            io_names.add(name)
                            changed = True
                            break
                if name in io_names:
                    break
    return io_names


def _is_blocking_call(call: ast.Call) -> bool:
    name = dotted_call_name(call.func)
    if name is None:
        return False
    if name in BLOCKING_CALL_NAMES or name in BLOCKING_WAIT_NAMES:
        return True
    tail = name.rsplit(".", 2)
    if len(tail) >= 2 and ".".join(tail[-2:]) in (
        BLOCKING_CALL_NAMES | BLOCKING_WAIT_NAMES
    ):
        return True
    return name.rsplit(".", 1)[-1] in BLOCKING_PATH_METHODS


@register
class LockDisciplinePass(LintPass):
    """Annotated attributes stay under their lock; no I/O under a lock."""

    name = "lock-discipline"
    codes = ("LOCK001", "LOCK002")
    description = (
        "guarded-by annotated attributes are touched only under their lock, "
        "and no blocking file I/O runs while an annotated lock is held"
    )

    def run(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        program_guards = _program_guards(program)
        for module in program.modules:
            io_functions = None  # built lazily, only for annotated classes
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                guards = program_guards[(module.name, node.name)]
                if not guards:
                    continue
                if io_functions is None:
                    io_functions = _local_io_functions(module)
                lock_names = set(guards.values())
                for method in node.body:
                    if not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    exempt = (
                        method.name == "__init__"
                        or method.name.endswith("_locked")
                    )
                    self._check_method(
                        module,
                        method,
                        guards,
                        lock_names,
                        io_functions,
                        findings,
                        check_access=not exempt,
                    )
        return findings

    def _check_method(
        self,
        module: SourceModule,
        method: ast.AST,
        guards: dict[str, str],
        lock_names: set[str],
        io_functions: set[str],
        findings: list[Finding],
        check_access: bool,
    ) -> None:
        def visit(node: ast.AST, held: frozenset[str]) -> None:
            for child in ast.iter_child_nodes(node):
                child_held = held
                if isinstance(child, ast.With):
                    acquired = _with_locks(child) & lock_names
                    if acquired:
                        child_held = held | acquired
                attr = _self_attr(child)
                if check_access and attr is not None and attr in guards:
                    required = guards[attr]
                    if required not in held:
                        findings.append(
                            self.finding(
                                module,
                                child,
                                "LOCK001",
                                f"attribute 'self.{attr}' is guarded by "
                                f"'self.{required}' but is accessed here "
                                f"without holding it",
                            )
                        )
                if isinstance(child, ast.Call) and held:
                    blocking = _is_blocking_call(child)
                    if not blocking:
                        blocking = _local_callee_name(child) in io_functions
                    if blocking:
                        findings.append(
                            self.finding(
                                module,
                                child,
                                "LOCK002",
                                f"blocking call (file I/O or backoff wait) "
                                f"while holding {sorted(held)}: move it "
                                f"outside the lock or stage it through "
                                f"io_atomic first",
                            )
                        )
                visit(child, child_held)

        visit(method, frozenset())
