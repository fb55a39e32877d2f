"""ARCH001 — imports must respect the layer DAG, with no cycles.

The repo is layered so that every tier only builds on tiers below it;
the rank table below *is* the architecture (see
``docs/architecture.md``)::

    0  repro.exceptions, repro.utils,
       repro.faults                      (leaf helpers, importable by all)
    1  repro.db                          (domains, relations, histograms)
    2  repro.privacy, repro.data         (mechanisms, budgets, datasets)
    3  repro.queries                     (range queries, workloads)
    4  repro.inference                   (constrained inference)
    5  repro.estimators                  (paper estimators)
    6  repro.analysis                    (error analysis, experiments)
    7  repro.core                        (end-to-end protocol, tasks)
    8  repro.obs, repro.accuracy         (cross-cutting telemetry; the
                                          accuracy control plane's
                                          uncertainty models and SLOs)
    9  repro.serving                     (engines, cache, store, fleet)
    10 repro.streaming                   (epoch refresh)
    11 repro.sharding                    (massive-domain sharding)
    12 repro.cli, repro.statan, repro    (entry points / whole-package)

A module may import same-rank or lower-rank modules only.  One
deliberate deviation from the headline chain in the issue (… sharding →
{obs, cli}): ``obs`` sits *below* serving rather than above sharding,
because the serving tiers import it for metrics/tracing and it imports
:mod:`repro.privacy.audit` for the ε-ledger — the rank table encodes the
DAG the code actually needs, and the cycle check still guarantees
acyclicity.  Only imports that execute at import time count:
``if TYPE_CHECKING:`` blocks and function-scoped (deferred) imports are
skipped, the latter being the sanctioned escape hatch for coordinator
modules such as the fleet's lazy engine-type imports.
"""

from __future__ import annotations

import ast

from repro.statan.core import Finding, LintPass, Program, SourceModule, register

__all__ = ["LayerDagPass", "LAYER_RANKS", "rank_of"]

#: Longest-prefix-match table from module-name prefix to layer rank.
LAYER_RANKS: dict[str, int] = {
    "repro.exceptions": 0,
    "repro.utils": 0,
    "repro.faults": 0,
    "repro.db": 1,
    "repro.privacy": 2,
    "repro.data": 2,
    "repro.queries": 3,
    "repro.inference": 4,
    "repro.estimators": 5,
    "repro.analysis": 6,
    "repro.core": 7,
    "repro.obs": 8,
    # The accuracy control plane sits beside obs: pure uncertainty
    # models over the query/analysis tiers, imported by every serving
    # tier but never importing back up into them.
    "repro.accuracy": 8,
    "repro.serving": 9,
    "repro.streaming": 10,
    "repro.sharding": 11,
    "repro.cli": 12,
    "repro.statan": 12,
    "repro": 12,  # the package façade re-exports the public API
}


def rank_of(module_name: str) -> int | None:
    """The layer rank for ``module_name`` by longest prefix match."""
    best = None
    best_len = -1
    for prefix, rank in LAYER_RANKS.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = rank, len(prefix)
    return best


def _prefix_len(module_name: str) -> int:
    """Length of the longest rank-table prefix matching ``module_name``."""
    return max(
        (
            len(prefix)
            for prefix in LAYER_RANKS
            if module_name == prefix or module_name.startswith(prefix + ".")
        ),
        default=-1,
    )


def _imported_modules(
    module: SourceModule, known: set[str]
) -> list[tuple[str, ast.AST]]:
    """``(dotted-module, node)`` for every executed import in ``module``.

    ``from pkg import name`` is attributed to ``pkg.name`` when that
    resolves to an analyzed module or a deeper rank-table prefix —
    ``from repro import obs`` imports the :mod:`repro.obs` subpackage,
    not the top-level façade.
    """

    results: list[tuple[str, ast.AST]] = []
    is_package = module.path.stem == "__init__"

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Function-scoped imports run lazily, not at import time:
                # they are the sanctioned escape hatch for coordinator
                # modules (the fleet's deferred engine imports) and do
                # not constrain the import-time DAG.
                continue
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                for sub in child.orelse:
                    visit(sub)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    results.append((alias.name, child))
            elif isinstance(child, ast.ImportFrom):
                if child.level:
                    parts = module.name.split(".")
                    drop = child.level - 1 if is_package else child.level
                    base = ".".join(parts[: len(parts) - drop])
                    target = f"{base}.{child.module}" if child.module else base
                else:
                    target = child.module or ""
                if not target:
                    continue
                for alias in child.names:
                    sub = f"{target}.{alias.name}"
                    if sub in known or _prefix_len(sub) > _prefix_len(target):
                        results.append((sub, child))
                    else:
                        results.append((target, child))
            else:
                visit(child)

    visit(module.tree)
    return results


def _is_type_checking(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


@register
class LayerDagPass(LintPass):
    """Imports only reach same-or-lower layers; the module graph is acyclic."""

    name = "layer-dag"
    codes = ("ARCH001",)
    description = (
        "imports respect the layer ranks (db → privacy → … → sharding → "
        "cli) and the module import graph stays acyclic"
    )

    def run(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        edges: dict[str, set[str]] = {}
        nodes: dict[str, tuple[SourceModule, ast.AST]] = {}
        known = set(program.by_name)
        for module in program.modules:
            importer_rank = rank_of(module.name)
            for target, node in _imported_modules(module, known):
                if not target.startswith("repro"):
                    continue
                # Resolve "from repro.x import name": prefer the deepest
                # analyzed module; fall back to the dotted name itself.
                resolved = target
                while resolved not in program.by_name and "." in resolved:
                    resolved = resolved.rsplit(".", 1)[0]
                effective = (
                    resolved if resolved in program.by_name else target
                )
                if effective == module.name:
                    continue
                target_rank = rank_of(effective)
                if (
                    importer_rank is not None
                    and target_rank is not None
                    and target_rank > importer_rank
                ):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "ARCH001",
                            f"{module.name} (layer {importer_rank}) imports "
                            f"{effective} (layer {target_rank}); imports "
                            f"must flow downward in the layer DAG",
                        )
                    )
                if effective in program.by_name:
                    edges.setdefault(module.name, set()).add(effective)
                    nodes.setdefault(module.name, (module, node))
        findings.extend(self._cycle_findings(edges, nodes))
        return findings

    def _cycle_findings(self, edges, nodes) -> list[Finding]:
        """Module-level cycle detection via iterative DFS coloring."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[str, int] = {}
        findings: list[Finding] = []
        reported: set[frozenset] = set()

        def dfs(start: str) -> None:
            stack = [(start, iter(sorted(edges.get(start, ()))))]
            color[start] = GRAY
            path = [start]
            while stack:
                name, children = stack[-1]
                advanced = False
                for child in children:
                    state = color.get(child, WHITE)
                    if state == GRAY:
                        cycle = path[path.index(child):] + [child]
                        identity = frozenset(cycle)
                        if identity not in reported:
                            reported.add(identity)
                            module, node = nodes[name]
                            findings.append(
                                self.finding(
                                    module,
                                    node,
                                    "ARCH001",
                                    "import cycle: " + " -> ".join(cycle),
                                )
                            )
                    elif state == WHITE:
                        color[child] = GRAY
                        stack.append(
                            (child, iter(sorted(edges.get(child, ()))))
                        )
                        path.append(child)
                        advanced = True
                        break
                if not advanced:
                    color[name] = BLACK
                    stack.pop()
                    path.pop()

        for name in sorted(edges):
            if color.get(name, WHITE) == WHITE:
                dfs(name)
        return findings
