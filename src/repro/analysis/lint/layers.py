"""RL001 — the import-layering DAG.

The package layering established by the registry refactor (PR 3) and the
serving split (PR 4) is declared here as an explicit graph: each package
names the packages it may *directly* depend on, transitive dependencies
follow by closure.  The dependency arrows point strictly downwards::

    utils   ops   concurrency (leaf; feeds serving + analysis)
      \\     |
       \\  tensor
        \\ /  \\
        nn    data
       /| \\    |
  optim |  models
        \\ |  /
         core
        / | \\
 baselines | serving
      |  analysis |
       \\  |  /   /
      experiments
          |
   experiments.grid
          |
  cli / benchmarks / repro (facade)

RL001 flags any ``repro.*`` import (including lazy function-level ones)
that points upward or sideways outside the declared closure, and —
separately — any import *cycle* among module-level imports, which would
crash at import time or silently reorder registration side effects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.lint._ast_util import repro_imports
from repro.analysis.lint.engine import Project, Rule, SourceFile, Violation

# Direct dependencies each package may import; the check uses the
# transitive closure, so e.g. ``core`` may import ``repro.ops`` because
# core -> models -> nn -> tensor -> ops.
#
# Dotted keys declare *sub-layers*: ``experiments.grid`` (the grid
# orchestrator, PR 6) sits strictly above plain ``experiments`` — grid
# modules may import the runners/protocol, never the reverse.  The
# ``benchmarks`` key is a path-attributed pseudo-layer for the bench
# harnesses (which live outside ``src/repro`` and have no module name).
LAYER_GRAPH: Dict[str, Set[str]] = {
    "utils": set(),
    "ops": set(),
    # The lock model + runtime sanitizer (PR 10): stdlib-only, imported
    # by both the serving layers (tracked lock factories) and the lint
    # rules (rank table), so it sits at the very bottom of the DAG.
    "concurrency": set(),
    "tensor": {"ops"},
    "data": {"tensor", "utils"},
    "nn": {"tensor", "ops", "utils"},
    "optim": {"nn", "utils"},
    "models": {"nn", "utils"},
    "core": {"models", "optim", "data", "nn", "utils"},
    "baselines": {"core", "utils"},
    "analysis": {"core", "utils", "concurrency"},
    "serving": {"core", "utils", "concurrency"},
    # Drift sub-layers (PR 7): the monitor reads served outputs, the
    # repair loop additionally retrains on buffered data — both sit
    # strictly above plain ``serving`` (the service must stay importable
    # without them; it sees the monitor only through duck typing).
    "serving.monitor": {"serving", "core", "utils"},
    "serving.repair": {"serving", "serving.monitor", "core", "data",
                       "models", "utils"},
    # Concurrent-pipeline sub-layers (PR 8/9): the scheduler is a
    # bounded-queue micro-batcher with CoDel-style admission control
    # (it speaks the plain-serving error taxonomy, nothing else), the
    # executor runs roster members, on a thread pool under a deadline
    # (it needs the member/fault protocol from plain serving and the
    # batch-invariant GEMM context from ops), the pressure controller
    # maps queue delay to a healthiest-K brownout roster, the transport
    # composes them all into the async submit/poll/result front door,
    # and the retrying client wraps the transport's interface from
    # outside.
    # All sit above plain ``serving`` — the sequential service stays
    # importable without any of them.
    "serving.scheduler": {"serving", "utils"},
    "serving.executor": {"serving", "ops", "utils"},
    "serving.pressure": {"serving", "utils"},
    "serving.transport": {"serving", "serving.scheduler",
                          "serving.executor", "serving.pressure",
                          "ops", "core", "utils"},
    "serving.client": {"serving", "utils"},
    "experiments": {"baselines", "analysis", "serving.repair",
                    "serving.monitor", "serving.transport",
                    "serving.client", "serving.pressure", "serving",
                    "core", "utils"},
    "experiments.grid": {"experiments", "analysis", "core", "data", "utils"},
    "cli": {"experiments.grid", "experiments", "analysis",
            "serving.transport", "serving", "core", "models", "utils"},
    "benchmarks": {"experiments.grid", "experiments", "analysis", "data",
                   "models", "nn", "ops", "tensor", "utils"},
    # repro/__init__.py re-exports the quickstart surface.
    "__facade__": {"core", "models"},
}

# Layers a file may *never* import directly, even when the transitive
# closure reaches them.  Benches must drive training through the
# experiments/grid layer rather than re-implementing loops on repro.core
# (closure still admits core indirectly, via experiments -> core).
DIRECT_DENY: Dict[str, Set[str]] = {
    "benchmarks": {"core"},
}


def transitive_closure(graph: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
    closure: Dict[str, Set[str]] = {}

    def resolve(pkg: str, trail: Tuple[str, ...]) -> Set[str]:
        if pkg in closure:
            return closure[pkg]
        if pkg in trail:
            cycle = " -> ".join(trail + (pkg,))
            raise ValueError(f"LAYER_GRAPH is cyclic: {cycle}")
        deps: Set[str] = set()
        for dep in graph.get(pkg, ()):
            deps.add(dep)
            deps |= resolve(dep, trail + (pkg,))
        closure[pkg] = deps
        return deps

    for pkg in graph:
        resolve(pkg, ())
    return closure


class LayeringRule(Rule):
    code = "RL001"
    name = "import-layering"
    rationale = ("Upward imports invert the ops -> tensor -> nn -> models "
                 "-> core -> {serving, experiments, cli} layering; cycles "
                 "break import-time kernel registration.")

    def __init__(self, graph: Dict[str, Set[str]] = None,
                 direct_deny: Dict[str, Set[str]] = None):
        self.graph = dict(graph or LAYER_GRAPH)
        self.closure = transitive_closure(self.graph)
        self.direct_deny = dict(DIRECT_DENY if direct_deny is None
                                else direct_deny)
        self.known = tuple(pkg for pkg in self.graph
                           if not pkg.startswith("__"))

    # -- per-file: upward/sideways imports ---------------------------------
    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        package = self._file_layer(file)
        if package is None:
            return
        allowed = self.closure[package] | {package}
        deny = self.direct_deny.get(package, set())
        for target, lineno, _top in repro_imports(
                file.tree, known_subpackages=self.known):
            target_pkg = self._target_package(target)
            if target_pkg is None:
                continue
            if target_pkg in deny:
                yield Violation(
                    code=self.code, path=str(file.path), line=lineno,
                    message=(f"layer '{package}' may not import "
                             f"'{target}' directly (layer '{target_pkg}' "
                             f"is deny-listed for it; go through "
                             f"{', '.join(sorted(self.graph[package]))})"))
                continue
            if target_pkg in allowed:
                continue
            yield Violation(
                code=self.code, path=str(file.path), line=lineno,
                message=(f"layer '{package}' may not import "
                         f"'{target}' (layer '{target_pkg}'); allowed: "
                         f"{', '.join(sorted(allowed))}"))
        yield from self._cycles_for(file, project)

    def _file_layer(self, file: SourceFile) -> str:
        """The graph layer a file belongs to (longest dotted match).

        ``repro.experiments.grid.spec`` lands in sub-layer
        ``experiments.grid``, not plain ``experiments``; files under a
        ``benchmarks/`` directory (no module name) are attributed to the
        path-based pseudo-layer.
        """
        if file.module is not None and file.module.startswith("repro"):
            parts = file.module.split(".")
            if len(parts) == 1:
                return "__facade__"
            best = None
            for end in range(2, len(parts) + 1):
                candidate = ".".join(parts[1:end])
                if candidate in self.graph:
                    best = candidate
            return best
        if "benchmarks" in file.path.parts and "benchmarks" in self.graph:
            return "benchmarks"
        return None

    def _target_package(self, target: str) -> str:
        """Layer an import target points at (longest dotted match)."""
        parts = target.split(".")
        if parts[0] != "repro":
            return None
        if len(parts) == 1:
            return "__facade__"
        best = None
        for end in range(2, len(parts) + 1):
            candidate = ".".join(parts[1:end])
            if candidate in self.graph:
                best = candidate
        return best

    # -- cross-file: module-level import cycles ----------------------------
    def _cycles_for(self, file: SourceFile,
                    project: Project) -> Iterable[Violation]:
        cycles = project.cached("rl001-cycles", lambda: self._find_cycles(project))
        for cycle in cycles:
            # Report each cycle exactly once, at its first module.
            if file.module == cycle[0]:
                yield Violation(
                    code=self.code, path=str(file.path), line=1,
                    message=("module-level import cycle: "
                             + " -> ".join(cycle + (cycle[0],))))

    def _find_cycles(self, project: Project) -> List[Tuple[str, ...]]:
        modules = {m for m in project.modules if m.startswith("repro")}
        graph: Dict[str, Set[str]] = {m: set() for m in modules}
        for module in modules:
            file = project.modules[module]
            for target, _lineno, top in repro_imports(
                    file.tree, known_subpackages=self.known,
                    top_level_only=True):
                resolved = self._resolve_module(target, modules)
                if resolved and resolved != module:
                    graph[module].add(resolved)

        cycles: List[Tuple[str, ...]] = []
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph[node]):
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cycles.append(tuple(sorted(component)))

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return cycles

    @staticmethod
    def _resolve_module(target: str, modules: Set[str]) -> str:
        """Map an import target to the scanned module that satisfies it.

        ``repro.nn.functional`` resolves to that module if scanned;
        ``from repro.nn.module import Module`` arrives as
        ``repro.nn.module.Module`` and falls back to the longest scanned
        prefix (``repro.nn.module``).
        """
        probe = target
        while probe:
            if probe in modules:
                return probe
            probe = probe.rpartition(".")[0]
        return ""
