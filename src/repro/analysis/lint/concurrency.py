"""RL006–RL008 — the concurrency-discipline rules.

The serving stack (PRs 8–9) is genuinely concurrent: a condition-variable
micro-batcher, a member thread pool, per-member breaker locks, a
copy-on-write roster swap lock, and three stats locks.  The only durable
defence against a silent torn-roster or deadlock regression is to encode
the locking discipline declaratively and enforce it on every lint run —
the same move PR 5 made for the import DAG and dtype policy.

Three rules share one model:

* **RL006 guarded-attribute discipline** — every registered class names
  its locks and the attributes each lock guards
  (:data:`GUARDED_CLASSES`).  Any write — plain assignment, augmented
  read-modify-write, subscript/del mutation, or a mutating method call
  like ``.append()`` — to a guarded attribute must sit *lexically*
  inside a ``with self.<declared lock>`` block.  Escape analysis keeps
  the rule honest: ``__init__`` bodies are exempt (the object has not
  been published to other threads yet), as are methods the model
  declares ``caller_locked`` (documented "caller holds the lock"
  helpers) or ``unshared`` (single-thread factories).  Classes guarded
  by *another* object's lock (``external_lock``) confine writes to
  their declared caller-locked methods.  Registered thread-local
  modules (``ops.workspace``, ``ops.batching``, ``ops.profiler``) may
  not grow shared module-level mutable state or ``global`` rebindings.

* **RL007 lock-ordering** — rebuilds the static lock-acquisition graph
  from the AST: an edge ``A -> B`` means some code acquires lock ``B``
  while (lexically) holding lock ``A``.  Every edge must run strictly
  *down* the declared rank order (:data:`repro.concurrency.model.LOCKS`)
  and the whole graph must be acyclic (Tarjan SCC, the RL001
  machinery) — a cycle is a deadlock waiting for the right schedule.

* **RL008 condition-variable hygiene** — any ``threading.Condition``
  (or :func:`repro.concurrency.tracked_condition`) attribute must be
  used by the book: ``wait()`` only under a ``while`` predicate loop
  (wakeups are spurious), and ``wait``/``notify``/``notify_all`` only
  lexically inside ``with self.<cond>``.

The runtime counterpart — :func:`repro.concurrency.lock_order_mode` —
checks the same rank order on real acquisitions, so the static rules
catch what is visible lexically and the sanitizer catches what only a
schedule can reveal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analysis.lint.engine import Project, Rule, SourceFile, Violation
from repro.concurrency.model import LOCKS, LockSpec

__all__ = [
    "ClassGuard",
    "ConditionHygieneRule",
    "GUARDED_CLASSES",
    "GuardedAttributeRule",
    "LockOrderingRule",
    "THREAD_LOCAL_MODULES",
]


# ----------------------------------------------------------------------
# The declarative guarded-attribute model.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClassGuard:
    """Locking discipline for one threaded class.

    ``lock_attrs`` maps lock attribute -> registered lock name;
    ``guarded`` maps data attribute -> the lock attribute that guards
    it; ``caller_locked`` maps helper-method name -> the lock attribute
    its caller is documented to hold; ``unshared`` names single-thread
    factory methods the escape analysis exempts entirely;
    ``external_lock`` (mutually exclusive with ``lock_attrs``) names
    the *other object's* registered lock whose holder may call the
    ``caller_locked`` methods.
    """

    lock_attrs: Mapping[str, str] = field(default_factory=dict)
    guarded: Mapping[str, str] = field(default_factory=dict)
    caller_locked: Mapping[str, str] = field(default_factory=dict)
    unshared: FrozenSet[str] = frozenset()
    external_lock: Optional[str] = None


#: (module, class) -> discipline.  Registering a class here is the
#: static half of adding a lock; see docs/architecture.md.
GUARDED_CLASSES: Dict[Tuple[str, str], ClassGuard] = {
    ("repro.serving.scheduler", "MicroBatcher"): ClassGuard(
        lock_attrs={"_cond": "scheduler.cond"},
        guarded={
            "_queue": "_cond", "_running": "_cond", "_closed": "_cond",
            "_pump": "_cond", "batches_formed": "_cond",
            "requests_batched": "_cond", "requests_admitted": "_cond",
            "requests_shed": "_cond",
        },
        caller_locked={"_form_batch": "_cond", "_prefix_rows": "_cond"},
    ),
    # The admission controller's state machine is driven entirely under
    # the batcher's queue lock — an external-guard contract.
    ("repro.serving.scheduler", "AdmissionController"): ClassGuard(
        guarded={"_first_above": "_cond", "shedding": "_cond",
                 "shed_total": "_cond", "episodes": "_cond"},
        caller_locked={"observe": "_cond", "admit": "_cond"},
        external_lock="scheduler.cond",
    ),
    ("repro.serving.service", "InferenceService"): ClassGuard(
        lock_attrs={"_swap_lock": "service.swap",
                    "_stats_lock": "service.stats"},
        guarded={
            "members": "_swap_lock", "_alpha_configured": "_swap_lock",
            "_member_swaps": "_swap_lock",
            "_served": "_stats_lock", "_rejected": "_stats_lock",
            "_unavailable": "_stats_lock", "_shed": "_stats_lock",
        },
    ),
    ("repro.serving.transport", "ServingPipeline"): ClassGuard(
        lock_attrs={"_stats_lock": "transport.stats"},
        guarded={"_submitted": "_stats_lock", "_admitted": "_stats_lock",
                 "_shed": "_stats_lock", "_completed": "_stats_lock",
                 "_failed": "_stats_lock"},
    ),
    ("repro.serving.breaker", "CircuitBreaker"): ClassGuard(
        lock_attrs={"_lock": "breaker"},
        guarded={
            "state": "_lock", "state_since": "_lock",
            "consecutive_faults": "_lock", "total_faults": "_lock",
            "total_calls": "_lock", "opened_at": "_lock",
            "last_fault_reason": "_lock",
        },
        caller_locked={"_set_state": "_lock"},
    ),
    ("repro.serving.pressure", "PressureController"): ClassGuard(
        lock_attrs={"_lock": "pressure"},
        guarded={"_level": "_lock", "_above": "_lock", "_below": "_lock",
                 "last_pressure": "_lock", "level_changes": "_lock"},
    ),
}

#: Threaded modules whose shared state must stay ``threading.local`` —
#: module name -> module-level names allowed to exist besides plain
#: immutables.  Their per-thread state lives on the one record in
#: ``repro.ops.modes``, so only that module names an instance.
THREAD_LOCAL_MODULES: Dict[str, FrozenSet[str]] = {
    "repro.ops.modes": frozenset({"state"}),
    "repro.ops.workspace": frozenset(),
    "repro.ops.batching": frozenset(),
    "repro.ops.profiler": frozenset(),
    "repro.ops.fused": frozenset(),
    "repro.tensor.tensor": frozenset(),
    "repro.tensor.sanitize": frozenset(),
}

#: Method names whose call mutates the object they are called on.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popleft", "popitem", "clear", "update", "setdefault", "add",
    "discard", "sort", "reverse",
})

#: Names too generic to resolve to a registered lock-acquiring method
#: by name alone (Thread.start, queue.put, future.result, ...).
_AMBIGUOUS_METHODS = frozenset({
    "start", "stop", "submit", "run", "join", "close", "shutdown",
    "get", "put", "set", "result", "cancel", "wait", "notify",
    "notify_all", "acquire", "release", "predict", "validate", "eval",
    "train", "clock", "items", "values", "keys", "copy", "index",
    "count", "split", "strip", "format", "append", "update", "pop",
    "clear", "add",
})


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"`` (else None)."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _with_lock_attrs(node: ast.AST, lock_attrs: Iterable[str]) -> Set[str]:
    """Lock attributes acquired by one ``with`` statement's items."""
    acquired: Set[str] = set()
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in lock_attrs:
                acquired.add(attr)
    return acquired


def _iter_methods(cls: ast.ClassDef) -> Iterable[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


# ----------------------------------------------------------------------
# RL006
# ----------------------------------------------------------------------
class GuardedAttributeRule(Rule):
    code = "RL006"
    name = "guarded-attributes"
    rationale = ("Writes and read-modify-writes of cross-thread state "
                 "must hold the declared lock; an unlocked counter bump "
                 "or list mutation is a data race the tests only catch "
                 "by luck.")

    def __init__(self,
                 guarded: Optional[Mapping[Tuple[str, str], ClassGuard]]
                 = None,
                 thread_local: Optional[Mapping[str, FrozenSet[str]]]
                 = None):
        self.guarded = dict(GUARDED_CLASSES if guarded is None else guarded)
        self.thread_local = dict(THREAD_LOCAL_MODULES if thread_local is None
                                 else thread_local)
        self._by_module: Dict[str, Dict[str, ClassGuard]] = {}
        for (module, cls), guard in self.guarded.items():
            self._by_module.setdefault(module, {})[cls] = guard

    # ------------------------------------------------------------------
    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        if file.module in self.thread_local:
            yield from self._check_thread_local(
                file, self.thread_local[file.module])
        for cls_name, guard in self._by_module.get(file.module, {}).items():
            cls = _find_class(file.tree, cls_name)
            if cls is None:
                continue
            for method in _iter_methods(cls):
                if method.name == "__init__" or \
                        method.name in guard.unshared:
                    continue        # escape analysis: not yet shared
                held: Set[str] = set()
                locked_as = guard.caller_locked.get(method.name)
                if locked_as is not None:
                    held = {locked_as}
                elif guard.external_lock is not None:
                    # Externally guarded class: only declared
                    # caller-locked methods may touch guarded state.
                    yield from self._check_external(file, cls_name,
                                                   guard, method)
                    continue
                yield from self._walk(file, cls_name, guard, method.body,
                                      frozenset(held))

    # ------------------------------------------------------------------
    def _walk(self, file: SourceFile, cls_name: str, guard: ClassGuard,
              body: Iterable[ast.AST], held: FrozenSet[str],
              ) -> Iterable[Violation]:
        for node in body:
            newly = _with_lock_attrs(node, guard.lock_attrs)
            inner = held | newly if newly else held
            for target in self._written_attrs(node):
                attr = target[0]
                if attr not in guard.guarded:
                    continue
                needed = guard.guarded[attr]
                if needed not in inner:
                    yield self._write_violation(
                        file, cls_name, target[1], attr, needed, inner)
            for child_body in self._child_bodies(node):
                yield from self._walk(file, cls_name, guard, child_body,
                                      inner)

    @staticmethod
    def _child_bodies(node: ast.AST) -> Iterable[List[ast.AST]]:
        for name in ("body", "orelse", "finalbody"):
            child = getattr(node, name, None)
            if child:
                yield child
        for handler in getattr(node, "handlers", ()) or ():
            yield handler.body

    def _written_attrs(self, node: ast.AST,
                       ) -> Iterable[Tuple[str, int]]:
        """(attr, line) pairs this *statement* writes or mutates.

        Looks only at the statement's own expression, not nested
        bodies — those are visited recursively with the right held-set.
        """
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from self._targets(target, node.lineno)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield from self._targets(node.target, node.lineno)
        elif isinstance(node, ast.AugAssign):
            yield from self._targets(node.target, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                yield from self._targets(target, node.lineno)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if isinstance(call.func, ast.Attribute) and \
                    call.func.attr in _MUTATORS:
                attr = _self_attr(call.func.value)
                if attr is not None:
                    yield (attr, node.lineno)

    def _targets(self, target: ast.AST, line: int,
                 ) -> Iterable[Tuple[str, int]]:
        attr = _self_attr(target)
        if attr is not None:
            yield (attr, line)
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                yield (attr, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._targets(element, line)

    def _write_violation(self, file: SourceFile, cls_name: str, line: int,
                         attr: str, needed: str,
                         held: FrozenSet[str]) -> Violation:
        if held:
            detail = (f"while holding {sorted(held)} instead of the "
                      f"declared guard 'self.{needed}'")
        else:
            detail = f"outside any 'with self.{needed}' block"
        return Violation(
            code=self.code, path=str(file.path), line=line,
            message=(f"{cls_name}.{attr} is guarded by 'self.{needed}' "
                     f"but is written {detail} (register intent or fix "
                     "the locking)"))

    # ------------------------------------------------------------------
    def _check_external(self, file: SourceFile, cls_name: str,
                        guard: ClassGuard, method: ast.FunctionDef,
                        ) -> Iterable[Violation]:
        for node in ast.walk(method):
            for attr, line in self._written_attrs(node):
                if attr in guard.guarded:
                    yield Violation(
                        code=self.code, path=str(file.path), line=line,
                        message=(f"{cls_name}.{attr} is guarded by the "
                                 f"external lock '{guard.external_lock}' "
                                 f"and may only be written inside the "
                                 f"declared caller-locked methods "
                                 f"({', '.join(sorted(guard.caller_locked))}"
                                 f"), not {method.name}()"))

    # ------------------------------------------------------------------
    def _check_thread_local(self, file: SourceFile,
                            allowed: FrozenSet[str],
                            ) -> Iterable[Violation]:
        for node in file.tree.body:
            if isinstance(node, ast.Assign):
                if isinstance(node.value, (ast.Dict, ast.List, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp)):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and \
                                target.id not in allowed and \
                                not target.id.startswith("__"):
                            yield Violation(
                                code=self.code, path=str(file.path),
                                line=node.lineno,
                                message=(f"module-level mutable "
                                         f"'{target.id}' in thread-local "
                                         f"module {file.module}: shared "
                                         "state here must live in a "
                                         "threading.local container"))
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Global):
                yield Violation(
                    code=self.code, path=str(file.path), line=node.lineno,
                    message=(f"'global {', '.join(node.names)}' rebinding "
                             f"in thread-local module {file.module}: "
                             "cross-thread module state is a data race"))


# ----------------------------------------------------------------------
# RL007
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Edge:
    """One static acquisition: lock ``inner`` taken while ``outer`` held."""

    outer: str
    inner: str
    path: str
    line: int


class LockOrderingRule(Rule):
    code = "RL007"
    name = "lock-ordering"
    rationale = ("Acquiring locks against the declared rank order — or "
                 "in a cycle — deadlocks under the right schedule; the "
                 "static acquisition graph must run strictly down the "
                 "declared DAG.")

    def __init__(self, locks: Optional[Mapping[str, LockSpec]] = None,
                 guarded: Optional[Mapping[Tuple[str, str], ClassGuard]]
                 = None):
        self.locks = dict(LOCKS if locks is None else locks)
        self.guarded = dict(GUARDED_CLASSES if guarded is None else guarded)
        self._by_class: Dict[Tuple[str, str], Dict[str, str]] = {}
        for spec in self.locks.values():
            self._by_class.setdefault((spec.module, spec.cls),
                                      {})[spec.attr] = spec.name

    # ------------------------------------------------------------------
    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        edges: List[_Edge] = project.cached(
            "rl007-edges", lambda: self._collect_edges(project))
        reported: Set[Tuple[str, str, int]] = set()
        for edge in edges:
            if edge.path != str(file.path):
                continue
            key = (edge.outer, edge.inner, edge.line)
            if key in reported:
                continue
            reported.add(key)
            yield from self._edge_violations(file, edge)
        yield from self._cycle_violations(file, project, edges)

    def _edge_violations(self, file: SourceFile,
                         edge: _Edge) -> Iterable[Violation]:
        outer = self.locks.get(edge.outer)
        inner = self.locks.get(edge.inner)
        if edge.outer == edge.inner:
            yield Violation(
                code=self.code, path=edge.path, line=edge.line,
                message=(f"lock '{edge.inner}' acquired while an "
                         "instance of the same lock is already held; "
                         "same-rank instances may not nest"))
            return
        if outer is None or inner is None:
            return
        if outer.rank >= inner.rank:
            yield Violation(
                code=self.code, path=edge.path, line=edge.line,
                message=(f"acquires '{edge.inner}' (rank {inner.rank}) "
                         f"while holding '{edge.outer}' (rank "
                         f"{outer.rank}); the declared order requires "
                         "strictly increasing ranks — invert the "
                         "nesting or re-rank the model"))

    def _cycle_violations(self, file: SourceFile, project: Project,
                          edges: List[_Edge]) -> Iterable[Violation]:
        cycles: List[Tuple[str, ...]] = project.cached(
            "rl007-cycles", lambda: self._find_cycles(edges))
        for cycle in cycles:
            anchor = self.locks.get(cycle[0])
            # Report each cycle once, at the file owning the first lock.
            if anchor is not None and file.module == anchor.module:
                yield Violation(
                    code=self.code, path=str(file.path), line=1,
                    message=("static lock-acquisition cycle: "
                             + " -> ".join(cycle + (cycle[0],))
                             + " (deadlock under the right schedule)"))

    # ------------------------------------------------------------------
    def _collect_edges(self, project: Project) -> List[_Edge]:
        acquirers = self._acquiring_surface(project)
        edges: List[_Edge] = []
        for (module, cls_name), lock_attrs in self._by_class.items():
            file = project.modules.get(module)
            if file is None:
                continue
            cls = _find_class(file.tree, cls_name)
            if cls is None:
                continue
            own_methods = self._own_acquisitions(cls, lock_attrs)
            guard = self.guarded.get((module, cls_name))
            for method in _iter_methods(cls):
                held: Set[str] = set()
                if guard is not None and \
                        method.name in guard.caller_locked:
                    attr = guard.caller_locked[method.name]
                    if attr in lock_attrs:
                        held = {lock_attrs[attr]}
                self._edges_in(method.body, held, lock_attrs, own_methods,
                               acquirers, str(file.path), edges)
        for (module, cls_name), guard in self.guarded.items():
            if guard.external_lock is None or \
                    (module, cls_name) in self._by_class:
                continue
            file = project.modules.get(module)
            if file is None:
                continue
            cls = _find_class(file.tree, cls_name)
            if cls is None:
                continue
            for method in _iter_methods(cls):
                if method.name not in guard.caller_locked:
                    continue
                self._edges_in(method.body, {guard.external_lock}, {},
                               {}, acquirers, str(file.path), edges)
        return edges

    def _own_acquisitions(self, cls: ast.ClassDef,
                          lock_attrs: Mapping[str, str],
                          ) -> Dict[str, Set[str]]:
        """method name -> lock names it acquires directly via ``with``."""
        table: Dict[str, Set[str]] = {}
        for method in _iter_methods(cls):
            acquired: Set[str] = set()
            for node in ast.walk(method):
                for attr in _with_lock_attrs(node, lock_attrs):
                    acquired.add(lock_attrs[attr])
            if acquired:
                table[method.name] = acquired
        return table

    def _acquiring_surface(self, project: Project) -> Dict[str, Set[str]]:
        """Cross-class map: unambiguous method/property name -> locks.

        A call ``anything.m(...)`` (or a property read ``anything.m``)
        where ``m`` is a method of exactly one registered class that
        acquires a lock contributes an edge.  Names in
        ``_AMBIGUOUS_METHODS`` — generic stdlib-ish names — never
        resolve; the runtime sanitizer covers what the name heuristic
        cannot see.
        """
        surface: Dict[str, Set[str]] = {}
        defined_in: Dict[str, int] = {}
        registered = set(self._by_class) | set(self.guarded)
        for module, cls_name in registered:
            file = project.modules.get(module)
            if file is None:
                continue
            cls = _find_class(file.tree, cls_name)
            if cls is None:
                continue
            for method in _iter_methods(cls):
                defined_in[method.name] = defined_in.get(method.name, 0) + 1
            lock_attrs = self._by_class.get((module, cls_name))
            if lock_attrs is None:
                continue
            for method, locks in self._own_acquisitions(
                    cls, lock_attrs).items():
                if method in _AMBIGUOUS_METHODS:
                    continue
                surface.setdefault(method, set()).update(locks)
        # A name defined by two registered classes cannot be resolved by
        # name alone — drop it rather than guess (the runtime sanitizer
        # still sees the real acquisition).
        return {name: locks for name, locks in surface.items()
                if defined_in.get(name, 0) <= 1}

    def _edges_in(self, body: Iterable[ast.AST], held: Set[str],
                  lock_attrs: Mapping[str, str],
                  own_methods: Mapping[str, Set[str]],
                  acquirers: Mapping[str, Set[str]],
                  path: str, edges: List[_Edge]) -> None:
        for node in body:
            newly = {lock_attrs[attr]
                     for attr in _with_lock_attrs(node, lock_attrs)}
            if held and newly:
                for outer in held:
                    for inner in newly:
                        edges.append(_Edge(outer, inner, path, node.lineno))
            inner_held = held | newly
            if inner_held:
                self._call_edges(node, inner_held if newly else held,
                                 own_methods, acquirers, path, edges)
            for child in self._stmt_children(node):
                self._edges_in(child, inner_held, lock_attrs, own_methods,
                               acquirers, path, edges)

    @staticmethod
    def _stmt_children(node: ast.AST) -> Iterable[List[ast.AST]]:
        for name in ("body", "orelse", "finalbody"):
            child = getattr(node, name, None)
            if child:
                yield child
        for handler in getattr(node, "handlers", ()) or ():
            yield handler.body

    def _call_edges(self, node: ast.AST, held: Set[str],
                    own_methods: Mapping[str, Set[str]],
                    acquirers: Mapping[str, Set[str]],
                    path: str, edges: List[_Edge]) -> None:
        """Edges from calls/property reads in this statement's expressions."""
        if not held:
            return
        for sub in ast.walk(node) if not isinstance(node, (ast.With,
                                                           ast.AsyncWith,
                                                           ast.If,
                                                           ast.While,
                                                           ast.For,
                                                           ast.Try) )\
                else self._expr_parts(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute):
                name = sub.func.attr
                targets: Set[str] = set()
                if isinstance(sub.func.value, ast.Name) and \
                        sub.func.value.id == "self" and name in own_methods:
                    targets = own_methods[name]
                elif name in acquirers:
                    targets = acquirers[name]
                for inner in targets:
                    for outer in held:
                        edges.append(_Edge(outer, inner, path, sub.lineno))

    @staticmethod
    def _expr_parts(node: ast.AST) -> Iterable[ast.AST]:
        """Expression positions of a compound statement (not its bodies)."""
        for name in ("test", "iter", "items"):
            child = getattr(node, name, None)
            if child is None:
                continue
            if isinstance(child, list):
                for item in child:
                    expr = getattr(item, "context_expr", item)
                    yield from ast.walk(expr)
            else:
                yield from ast.walk(child)

    # ------------------------------------------------------------------
    @staticmethod
    def _find_cycles(edges: List[_Edge]) -> List[Tuple[str, ...]]:
        graph: Dict[str, Set[str]] = {}
        for edge in edges:
            graph.setdefault(edge.outer, set()).add(edge.inner)
            graph.setdefault(edge.inner, set())

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


# ----------------------------------------------------------------------
# RL008
# ----------------------------------------------------------------------
class ConditionHygieneRule(Rule):
    code = "RL008"
    name = "condition-hygiene"
    rationale = ("Condition variables wake spuriously and race their "
                 "predicate: wait() must re-check under a while loop, "
                 "and wait/notify must run while holding the condition.")

    _CONDITION_FACTORIES = ("Condition", "tracked_condition")

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                conds = self._condition_attrs(node)
                if not conds:
                    continue
                for method in _iter_methods(node):
                    yield from self._check_method(file, node.name, method,
                                                 conds)

    def _condition_attrs(self, cls: ast.ClassDef) -> Set[str]:
        """Attributes assigned a Condition anywhere in the class body."""
        conds: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            callee = value.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                callee.id if isinstance(callee, ast.Name) else None
            if name not in self._CONDITION_FACTORIES:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    conds.add(attr)
        return conds

    def _check_method(self, file: SourceFile, cls_name: str,
                      method: ast.FunctionDef,
                      conds: Set[str]) -> Iterable[Violation]:
        yield from self._walk(file, cls_name, method.body, conds,
                              held=frozenset(), in_loop=frozenset())

    def _walk(self, file: SourceFile, cls_name: str,
              body: Iterable[ast.AST], conds: Set[str],
              held: FrozenSet[str], in_loop: FrozenSet[str],
              ) -> Iterable[Violation]:
        for node in body:
            newly = {attr for attr in _with_lock_attrs(node, conds)}
            inner_held = held | newly
            # Entering a loop marks every currently-held condition as
            # predicate-guarded for wait() calls in the loop body.
            inner_loop = in_loop | inner_held if \
                isinstance(node, (ast.While,)) else \
                (in_loop - newly if newly else in_loop)
            for call in self._own_calls(node):
                yield from self._check_call(file, cls_name, call, conds,
                                            inner_held if newly else held,
                                            in_loop)
            for child in self._bodies(node):
                yield from self._walk(file, cls_name, child, conds,
                                      inner_held, inner_loop)

    @staticmethod
    def _bodies(node: ast.AST) -> Iterable[List[ast.AST]]:
        for name in ("body", "orelse", "finalbody"):
            child = getattr(node, name, None)
            if child:
                yield child
        for handler in getattr(node, "handlers", ()) or ():
            yield handler.body

    @staticmethod
    def _own_calls(node: ast.AST) -> Iterable[ast.Call]:
        """Calls in this statement's own expressions (not nested bodies)."""
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    if isinstance(sub, ast.Call):
                        yield sub
            return
        if isinstance(node, (ast.If, ast.While)):
            source: ast.AST = node.test
        elif isinstance(node, ast.For):
            source = node.iter
        elif isinstance(node, ast.Try):
            return
        else:
            source = node
        for sub in ast.walk(source):
            if isinstance(sub, ast.Call):
                yield sub

    def _check_call(self, file: SourceFile, cls_name: str, call: ast.Call,
                    conds: Set[str], held: FrozenSet[str],
                    in_loop: FrozenSet[str]) -> Iterable[Violation]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = _self_attr(func.value)
        if attr is None or attr not in conds:
            return
        method = func.attr
        if method in ("notify", "notify_all"):
            if attr not in held:
                yield Violation(
                    code=self.code, path=str(file.path), line=call.lineno,
                    message=(f"{cls_name}: '{method}' on condition "
                             f"'self.{attr}' outside its 'with "
                             f"self.{attr}' block — notifying an "
                             "unheld condition raises at runtime"))
        elif method == "wait":
            if attr not in held:
                yield Violation(
                    code=self.code, path=str(file.path), line=call.lineno,
                    message=(f"{cls_name}: 'wait' on condition "
                             f"'self.{attr}' outside its 'with "
                             f"self.{attr}' block"))
            elif attr not in in_loop:
                yield Violation(
                    code=self.code, path=str(file.path), line=call.lineno,
                    message=(f"{cls_name}: bare 'self.{attr}.wait()' "
                             "not guarded by a while predicate loop — "
                             "condition wakeups are spurious; re-check "
                             "the predicate (or use wait_for)"))
        # wait_for re-checks its predicate internally: with-block
        # containment is enforced by the same 'held' check as wait.
        elif method == "wait_for" and attr not in held:
            yield Violation(
                code=self.code, path=str(file.path), line=call.lineno,
                message=(f"{cls_name}: 'wait_for' on condition "
                         f"'self.{attr}' outside its 'with "
                         f"self.{attr}' block"))
