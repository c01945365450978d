"""Hot-path allocation lint (91x).

The per-cycle loops are the simulator's inner loop: every avoidable
allocation there is paid millions of times per sweep and shows up
directly in the perf-smoke numbers.  REPRO911 walks the per-cycle entry
points of the SoA core (``SoaCore.cycle_all``) and the object router
(``Router.cycle``), the per-block ``encode``/``decode`` of the five paper
codecs and the dictionary decoder's block learning, plus every
``self``-method they transitively call, and flags constructs that
allocate on each execution:

* list / dict / set literals and displays;
* tuple literals with any non-constant element (constant tuples are
  folded by CPython);
* list/set/dict/generator comprehensions;
* ``lambda`` expressions (a fresh function object per evaluation);
* construction of a project class (``Name(...)`` where ``Name`` is a
  class defined under ``src/repro``) — the per-word objects the flat
  codec datapath removed.

Methods on the cold-path registry (setup, audit, debugging) are not
descended into; a justified per-site escape is the usual
``# repro: allow[hot-alloc]`` comment — e.g. the arrival/ejection
payload tuples, which *are* the data being communicated, or a codec's
per-block output tuples and protocol ``Notification`` objects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.project import ClassInfo, ProjectContext
from repro.analysis.rules import ProjectRule, register

#: Hot entry points: (module, class, method).  The per-cycle loops, then
#: the per-block codec calls of the five paper mechanisms (FP-VAXX
#: inherits ``decode`` from FP-COMP; both dictionary codecs learn through
#: ``DictionaryDecoder.observe_block``).
HOT_ROOTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.noc.core_soa", "SoaCore", "cycle_all"),
    ("repro.noc.core_soa", "SoaCore", "accept_arrivals"),
    ("repro.noc.core_soa", "SoaCore", "apply_credits"),
    ("repro.noc.router", "Router", "cycle"),
    ("repro.compression.schemes", "BaselineNode", "encode"),
    ("repro.compression.schemes", "BaselineNode", "decode"),
    ("repro.compression.schemes", "FpCompNode", "encode"),
    ("repro.compression.schemes", "FpCompNode", "decode"),
    ("repro.core.fp_vaxx", "FpVaxxNode", "encode"),
    ("repro.compression.dictionary", "DiCompNode", "encode"),
    ("repro.compression.dictionary", "DiCompNode", "decode"),
    ("repro.compression.dictionary", "DictionaryDecoder", "observe_block"),
    ("repro.core.di_vaxx", "DiVaxxNode", "encode"),
    ("repro.core.di_vaxx", "DiVaxxNode", "decode"),
)

#: Allow-registry: methods reachable from a hot root that are known
#: cold setup/diagnostic paths and are not descended into.
COLD_METHODS: frozenset = frozenset({
    "audit", "bind", "reset", "__init__", "__repr__",
})


@register
class HotPathAllocation(ProjectRule):
    """No per-execution allocation inside the per-cycle loops."""

    name = "hot-alloc"
    code = "REPRO911"
    invariant = ("The per-cycle loops (SoaCore.cycle_all / Router.cycle "
                 "and their callees) and the per-block codec calls run "
                 "millions of times per sweep; container literals, "
                 "comprehensions, lambdas and object constructions there "
                 "allocate on every execution and belong in __init__ "
                 "(preallocated scratch) or outside the loop.")
    includes = ("repro.noc", "repro.compression", "repro.core")
    example_bad = """
        def cycle(self, now):
            requests = {}                # fresh dict every cycle
            order = sorted(ports, key=lambda p: p - self._rr)
    """
    example_good = """
        def __init__(self):
            self._req_lists = [[] for _ in range(n_ports)]  # once

        def cycle(self, now):
            lst = self._req_lists[port]  # reused, cleared with del lst[:]
    """

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        seen: Set[int] = set()
        for module, class_name, method in HOT_ROOTS:
            if module not in project.modules:
                continue
            for owner, name, fn in self._hot_closure(project, class_name,
                                                     method):
                if id(fn) in seen:
                    continue  # shared by several roots: report it once
                seen.add(id(fn))
                yield from self._check_function(project, owner, name, fn)

    # ------------------------------------------------------------ closure

    def _hot_closure(self, project: ProjectContext, class_name: str,
                     root: str
                     ) -> Iterator[Tuple[ClassInfo, str, ast.FunctionDef]]:
        """The root method plus every ``self``-method it transitively
        calls (resolved through the class's mro), cold paths excluded.
        Each comes with the class that defines it."""
        methods: Dict[str, Tuple[ClassInfo, ast.FunctionDef]] = {}
        for info in reversed(project.mro(class_name)):
            for name, fn in info.methods.items():
                methods[name] = (info, fn)
        seen: Set[str] = set()
        queue: List[str] = [root]
        while queue:
            name = queue.pop(0)
            if name in seen or name in COLD_METHODS:
                continue
            seen.add(name)
            found = methods.get(name)
            if found is None:
                continue
            owner, fn = found
            yield owner, name, fn
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and node.func.attr in methods):
                    queue.append(node.func.attr)

    # ----------------------------------------------------------- checking

    def _check_function(self, project: ProjectContext, owner: ClassInfo,
                        method: str, fn: ast.FunctionDef
                        ) -> Iterator[Finding]:
        where = f"{owner.name}.{method}"
        for node in self._walk_executed(fn):
            what = self._allocation(node, project)
            if what is None:
                continue
            yield self.finding_at(
                owner.ctx, node,
                f"{what} in hot path {where}: preallocate in "
                f"__init__ (scratch cleared with 'del lst[:]') or hoist "
                f"out of the loop")

    @staticmethod
    def _walk_executed(fn: ast.FunctionDef) -> Iterator[ast.AST]:
        """Every node evaluated when the function runs: the body, minus
        type annotations (and the signature, which is evaluated once at
        def time).  Parallel-unpack value tuples (``a, b = x, y``) are
        skipped — CPython compiles them to stack rotations, not a tuple
        allocation."""
        skip: Set[int] = set()
        stack: List[ast.AST] = list(reversed(fn.body))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Tuple) \
                    and isinstance(node.value, ast.Tuple):
                skip.add(id(node.value))
            if id(node) not in skip:
                yield node
            for fname, value in ast.iter_fields(node):
                if fname in ("annotation", "returns"):
                    continue
                if isinstance(value, ast.AST):
                    stack.append(value)
                elif isinstance(value, list):
                    stack.extend(v for v in value if isinstance(v, ast.AST))

    @staticmethod
    def _allocation(node: ast.AST, project: ProjectContext
                    ) -> Optional[str]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in project.classes:
            return f"object construction ({node.func.id})"
        if isinstance(node, ast.ListComp):
            return "list comprehension"
        if isinstance(node, ast.SetComp):
            return "set comprehension"
        if isinstance(node, ast.DictComp):
            return "dict comprehension"
        if isinstance(node, ast.GeneratorExp):
            return "generator expression"
        if isinstance(node, ast.Lambda):
            return "lambda construction"
        if isinstance(node, ast.List) and isinstance(node.ctx, ast.Load):
            return "list literal"
        if isinstance(node, ast.Dict):
            return "dict literal"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load) \
                and node.elts \
                and not all(isinstance(e, ast.Constant) for e in node.elts):
            return "tuple literal (non-constant elements)"
        return None
