"""8xx: flow-sensitive proofs of the SKIP_ACCOUNTED_STATE claims.

``repro.noc.network.SKIP_ACCOUNTED_STATE`` classifies every simulator
field so the event-horizon skip can be argued bit-identical.  REPRO701
only checks a classification *exists*; the rules here prove (per class of
claim) that the mutation sites actually honor it:

* REPRO801 — ``static`` fields are rebound only on registered init paths;
* REPRO802 — ``counter`` fields change only by augmented steps or
  boolean flag stores;
* REPRO803 — skip/probe methods mutate nothing beyond
  ``replayed``/``clock``/``advisory`` state (the core soundness property
  of the fast path);
* REPRO804 — ``frozen``/``wakeup``/``queue``/``counter``/``scratch``/
  ``proof`` state is mutated only by its owning class or a registered
  cross-class choke point, with ``queue`` fields pinned to an explicit
  per-field site list;
* REPRO805 — ``clock`` fields only advance (or jump forward inside the
  registered fast-forward path).

Receivers are resolved symbolically (``self``, ``*.routers[...]``,
``*.nis[...]``, ``*.net``, ``*._core`` and the matching parameter
names); an ambiguous receiver (e.g. a router that may be an object
``Router`` or a ``SoaRouter`` view) only fires when *every* candidate
registering the field is violated.  The registry itself is imported
lazily from the simulator, mirroring REPRO701.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, \
    Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.mutations import FieldMutation, \
    collect_field_mutations
from repro.analysis.flow.project import ProjectContext
from repro.analysis.rules import ProjectRule, register

#: Modules whose mutation sites are audited against the registry.
AUDITED_MODULES: Tuple[str, ...] = (
    "repro.noc.network",
    "repro.noc.router",
    "repro.noc.ni",
    "repro.noc.core_soa",
    "repro.verify.sanitizer",
    "repro.faults.inject",
    "repro.faults.recovery",
)

#: Methods allowed to (re)bind ``static`` fields: construction, plus the
#: registered late-init paths (``bind`` wires the SoA core to its network
#: post-construction; ``attach_fault_layer`` arms the NI fault hooks;
#: the SoaRouter ``inputs``/``out_credits`` views are one-shot lazy
#: constructions of immutable introspection mirrors).
INIT_PATHS: Dict[str, FrozenSet[str]] = {
    "Network": frozenset({"__init__"}),
    "Router": frozenset({"__init__"}),
    "NetworkInterface": frozenset({"__init__", "attach_fault_layer"}),
    "SoaCore": frozenset({"__init__", "bind"}),
    "SoaRouter": frozenset({"__init__", "inputs", "out_credits"}),
}

#: ``Network.__init__`` wires freshly-built components together (e.g.
#: rebinding ``ni.on_deliver`` to the sanitizer wrapper) — construction
#: of the aggregate counts as an init path for every part.
CONSTRUCTION_WIRING = frozenset({"Network.__init__"})

#: Skip/probe methods: consulted by the event-horizon fast path, so they
#: must not mutate anything the always-step run would not also see.
#: Only ``replayed``/``clock``/``advisory`` state may change here.
SKIP_PATHS: Dict[str, FrozenSet[str]] = {
    "Network": frozenset({"_may_skip", "_skip_horizon", "_fast_forward",
                          "_use_horizon", "idle"}),
    "Router": frozenset({"next_ready", "skip_cycles", "occupancy",
                         "buffer_occupancy", "credit_count", "audit"}),
    "SoaRouter": frozenset({"next_ready", "skip_cycles", "occupancy",
                            "buffer_occupancy", "credit_count", "audit"}),
    "SoaCore": frozenset({"next_ready_all", "next_ready_router",
                          "skip_all", "skip_router", "occupancy",
                          "buffer_occupancy", "credit_count", "audit"}),
    "NetworkInterface": frozenset({"next_work", "busy", "queue_depth",
                                   "audit_credits"}),
}

#: Classifications a skip path may legitimately touch.
SKIP_MUTABLE = frozenset({"replayed", "clock", "advisory"})

#: Per-field site lists for ``queue`` state: the registered
#: send/accept/credit choke points (``Class.method`` tags; closures match
#: through their defining method).
QUEUE_SITES: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("Network", "_pending_router_arrivals"): frozenset({
        "Network.__init__", "Network._make_send_fn",
        "Network._deliver_arrivals", "SoaCore.cycle_all"}),
    ("Network", "_pending_ejections"): frozenset({
        "Network.__init__", "Network._make_send_fn",
        "Network._deliver_arrivals", "SoaCore.cycle_all"}),
    ("Network", "_credit_events"): frozenset({
        "Network.__init__", "Network._make_credit_fn",
        "Network._apply_credits", "SoaCore.cycle_all"}),
}

#: Cross-class mutation choke points for non-queue state: the SoA core's
#: fused cycle pass maintains the network's activity accounting directly.
CROSS_CLASS_SITES: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("Network", "_buffered_total"): frozenset({"SoaCore.cycle_all"}),
    ("Network", "_busy_ni_count"): frozenset({"SoaCore.cycle_all"}),
    ("Network", "_ni_active"): frozenset({"SoaCore.cycle_all"}),
    ("NetworkInterface", "on_deliver"): CONSTRUCTION_WIRING,
}

#: ``clock`` fields may be re-assigned (jumped forward) only here.
CLOCK_JUMP_PATHS: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("Network", "cycle"): frozenset({"Network._fast_forward"}),
    ("Network", "stats"): frozenset({"Network._fast_forward"}),
}

#: Classifications whose mutations must stay inside the owning class
#: (or a registered choke point).
CONTAINED = frozenset({"frozen", "wakeup", "queue", "counter", "scratch",
                       "proof"})

#: Receiver path suffix -> candidate classes (parameter names included:
#: the sanitizer and recovery passes take ``network``/``router`` params).
_RECEIVER_PATTERNS: Dict[str, Tuple[str, ...]] = {
    "net": ("Network",),
    "network": ("Network",),
    "nis[]": ("NetworkInterface",),
    "ni": ("NetworkInterface",),
    "routers[]": ("Router", "SoaRouter"),
    "router": ("Router", "SoaRouter"),
    "_core": ("SoaCore",),
    "core": ("SoaCore",),
}


def _registry() -> Mapping[str, Mapping[str, str]]:
    # Imported lazily, same as REPRO701: the registry lives with the
    # simulator so the two cannot drift.
    from repro.noc.network import SKIP_ACCOUNTED_STATE
    return SKIP_ACCOUNTED_STATE


def _resolve_receiver(path: str,
                      enclosing_class: Optional[str]) -> FrozenSet[str]:
    if path == "self":
        return frozenset({enclosing_class}) if enclosing_class else \
            frozenset()
    last = path.split(".")[-1]
    return frozenset(_RECEIVER_PATTERNS.get(last, ()))


def _mutations(project: ProjectContext) -> List[FieldMutation]:
    cached = project.cache.get("state_proofs.mutations")
    if cached is None:
        cached = collect_field_mutations(project, AUDITED_MODULES,
                                         _resolve_receiver)
        project.cache["state_proofs.mutations"] = cached
    return cached  # type: ignore[return-value]


def _classification(project: ProjectContext, owner: str,
                    field: str) -> Optional[str]:
    registry = _registry()
    for info in project.mro(owner) or []:
        entry = registry.get(info.name, {}).get(field)
        if entry is not None:
            return entry
    # Classes absent from the scanned project (e.g. single-file
    # fixtures) still resolve directly against the registry.
    return registry.get(owner, {}).get(field)


def _classified_owners(project: ProjectContext,
                       mut: FieldMutation) -> Dict[str, str]:
    """Candidate owners that actually register the mutated field."""
    out: Dict[str, str] = {}
    for owner in sorted(mut.owner_classes):
        entry = _classification(project, owner, mut.field)
        if entry is not None:
            out[owner] = entry
    return out


def _site_label(mut: FieldMutation) -> str:
    return mut.item.qualname


def _in_init_path(mut: FieldMutation, owner: str) -> bool:
    tags = mut.site_tags()
    if tags & CONSTRUCTION_WIRING:
        return True
    allowed = INIT_PATHS.get(owner, frozenset({"__init__"}))
    return any(f"{owner}.{method}" in tags or
               (mut.item.class_name == owner and
                method in mut.item.chain[1:])
               for method in allowed)


class _StateProofRule(ProjectRule):
    """Shared scaffolding: collect mutations once, judge per candidate."""

    includes = ("repro.noc", "repro.verify", "repro.faults")

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for mut in _mutations(project):
            owners = _classified_owners(project, mut)
            if not owners:
                continue
            # Ambiguous receivers: fire only when every candidate that
            # registers the field judges the site a violation.
            verdicts = [self.judge(project, mut, owner, entry)
                        for owner, entry in owners.items()]
            if verdicts and all(v is not None for v in verdicts):
                findings.append(self.finding_at(mut.ctx, mut.node,
                                                verdicts[0] or ""))
        return findings

    def judge(self, project: ProjectContext, mut: FieldMutation,
              owner: str, classification: str) -> Optional[str]:
        """Violation message for one candidate owner, or None."""
        raise NotImplementedError


@register
class StaticFieldRebound(_StateProofRule):
    """A field classified ``static`` ("set at construction and never
    reassigned while simulating") is rebound — or its container contents
    changed — outside the registered init paths.  Static claims are what
    let the event-horizon skip and the SoA views avoid re-reading this
    state per cycle; a late rebinding silently invalidates both."""

    name = "state-static-rebind"
    code = "REPRO801"
    invariant = ("Fields classified 'static' in SKIP_ACCOUNTED_STATE are "
                 "(re)bound only in __init__/registered init paths.")
    example_bad = """
        class Router:
            def _traverse(self, flit):
                self.pipe_delay = 0   # static field rebound mid-run
    """
    example_good = """
        class Router:
            def __init__(self, config):
                self.pipe_delay = config.pipe_delay  # init path only
    """

    def judge(self, project: ProjectContext, mut: FieldMutation,
              owner: str, classification: str) -> Optional[str]:
        if classification != "static" or mut.depth == "deep":
            return None
        if _in_init_path(mut, owner):
            return None
        what = ("rebound" if mut.depth == "rebind"
                else f"container-mutated ({mut.op})")
        return (f"static field {owner}.{mut.field} {what} in "
                f"{_site_label(mut)} — 'static' claims it is set at "
                f"construction and never reassigned while simulating")


@register
class CounterShape(_StateProofRule):
    """A field classified ``counter`` (O(1) activity accounting) is
    mutated by something other than an augmented step or a boolean flag
    store.  Wholesale re-assignment outside init would let the cached
    account diverge from a recount, which NoCSan would only catch on a
    sanitized run."""

    name = "state-counter-shape"
    code = "REPRO802"
    invariant = ("Fields classified 'counter' change only via augmented "
                 "assignment or boolean flag stores (rebinding only on "
                 "init paths).")
    example_bad = """
        class Network:
            def step(self):
                self._buffered_total = 0   # wholesale reset mid-run
    """
    example_good = """
        class Network:
            def _deliver_arrivals(self, now):
                self._buffered_total += len(arrivals)
                self._ni_active[node] = True   # boolean flag store
    """

    def judge(self, project: ProjectContext, mut: FieldMutation,
              owner: str, classification: str) -> Optional[str]:
        if classification != "counter" or mut.depth == "deep":
            return None
        if mut.op in ("augadd", "augsub"):
            return None
        if _in_init_path(mut, owner):
            return None
        if mut.depth == "content" and mut.op == "assign" and \
                isinstance(mut.value, ast.Constant) and \
                isinstance(mut.value.value, bool):
            return None
        return (f"counter field {owner}.{mut.field} mutated by "
                f"{mut.op} in {_site_label(mut)} — counters may only "
                f"take augmented steps or boolean flag stores")


@register
class SkipPathPurity(_StateProofRule):
    """A skip/probe method — one the event-horizon fast path calls while
    *proving* cycles dead — mutates state that is not classified
    ``replayed``/``clock``/``advisory``.  Any other write during a probe
    makes the skipped run observably different from the stepped run,
    breaking bit-identity.  This is the pass that catches a seeded
    ``frozen``-field write in ``skip_all`` without running the
    simulator."""

    name = "skip-path-purity"
    code = "REPRO803"
    invariant = ("Skip/probe methods (next_ready, skip_cycles, skip_all, "
                 "_fast_forward, idle, audit, ...) mutate only "
                 "replayed/clock/advisory state.")
    example_bad = """
        class SoaCore:
            def skip_all(self, count):
                self.out_credits[0] = 0   # frozen state written in a skip
    """
    example_good = """
        class SoaCore:
            def skip_all(self, count):
                rr = self.va_input_rr     # replayed: explicitly re-played
                for g, value in enumerate(rr):
                    rr[g] = (value + count) % self.num_vcs
    """

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for mut in _mutations(project):
            site_class = mut.item.class_name
            if site_class is None or site_class not in SKIP_PATHS:
                continue
            if not any(m in SKIP_PATHS[site_class]
                       for m in mut.item.chain[1:]):
                continue
            owners = _classified_owners(project, mut)
            if not owners:
                # A skip path writing *unregistered* state on a resolved
                # simulator receiver is just as unsound.
                if mut.owner_classes & set(_registry()):
                    findings.append(self.finding_at(
                        mut.ctx, mut.node,
                        f"skip path {_site_label(mut)} mutates "
                        f"unclassified state "
                        f"{sorted(mut.owner_classes)[0]}.{mut.field}"))
                continue
            bad = {owner: entry for owner, entry in owners.items()
                   if entry not in SKIP_MUTABLE}
            if bad:
                owner, entry = sorted(bad.items())[0]
                findings.append(self.finding_at(
                    mut.ctx, mut.node,
                    f"skip path {_site_label(mut)} mutates {owner}."
                    f"{mut.field} (classified '{entry}') — probes may "
                    f"only touch replayed/clock/advisory state"))
        return findings

    def judge(self, project: ProjectContext, mut: FieldMutation,
              owner: str, classification: str) -> Optional[str]:
        return None  # unused: check_project is overridden


@register
class StateContainment(_StateProofRule):
    """Skip-accounted state is mutated outside its owning class without a
    registered choke point — or a ``queue`` field is touched away from
    the registered send/accept/credit sites.  The skip precondition
    reasons about these fields locally; an unregistered remote writer
    invalidates that reasoning."""

    name = "state-containment"
    code = "REPRO804"
    invariant = ("frozen/wakeup/queue/counter/scratch/proof state mutates "
                 "only in its owning class or at registered choke "
                 "points; queue fields only at their registered sites.")
    example_bad = """
        class FaultInjector:
            def arm(self, net):
                net._pending_router_arrivals.append(evt)  # foreign writer
    """
    example_good = """
        class Network:
            def _deliver_arrivals(self, now):
                self._pending_router_arrivals = []   # registered site
    """

    def judge(self, project: ProjectContext, mut: FieldMutation,
              owner: str, classification: str) -> Optional[str]:
        if classification not in CONTAINED or mut.depth == "deep":
            return None
        tags = mut.site_tags()
        if classification == "queue":
            allowed = QUEUE_SITES.get((owner, mut.field))
            if allowed is not None and not (tags & allowed):
                return (f"queue field {owner}.{mut.field} mutated at "
                        f"unregistered site {_site_label(mut)} — "
                        f"registered sites: {', '.join(sorted(allowed))}")
            return None
        if mut.item.class_name == owner:
            return None
        if mut.item.class_name is not None and any(
                info.name == owner
                for info in project.mro(mut.item.class_name)):
            return None  # subclass methods own their base state
        allowed = CROSS_CLASS_SITES.get((owner, mut.field), frozenset())
        if tags & allowed:
            return None
        return (f"'{classification}' field {owner}.{mut.field} mutated "
                f"outside its owning class in {_site_label(mut)} with no "
                f"registered choke point")


@register
class ClockAdvance(_StateProofRule):
    """A field classified ``clock`` moves backwards or is re-assigned
    outside the registered fast-forward path.  Simulated time must be
    monotone for skipped and stepped runs to agree."""

    name = "state-clock-advance"
    code = "REPRO805"
    invariant = ("Fields classified 'clock' only advance (+=) — "
                 "re-assignment happens solely in the registered "
                 "fast-forward jump path.")
    example_bad = """
        class Network:
            def drain(self):
                self.cycle = 0   # clock rewound outside _fast_forward
    """
    example_good = """
        class Network:
            def step(self):
                self.cycle += 1
            def _fast_forward(self, target):
                self.cycle = target   # registered jump path
    """

    def judge(self, project: ProjectContext, mut: FieldMutation,
              owner: str, classification: str) -> Optional[str]:
        if classification != "clock":
            return None
        if mut.op == "augadd":
            return None
        if _in_init_path(mut, owner):
            return None
        jump = CLOCK_JUMP_PATHS.get((owner, mut.field), frozenset())
        if mut.op == "assign" and (mut.site_tags() & jump):
            return None
        return (f"clock field {owner}.{mut.field} mutated by {mut.op} in "
                f"{_site_label(mut)} — clocks only advance (+=) outside "
                f"the registered fast-forward path")
