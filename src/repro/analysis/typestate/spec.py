"""Declarative protocol state machines for the typestate tier.

A :class:`ProtocolSpec` is a finite state machine over the *lifecycle
events* of one kind of handle: constructor calls, method calls and
``with`` entry/exit.  The static typestate interpreter
(:mod:`repro.analysis.typestate.interp`) drives these machines over
abstract states per variable.

Built-in machines (:data:`PROTOCOLS`):

================  =========================================================
flight-recorder   :class:`~repro.obs.profile.FlightRecorder` attach/detach
bfs-workspace     :class:`~repro.bfs.workspace.BFSWorkspace`:
                  idle → (begin/traverse) active → (result bound) lent
                  → (detach) active
parallel-bfs      :class:`~repro.bfs.parallel.ParallelBFS`:
                  open → (close) closed
================  =========================================================

Each machine carries the lint rule that owns its misuse findings
(``owner_rule``).  Machines export to DOT via
:meth:`ProtocolSpec.to_dot` (``repro-bfs protocols --format dot``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import AnalysisError

__all__ = [
    "ProtocolSpec",
    "PROTOCOLS",
    "get_protocol",
    "protocol_for_ctor",
    "all_ctor_names",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol state machine.

    ``transitions`` is a tuple of ``(state, event, next_state)``
    triples; an event with no triple for the current state is a
    protocol violation.  ``method_events`` maps method *names* (as
    called on a handle) to event names; ``ctors`` are constructor leaf
    names that create a handle in the ``initial`` state.
    """

    name: str
    subject: str
    description: str
    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[tuple[str, str, str], ...]
    ctors: frozenset[str] = frozenset()
    classmethod_ctors: frozenset[str] = frozenset()
    method_events: tuple[tuple[str, str], ...] = ()
    enter_event: str | None = None
    exit_event: str | None = None
    #: Rule code that owns ordering/use-after-close findings.
    owner_rule: str | None = None
    _table: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        table: dict[tuple[str, str], str] = {}
        for state, event, nxt in self.transitions:
            if state not in self.states or nxt not in self.states:
                raise AnalysisError(
                    f"protocol {self.name}: transition "
                    f"({state!r}, {event!r}, {nxt!r}) names an "
                    "undeclared state"
                )
            table[(state, event)] = nxt
        if self.initial not in self.states:
            raise AnalysisError(
                f"protocol {self.name}: initial state {self.initial!r} "
                "is not declared"
            )
        object.__setattr__(self, "_table", table)

    # -- stepping ------------------------------------------------------------

    def step_set(
        self, states: frozenset[str], event: str
    ) -> tuple[frozenset[str], bool]:
        """Step a *set* of possible states (the abstract lattice).

        Returns ``(next_states, ok)`` where ``ok`` is False when the
        event is a violation from **every** current state — the
        must-fail condition the static rules report on.
        """
        nxt = {self._table[(s, event)]
               for s in states if (s, event) in self._table}
        if not nxt:
            return states, False
        return frozenset(nxt), True

    def allowed(self, state: str) -> tuple[str, ...]:
        """Events legal in ``state``, sorted (for messages)."""
        return tuple(sorted(
            ev for (s, ev) in self._table if s == state
        ))

    def event_for_method(self, method: str) -> str | None:
        """The event a call to ``handle.method(...)`` signifies."""
        for name, event in self.method_events:
            if name == method:
                return event
        return None

    def events(self) -> tuple[str, ...]:
        """Every event named by any transition, sorted."""
        return tuple(sorted({ev for (_s, ev) in self._table}))

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready description (``repro-bfs protocols --format
        json``)."""
        return {
            "name": self.name,
            "subject": self.subject,
            "description": self.description,
            "states": list(self.states),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": [list(t) for t in self.transitions],
            "events": list(self.events()),
            "owner_rule": self.owner_rule,
        }

    def to_dot(self) -> str:
        """GraphViz DOT rendering: accepting states are double
        circles, the initial state gets an entry arrow."""
        lines = [
            f'digraph "{self.name}" {{',
            "  rankdir=LR;",
            '  __start [shape=point, label=""];',
        ]
        for state in self.states:
            shape = (
                "doublecircle" if state in self.accepting else "circle"
            )
            lines.append(f'  "{state}" [shape={shape}];')
        lines.append(f'  __start -> "{self.initial}";')
        by_pair: dict[tuple[str, str], list[str]] = {}
        for state, event, nxt in self.transitions:
            by_pair.setdefault((state, nxt), []).append(event)
        for (state, nxt), events in by_pair.items():
            label = ", ".join(events)
            lines.append(f'  "{state}" -> "{nxt}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _self_loops(
    states: Iterator[str] | tuple[str, ...], events: tuple[str, ...]
) -> tuple[tuple[str, str, str], ...]:
    return tuple(
        (state, event, state) for state in states for event in events
    )


#: ``FlightRecorder``: attach/detach bracket; ``trigger()`` works in
#: any state (a manual snapshot needs no listener).
FLIGHT_RECORDER = ProtocolSpec(
    name="flight-recorder",
    subject="FlightRecorder",
    description=(
        "context entry attaches the ring to the tracer; exit detaches; "
        "trigger() dumps from any state"
    ),
    states=("created", "attached", "detached"),
    initial="created",
    accepting=frozenset({"created", "detached"}),
    transitions=(
        ("created", "enter", "attached"),
        ("attached", "exit", "detached"),
    ) + _self_loops(
        ("created", "attached", "detached"), ("trigger", "arm")
    ),
    ctors=frozenset({"FlightRecorder"}),
    method_events=(
        ("trigger", "trigger"),
        ("add_artifact_provider", "arm"),
    ),
    enter_event="enter",
    exit_event="exit",
    owner_rule="RPR023",
)

#: ``BFSWorkspace``: ``begin``/a traversal resets every map; a
#: :class:`~repro.bfs.result.BFSResult` built from the workspace
#: *aliases* its arrays (state ``lent``) until ``detach()``.  A new
#: traversal while a live result is lent silently corrupts it — the
#: stateful ordering RPR011's escape analysis cannot see.
BFS_WORKSPACE = ProtocolSpec(
    name="bfs-workspace",
    subject="BFSWorkspace",
    description=(
        "begin()/a traversal resets the maps; a bound result aliases "
        "the workspace (lent) until detach(); re-running while lent "
        "corrupts the live result"
    ),
    states=("idle", "active", "lent"),
    initial="idle",
    accepting=frozenset({"idle", "active", "lent"}),
    transitions=(
        ("idle", "begin", "active"),
        ("active", "begin", "active"),
        ("idle", "traverse", "active"),
        ("active", "traverse", "active"),
        ("idle", "detach", "idle"),
        ("active", "detach", "active"),
        ("lent", "detach", "active"),
    ),
    ctors=frozenset({"BFSWorkspace"}),
    classmethod_ctors=frozenset({"for_graph"}),
    method_events=(("begin", "begin"),),
    owner_rule="RPR024",
)

#: ``ParallelBFS``: ``run()`` needs an open engine; ``close()`` joins
#: the pool (idempotent).  Never-closed engines are RPR015's finding;
#: run-after-close is RPR023's.
PARALLEL_BFS = ProtocolSpec(
    name="parallel-bfs",
    subject="ParallelBFS",
    description=(
        "run() requires an open engine; close() joins the thread pool "
        "(idempotent); the context manager closes on exit"
    ),
    states=("open", "closed"),
    initial="open",
    accepting=frozenset({"closed"}),
    transitions=(
        ("open", "run", "open"),
        ("open", "close", "closed"),
        ("closed", "close", "closed"),
    ),
    ctors=frozenset({"ParallelBFS"}),
    method_events=(("run", "run"), ("close", "close")),
    exit_event="close",
    owner_rule="RPR023",
)

#: Every built-in machine, by name.
PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        FLIGHT_RECORDER,
        BFS_WORKSPACE,
        PARALLEL_BFS,
    )
}


def get_protocol(name: str) -> ProtocolSpec:
    """Look a machine up by name (raises
    :class:`~repro.errors.AnalysisError` on unknown names)."""
    spec = PROTOCOLS.get(name)
    if spec is None:
        raise AnalysisError(
            f"unknown protocol {name!r}; known: "
            + ", ".join(sorted(PROTOCOLS))
        )
    return spec


def protocol_for_ctor(leaf: str) -> ProtocolSpec | None:
    """The machine whose handles ``leaf(...)`` constructs, if any."""
    for spec in PROTOCOLS.values():
        if leaf in spec.ctors:
            return spec
    return None


def all_ctor_names() -> frozenset[str]:
    """Every constructor leaf name any machine tracks."""
    out: set[str] = set()
    for spec in PROTOCOLS.values():
        out |= spec.ctors
    return frozenset(out)
