"""Typestate & protocol verification tier.

A declarative registry of protocol state machines
(:class:`~repro.analysis.typestate.spec.ProtocolSpec`) for the repo's
stateful contracts — the ``FlightRecorder``, ``BFSWorkspace`` and
``ParallelBFS`` lifecycles — plus an abstract interpreter
(:mod:`~repro.analysis.typestate.interp`) that checks every function
against those machines along the project call graph.  Registers lint
rules RPR023 and RPR024.
"""

from __future__ import annotations

from repro.analysis.typestate.interp import (
    TYPESTATE_RULES,
    TypestateAnalysis,
    typestate_report,
)
from repro.analysis.typestate.spec import (
    BFS_WORKSPACE,
    FLIGHT_RECORDER,
    PARALLEL_BFS,
    PROTOCOLS,
    ProtocolSpec,
    all_ctor_names,
    get_protocol,
    protocol_for_ctor,
)

__all__ = [
    "BFS_WORKSPACE",
    "FLIGHT_RECORDER",
    "PARALLEL_BFS",
    "PROTOCOLS",
    "ProtocolSpec",
    "TYPESTATE_RULES",
    "TypestateAnalysis",
    "all_ctor_names",
    "get_protocol",
    "protocol_for_ctor",
    "typestate_report",
]
