"""Declarative, crash-resumable workflow DAGs (``repro.flow``).

The flow layer is the engine under the sweep executor:
:func:`repro.engine.executor.execute` builds every plan into a DAG of
content-fingerprinted nodes (:mod:`~repro.flow.dag`) and runs it in
waves through :func:`~repro.flow.engine.run_flow`.  A *journaled* run — ``suite
--flow``, ``--run-id``, ``repro resume`` — also persists every
completed node to a content-addressed state store alongside an
append-only, fsynced run journal (:mod:`~repro.flow.state`); every
other run keeps node values in memory and writes nothing.

Kill a journaled run at *any* node boundary — ``kill -9``, a ``kill@N``
fault spec, a power cut — and ``repro resume <run-id>`` replays the
journal, verifies the surviving checkpoints, re-executes only the
nodes that never completed (or whose checkpoints were torn mid-write),
and produces output bit-identical to an uninterrupted run.  The same
machinery gives incremental recomputation for free: change one
benchmark's source or one machine preset and only the downstream DAG
slice re-runs.
"""

from .dag import FlowDag, FlowError, FlowNode
from .engine import (
    NODE_STATUSES,
    FlowResult,
    FlowRunner,
    flow_event,
    journal_completed,
    run_flow,
)
from .state import (
    JOURNAL_VERSION,
    STATE_FORMAT,
    FlowStateStore,
    Journal,
    JournalError,
    flow_root,
    journal_path,
    new_run_id,
    read_journal,
    runs_dir,
    state_dir,
)

__all__ = [
    "FlowDag",
    "FlowError",
    "FlowNode",
    "FlowResult",
    "FlowRunner",
    "FlowStateStore",
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "NODE_STATUSES",
    "STATE_FORMAT",
    "flow_event",
    "flow_root",
    "journal_completed",
    "journal_path",
    "new_run_id",
    "read_journal",
    "run_flow",
    "runs_dir",
    "state_dir",
]
