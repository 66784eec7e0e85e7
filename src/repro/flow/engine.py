"""Topological flow execution with checkpoints and a run journal.

:func:`run_flow` executes a :class:`~repro.flow.dag.FlowDag` in
deterministic waves: every node whose dependencies have settled is
*restored* from its content-addressed checkpoint when one verifies, and
otherwise executed.  A wave's non-local nodes go to the caller's
``dispatch`` callable in one batch, so the caller decides how work is
grouped and supervised (the sweep executor ships each compile group's
cells as one task through :mod:`repro.engine.resilience`).  Aggregation
nodes (``FlowRunner.local``) run inline in the parent, after their
inputs settle.

A run with a state ``root`` is *journaled*; per completed node, in
order:

1. the checkpoint is written to the state store (atomic, fsynced);
2. ``node_done`` is appended to the run journal (fsynced);
3. a matching ``kill`` fault (if any) fires — SIGKILL, no unwinding.

A crash between (1) and (2) loses only the journal line; the
checkpoint still restores on resume.  A ``torn-write`` fault truncates
the checkpoint *after* (1), modelling a crash mid-write: the journal
then over-claims, and resume's validation drops the torn entry and
recomputes the node.  Either way a resumed run's values are
bit-identical to an uninterrupted run's.  Without a root, node values
live only in memory: nothing is restored and nothing is written.

Node completion **ordinals** (1-based, executed nodes only, in wave
order) are the deterministic sites ``kill@N`` / ``torn-write@N`` fault
specs address; restored nodes never fire faults, so a resumed run
cannot re-kill itself at the boundary that killed its predecessor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..engine.faults import NO_FAULTS, FaultPlan
from .dag import FlowDag, FlowError, FlowNode
from .state import (
    JOURNAL_VERSION,
    FlowStateStore,
    Journal,
    journal_path,
    new_run_id,
    state_dir,
)

#: Terminal node statuses a run assigns.
NODE_STATUSES = ("executed", "restored", "failed", "skipped")


@dataclass(frozen=True, slots=True)
class FlowRunner:
    """How one node *kind* executes.

    ``func(name, payload, deps) -> value`` does the work of one node
    (``None`` for kinds only the run's ``dispatch`` executes).
    ``validate(value) -> str | None`` guards both fresh results and
    restored checkpoints — a message fails/recomputes the node.
    ``local`` runs the node inline in the parent after its wave's
    dispatched nodes (aggregates over sibling values).
    """

    kind: str
    func: Callable[[str, Any, dict], Any] | None = None
    validate: Callable[[Any], str | None] | None = None
    local: bool = False


@dataclass(slots=True)
class FlowResult:
    """Everything one flow run produced."""

    run_id: str
    dag_signature: str
    values: dict[str, Any] = field(default_factory=dict)
    statuses: dict[str, str] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    journal_path: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        text = (
            f"flow {self.run_id}: {len(self.executed)} executed / "
            f"{len(self.restored)} restored"
        )
        if self.failed:
            text += f" / {len(self.failed)} FAILED"
        return text + f" of {len(self.statuses)} nodes"


def flow_event(fr: FlowResult) -> dict:
    """The ``flow`` recorder-event payload for one flow result."""
    return {
        "run_id": fr.run_id,
        "dag_signature": fr.dag_signature,
        "nodes": len(fr.statuses),
        "executed": len(fr.executed),
        "restored": len(fr.restored),
        "failed": len(fr.failed),
        "seconds": fr.seconds,
    }


class _Ephemeral:
    """State store and journal of an unjournaled run: holds nothing."""

    def load(self, signature: str) -> None:
        return None

    def store(self, signature: str, node: str, kind: str,
              value: object) -> str:
        return ""

    def reject(self, signature: str) -> None:
        pass

    def append(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


def _run_inline(runner: FlowRunner, node: FlowNode,
                deps: dict) -> tuple[Any, str | None]:
    try:
        return runner.func(node.name, node.payload, deps), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_flow(
    dag: FlowDag,
    runners: dict[str, FlowRunner],
    *,
    root: str | None = None,
    flow_kind: str = "custom",
    flow_spec: dict | None = None,
    run_id: str | None = None,
    dispatch: Callable[[list[FlowNode]], list[tuple]] | None = None,
    faults: FaultPlan | None = None,
    kill_action=None,
) -> FlowResult:
    """Execute ``dag``, journaling to ``<root>/flow/runs/<run_id>``.

    Passing an existing ``run_id`` *is* resuming: completed nodes whose
    checkpoints verify against the current signatures are restored, and
    only the rest execute.  A fresh run against a warm state store gets
    the same treatment — that is the incremental-recompute path (edit
    one benchmark, re-run, only its downstream slice executes).  With
    ``root=None`` the run is unjournaled: every node executes and
    nothing touches the disk.

    ``dispatch(nodes)`` executes each wave's non-local ready nodes and
    returns one ``(value, error message or None)`` pair per node, in
    order; without it they run inline through their runner's ``func``.
    ``kill_action(node, ordinal)`` replaces the genuine SIGKILL for
    in-process tests.
    """
    dag.validate()
    for node in dag.nodes.values():
        if node.kind not in runners:
            raise FlowError(
                f"no runner registered for node kind {node.kind!r} "
                f"(node {node.name!r})"
            )
    fault_plan = faults if faults is not None else NO_FAULTS
    sigs = dag.signatures()
    start = time.perf_counter()
    result = FlowResult(run_id=run_id or "",
                        dag_signature=dag.dag_signature())
    if root:
        result.run_id = run_id or new_run_id()
        result.journal_path = journal_path(root, result.run_id)
        resuming = os.path.exists(result.journal_path)
        store = FlowStateStore(state_dir(root))
        journal = Journal(result.journal_path)
    else:
        resuming = False
        store = journal = _Ephemeral()
    try:
        if not resuming:
            journal.append({
                "event": "flow_start",
                "version": JOURNAL_VERSION,
                "run_id": result.run_id,
                "flow": {"kind": flow_kind, "spec": flow_spec},
                "dag_signature": result.dag_signature,
                "nodes": len(dag),
            })
        else:
            journal.append({
                "event": "flow_resume",
                "run_id": result.run_id,
                "dag_signature": result.dag_signature,
            })
        _run_nodes(dag, runners, sigs, store, journal, result,
                   dispatch=dispatch, faults=fault_plan,
                   kill_action=kill_action)
        journal.append({
            "event": "flow_end",
            "run_id": result.run_id,
            "executed": len(result.executed),
            "restored": len(result.restored),
            "failed": len(result.failed),
        })
    finally:
        journal.close()
    result.seconds = time.perf_counter() - start
    return result


def _run_nodes(dag, runners, sigs, store, journal, result, *,
               dispatch, faults, kill_action) -> None:
    """The wave loop: restore, dispatch, commit, repeat."""
    order = dag.topological_order()
    ordinal = 0  # executed-node completion count (the fault site index)

    def record(name: str, status: str, error: str | None = None) -> None:
        event = {"event": "node_done", "node": name,
                 "signature": sigs[name], "status": status}
        if error is not None:
            event["error"] = error
        journal.append(event)

    def commit(name: str, value) -> None:
        """Checkpoint -> journal -> (maybe) kill, in that order."""
        nonlocal ordinal
        node = dag.nodes[name]
        path = store.store(sigs[name], name, node.kind, value)
        ordinal += 1
        if faults:
            faults.maybe_tear_checkpoint(path, name, ordinal)
        record(name, "executed")
        result.values[name] = value
        result.statuses[name] = "executed"
        result.executed.append(name)
        if faults:
            faults.fire_kill(name, ordinal, kill_action=kill_action)

    def fail(name: str, message: str, status: str = "failed") -> None:
        result.statuses[name] = status
        result.failed[name] = message
        record(name, status, error=message)

    def settle(name: str, value, error: str | None) -> None:
        if error is None:
            validate = runners[dag.nodes[name].kind].validate
            error = validate(value) if validate is not None else None
        if error is not None:
            fail(name, error)
        else:
            commit(name, value)

    def deps_for(node) -> dict:
        return {d: result.values.get(d) for d in node.deps}

    while len(result.statuses) < len(dag):
        settled_before = len(result.statuses)
        ready: list[str] = []
        for name in order:
            if name in result.statuses:
                continue
            node = dag.nodes[name]
            if any(d not in result.statuses for d in node.deps):
                continue
            bad = [d for d in node.deps
                   if result.statuses[d] in ("failed", "skipped")]
            if bad:
                fail(name, f"dependency {bad[0]} "
                           f"{result.statuses[bad[0]]}",
                     status="skipped")
                continue
            ready.append(name)

        # Restoration pass: a verifying checkpoint short-circuits work.
        to_run: list[FlowNode] = []
        for name in ready:
            node = dag.nodes[name]
            validate = runners[node.kind].validate
            payload = store.load(sigs[name])
            if payload is not None:
                value = payload["value"]
                if validate is None or validate(value) is None:
                    result.values[name] = value
                    result.statuses[name] = "restored"
                    result.restored.append(name)
                    record(name, "restored")
                    continue
                store.reject(sigs[name])
            to_run.append(node)

        batch = [n for n in to_run if not runners[n.kind].local]
        if batch:
            if dispatch is not None:
                outcomes = dispatch(batch)
            else:
                outcomes = [_run_inline(runners[n.kind], n, deps_for(n))
                            for n in batch]
            # Commit in wave order regardless of completion order, so
            # checkpoint/journal/kill ordinals stay deterministic.
            for node, (value, error) in zip(batch, outcomes):
                settle(node.name, value, error)
        for node in to_run:
            if runners[node.kind].local:
                settle(node.name,
                       *_run_inline(runners[node.kind], node,
                                    deps_for(node)))

        if len(result.statuses) == settled_before:
            # Defensive: validate() precludes cycles, so this means a
            # runner mutated the dag mid-run.
            stuck = [n for n in order if n not in result.statuses]
            raise FlowError(f"flow stalled with nodes {stuck!r} unsettled")


def journal_completed(events: list[dict]) -> dict[str, str]:
    """``node signature -> status`` for every journaled completion.

    The *last* entry per node wins (a resume may re-journal a node it
    recomputed after a torn checkpoint).
    """
    done: dict[str, str] = {}
    for event in events:
        if event.get("event") != "node_done":
            continue
        sig = event.get("signature")
        if isinstance(sig, str):
            done[sig] = str(event.get("status", "?"))
    return done
