"""Schedule validation shared by every scheduler backend.

:func:`check_schedule` is the contract each backend's output must meet
before it replaces a block's instruction order:

* **all ops placed** — the emitted order is a permutation of the
  block's instruction positions;
* **deps respected** — every dependence edge of the block's DAG goes
  forward in the order, and under the in-order issue model no
  instruction issues before its operands are ready;
* **resources never oversubscribed** — per cycle, at most
  ``issue_width`` instructions issue, and no functional-unit copy is
  asked to accept a new instruction before its issue latency expires.

:func:`issue_times` / :func:`evaluate_order` expose the underlying
in-order issue model (the same semantics as the list scheduler and
:meth:`repro.sim.replay.ReplayCore`'s block replay, restricted to one
block starting from an idle machine): the exact backend scores
candidate orders with it, and the gap tooling uses it to compare
backends block-locally.
"""

from __future__ import annotations

from ..errors import SchedulingError
from ..isa.instruction import Instruction
from ..machine.config import MachineConfig
from .dag import DepDAG


def unit_table(config: MachineConfig) -> dict:
    """``klass -> (free-times list, issue latency)``, fresh state; the
    classes of one unit share its free-times list."""
    free = {id(u): [0] * u.multiplicity for u in config.units}
    return {klass: (free[id(u)], u.issue_latency)
            for klass, u in config.class_units().items()}


def issue_times(
    instrs: list[Instruction],
    order: list[int],
    dag: DepDAG,
    config: MachineConfig,
) -> list[int]:
    """Issue cycle of every instruction when ``order`` is issued
    in-order on an idle ``config`` (indexed by original position).

    Mirrors the replay core's issue rules: an instruction issues at the
    earliest cycle that satisfies its dependence-ready times, the
    ``issue_width`` slots of the current cycle, and a free functional
    unit copy of its class; issue cycles are non-decreasing along the
    order (in-order issue).
    """
    n = len(instrs)
    width = config.issue_width
    unit_of = unit_table(config)
    ready = [0] * n
    times = [0] * n
    cur_cycle = 0
    cur_count = 0
    for idx in order:
        t = max(cur_cycle, ready[idx])
        unit = unit_of.get(instrs[idx].op.klass)
        if unit is None:
            if t == cur_cycle and cur_count >= width:
                t += 1
        else:
            free, issue_lat = unit
            while True:
                if t == cur_cycle and cur_count >= width:
                    t += 1
                k = min(range(len(free)), key=free.__getitem__)
                if free[k] > t:
                    t = free[k]
                    continue  # re-check the issue-width constraint
                free[k] = t + issue_lat
                break
        if t > cur_cycle:
            cur_cycle = t
            cur_count = 1
        else:
            cur_count += 1
        times[idx] = t
        for s, lat in dag.succs[idx].items():
            r = t + lat if lat > 0 else t
            if r > ready[s]:
                ready[s] = r
    return times


def evaluate_order(
    instrs: list[Instruction],
    order: list[int],
    dag: DepDAG,
    config: MachineConfig,
) -> int:
    """Completion horizon (last finish cycle) of ``order`` on an idle
    ``config`` — the block-local makespan backends compete on."""
    times = issue_times(instrs, order, dag, config)
    horizon = 0
    for i, t in enumerate(times):
        finish = t + config.latencies[instrs[i].op.klass]
        if finish > horizon:
            horizon = finish
    return horizon


def check_schedule(
    instrs: list[Instruction],
    order: list[int],
    dag: DepDAG,
    config: MachineConfig,
    backend: str = "?",
) -> None:
    """Raise :class:`SchedulingError` unless ``order`` is a complete,
    dependence-respecting, resource-feasible schedule of ``instrs``."""
    n = len(instrs)
    if sorted(order) != list(range(n)):
        raise SchedulingError(
            f"scheduler {backend!r} did not emit a permutation: "
            f"{len(order)}/{n} positions"
        )
    position = {node: k for k, node in enumerate(order)}
    for i in range(dag.n):
        for s in dag.succs[i]:
            if position[i] >= position[s]:
                raise SchedulingError(
                    f"scheduler {backend!r} violated a dependence: "
                    f"{i} must precede {s}"
                )
    times = issue_times(instrs, order, dag, config)
    # Independent re-check of the model's own invariants: operand
    # readiness, per-cycle slot usage, per-unit-copy occupancy.
    ready = [0] * n
    for idx in order:
        if times[idx] < ready[idx]:
            raise SchedulingError(
                f"scheduler {backend!r} issued {idx} at cycle "
                f"{times[idx]} before its operands are ready "
                f"(cycle {ready[idx]})"
            )
        for s, lat in dag.succs[idx].items():
            r = times[idx] + lat if lat > 0 else times[idx]
            if r > ready[s]:
                ready[s] = r
    per_cycle: dict[int, int] = {}
    for idx in order:
        per_cycle[times[idx]] = per_cycle.get(times[idx], 0) + 1
    for cycle, count in per_cycle.items():
        if count > config.issue_width:
            raise SchedulingError(
                f"scheduler {backend!r} oversubscribed cycle {cycle}: "
                f"{count} issues > width {config.issue_width}"
            )
    if config.units:
        unit_of_klass = config.class_units()
        for u in config.units:
            issues = sorted(
                times[i] for i in range(n)
                if unit_of_klass.get(instrs[i].op.klass) is u
            )
            busy = [0] * u.multiplicity
            for t in issues:
                k = min(range(len(busy)), key=busy.__getitem__)
                if busy[k] > t:
                    raise SchedulingError(
                        f"scheduler {backend!r} oversubscribed unit "
                        f"{'/'.join(c.name for c in u.classes)} at "
                        f"cycle {t}"
                    )
                busy[k] = t + u.issue_latency
