"""The ``"swp"`` backend: modulo scheduling for straight-line loop bodies.

Iterative modulo scheduling (Rau) adapted to the repro's constraint that
a scheduler may only *permute* a basic block: loop-body blocks (a
single-block natural loop — exactly the blocks the replay engine's
block plans replay back to back) are assigned modulo-reservation slots
at the smallest feasible initiation interval II ≥ MII, then emitted in
slot order.  Spreading each iteration's unit and issue-slot pressure
evenly over the II lets consecutive iterations overlap in the in-order
pipeline — the classic software-pipelining effect — where the list
scheduler's greedy front-loading piles conflicts at the loop head.
Non-loop blocks fall back to the ``"list"`` backend unchanged, and a
loop body keeps its list schedule whenever that one is no worse under
the shared issue model (:mod:`repro.sched.validate`).
"""

from __future__ import annotations

from ..isa.program import BasicBlock, Function, natural_loops
from ..isa.registers import Reg
from ..machine.config import MachineConfig
from ..opt.options import AliasLevel
from .dag import DepDAG, build_dag
from .listsched import _list_schedule, _priorities
from .registry import SchedulerBackend, register
from .validate import check_schedule, evaluate_order


def _res_mii(block: BasicBlock, config: MachineConfig) -> int:
    """Resource-constrained minimum initiation interval.

    The issue width bounds how many instructions fit per cycle; each
    functional unit bounds its classes by ``uses * issue_latency``
    spread over ``multiplicity`` copies.
    """
    n = len(block.instrs)
    mii = max(1, -(-n // config.issue_width))
    if config.units:
        unit_of = config.class_units()
        uses: dict[int, int] = {}
        for ins in block.instrs:
            u = unit_of.get(ins.op.klass)
            if u is not None:
                uses[id(u)] = uses.get(id(u), 0) + 1
        by_id = {id(u): u for u in config.units}
        for uid, count in uses.items():
            u = by_id[uid]
            need = -(-(count * u.issue_latency) // u.multiplicity)
            if need > mii:
                mii = need
    return mii


def _modulo_order(
    block: BasicBlock, dag: DepDAG, config: MachineConfig
) -> list[int] | None:
    """Slot-assign the block at the smallest feasible II; returns the
    emission order (by slot, then original position), or ``None`` when
    no II up to the unconstrained makespan works."""
    n = dag.n
    prio = _priorities(block, dag, config)
    # Place nodes in dependence-topological order, critical path first
    # among ready peers — the classic IMS priority.
    indeg = [len(p) for p in dag.preds]
    sched_order: list[int] = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        ready.sort(key=lambda i: (-prio[i], i))
        i = ready.pop(0)
        sched_order.append(i)
        for s in dag.succs[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(sched_order) != n:
        return None

    unit_of_klass = config.class_units()

    ii = _res_mii(block, config)
    # A makespan-length II degenerates to plain list scheduling; don't
    # search past it.
    ii_cap = max(ii, n * 4)
    while ii <= ii_cap:
        slot = [-1] * n
        issue_used = [0] * ii          # issue slots taken, per modulo slot
        unit_used: dict[tuple, int] = {}  # (unit id, modulo slot) -> uses
        feasible = True
        for i in sched_order:
            earliest = 0
            for p, lat in dag.preds[i].items():
                e = slot[p] + (lat if lat > 0 else 0)
                if e > earliest:
                    earliest = e
            placed = False
            for t in range(earliest, earliest + ii):
                m = t % ii
                if issue_used[m] >= config.issue_width:
                    continue
                u = unit_of_klass.get(block.instrs[i].op.klass)
                if u is not None:
                    budget = u.multiplicity * max(1, u.issue_latency)
                    used = unit_used.get((id(u), m), 0)
                    if used * max(1, u.issue_latency) >= budget:
                        continue
                    unit_used[(id(u), m)] = used + 1
                issue_used[m] += 1
                slot[i] = t
                placed = True
                break
            if not placed:
                feasible = False
                break
        if feasible:
            return sorted(range(n), key=lambda i: (slot[i], i))
        ii += 1
    return None


class SwpScheduler(SchedulerBackend):
    """Modulo scheduling for loop bodies; list scheduling elsewhere."""

    name = "swp"
    description = ("software pipelining (modulo scheduling) for "
                   "straight-line loop bodies; list elsewhere")

    def __init__(self) -> None:
        self._loop_blocks: set[str] = set()

    def prepare_function(self, fn: Function) -> None:
        # A straight-line loop body is a single-block natural loop:
        # header == tail, the backedge its own terminator — the same
        # shape the replay engine's block plans replay back to back.
        self._loop_blocks = {
            header for header, body in natural_loops(fn)
            if len(body) == 1
        }

    def schedule_block(
        self,
        block: BasicBlock,
        config: MachineConfig,
        alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
        home_bindings: dict[str, Reg] | None = None,
        heuristic: str = "critical-path",
    ) -> None:
        dag = build_dag(block, config, alias_level, home_bindings)
        list_order = _list_schedule(block, dag, config, heuristic)
        order = list_order
        if block.label in self._loop_blocks:
            pipelined = _modulo_order(block, dag, config)
            if pipelined is not None:
                # Adopt the modulo order whenever it is no worse
                # block-locally: its payoff (evenly spread resource
                # pressure) shows up across back-to-back iterations,
                # which the one-block model cannot see.
                a = evaluate_order(block.instrs, pipelined, dag, config)
                b = evaluate_order(block.instrs, list_order, dag, config)
                if a <= b:
                    order = pipelined
        check_schedule(block.instrs, order, dag, config,
                       backend=self.name)
        block.instrs = [block.instrs[i] for i in order]


register(SwpScheduler())
