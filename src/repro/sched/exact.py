"""The ``"exact"`` scheduler backend: optimal block schedules by search.

Branch-and-bound over in-order issue sequences of one basic block's
dependence DAG — pure stdlib, in the spirit of SMT/CP optimal schedulers
(Roorda) and search-based superoptimization (Minotaur), scaled to the
paper's machine model.  The machine issues in order, so the only
artifact the compiler controls is the instruction *sequence*; the search
therefore enumerates topological orders of the DAG, scoring each with
the shared in-order issue model (:func:`repro.sched.validate`), and
keeps the order with the smallest completion horizon.  The list
scheduler's order seeds the incumbent, so the result is never worse
than the ``"list"`` backend on any block — this is what makes the
``repro gap`` report (cycles(list) − cycles(exact)) a true
heuristic-vs-optimal gap wherever the search completes.

Pruning: a critical-path + issue-bandwidth lower bound per partial
sequence, plus Pareto dominance over identical scheduled-sets (a state
whose clock, slot usage, unit occupancy, and dependence frontier are
all at least as late as a previously seen state cannot beat it).

The search is budgeted per block.  ``max_nodes`` (deterministic — the
same input always explores the same tree) is the primary limit;
``max_seconds`` is off by default precisely because a wall-clock cutoff
would make schedules — and therefore trace-cache contents keyed on
``CompilerOptions.fingerprint()`` — machine-dependent.  On exhaustion a
typed :class:`~repro.errors.ScheduleBudgetError` is raised internally
and the backend falls back to the best order found so far (at worst the
list order), so ``"exact"`` is safe inside the engine's resilience
ladder.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from ..errors import ScheduleBudgetError
from ..isa.program import BasicBlock
from ..isa.registers import Reg
from ..machine.config import MachineConfig
from ..opt.options import AliasLevel
from .dag import DepDAG, build_dag
from .listsched import _list_schedule, _priorities
from .registry import SchedulerBackend, register
from .validate import check_schedule, evaluate_order


@dataclass(frozen=True, slots=True)
class ScheduleBudget:
    """Per-block search limits for the exact backend.

    ``max_nodes`` bounds branch-and-bound expansions (deterministic);
    ``max_block`` skips the search outright for blocks with more
    instructions (straight to the list fallback); ``max_seconds`` is an
    optional wall-clock cutoff — leave it ``None`` for reproducible
    schedules (see the module docstring).
    """

    max_nodes: int = 20_000
    max_block: int = 64
    max_seconds: float | None = None


DEFAULT_BUDGET = ScheduleBudget()


class _Search:
    """One branch-and-bound run over a block's dependence DAG."""

    def __init__(self, block: BasicBlock, dag: DepDAG,
                 config: MachineConfig, budget: ScheduleBudget) -> None:
        self.block = block
        self.dag = dag
        self.config = config
        self.budget = budget
        self.n = dag.n
        self.nodes = 0
        self.deadline = (
            _time.perf_counter() + budget.max_seconds
            if budget.max_seconds is not None else None
        )
        instrs = block.instrs
        self.latency = [config.latencies[i.op.klass] for i in instrs]
        # Candidate ordering reuses the list scheduler's heuristic
        # height so good orders are tried first...
        self.rank = _priorities(block, dag, config)
        # ...but the *bound* needs an admissible tail: the height
        # heuristic pads zero-latency edges to one cycle and counts a
        # node's latency on top of its outgoing edge latency, so using
        # it as a lower bound over-prunes (misses true optima).
        # tail[i] = provable minimum from issuing i to block completion:
        # i's own result latency, or any successor chain at exact edge
        # delays (0-latency edges may issue the same cycle).
        self.tail = [0] * self.n
        for i in reversed(dag.topological_order()):
            best = self.latency[i]
            for s, edge_lat in dag.succs[i].items():
                cand = (edge_lat if edge_lat > 0 else 0) + self.tail[s]
                if cand > best:
                    best = cand
            self.tail[i] = best
        # klass -> index into the per-state unit-occupancy vector.
        self.unit_shapes: list[tuple[int, int]] = []  # (multiplicity, lat)
        slot_of: dict[int, int] = {}
        for u in config.units:
            if id(u) not in slot_of:
                slot_of[id(u)] = len(self.unit_shapes)
                self.unit_shapes.append((u.multiplicity, u.issue_latency))
        self.unit_slot: dict = {
            klass: slot_of[id(u)]
            for klass, u in config.class_units().items()
        }
        self.klass_unit = [
            self.unit_slot.get(i.op.klass) for i in instrs
        ]
        self.best_order: list[int] | None = None
        self.best_score: int | None = None
        # Pareto states per scheduled-set: list of comparable vectors.
        # Both caps bound memory, not correctness — a state that can't
        # be stored is explored rather than wrongly pruned.
        self.seen: dict[int, list[tuple]] = {}
        self.seen_states = 0
        self.max_bucket = 12
        self.max_states = 50_000

    # -- state vector: everything the remaining schedule depends on
    def _state_vec(self, cur_cycle, cur_count, units, ready, mask):
        frontier = tuple(
            ready[i] for i in range(self.n) if not mask >> i & 1
        )
        flat = tuple(t for copies in units for t in copies)
        return (cur_cycle, cur_count, flat, frontier)

    @staticmethod
    def _dominates(a: tuple, b: tuple) -> bool:
        """Is state ``a`` at least as good as ``b`` component-wise?

        Every component is a "not later than" quantity except
        ``cur_count`` (slots already used in the current cycle), which
        only matters when the cycles are equal.
        """
        if a[0] > b[0]:
            return False
        if a[0] == b[0] and a[1] > b[1]:
            return False
        if any(x > y for x, y in zip(a[2], b[2])):
            return False
        if any(x > y for x, y in zip(a[3], b[3])):
            return False
        return True

    def _charge_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise ScheduleBudgetError(
                self.block.label, self.nodes, "nodes")
        if self.deadline is not None and not self.nodes % 256 \
                and _time.perf_counter() > self.deadline:
            raise ScheduleBudgetError(
                self.block.label, self.nodes, "seconds")

    def run(self, incumbent: list[int]) -> list[int]:
        """Search; returns the best complete order found.

        ``incumbent`` (the list order) seeds the bound; the search only
        replaces it with strictly better orders, so ties keep the
        heuristic's choice.
        """
        self.best_order = list(incumbent)
        self.best_score = evaluate_order(
            self.block.instrs, incumbent, self.dag, self.config)
        preds, succs = self.dag.preds, self.dag.succs
        n = self.n
        indeg = [len(p) for p in preds]
        ready_time = [0] * n
        units = [[0] * mult for mult, _lat in self.unit_shapes]
        order: list[int] = []

        def dfs(mask: int, cur_cycle: int, cur_count: int,
                horizon: int) -> None:
            self._charge_node()
            if len(order) == n:
                if horizon < self.best_score:
                    self.best_score = horizon
                    self.best_order = list(order)
                return
            # Lower bound: the dependence frontier's critical paths and
            # the remaining issue bandwidth can't beat the incumbent.
            remaining = n - len(order)
            lb = cur_cycle + (remaining - 1) // self.config.issue_width
            if horizon > lb:
                lb = horizon
            for i in range(n):
                if mask >> i & 1:
                    continue
                cand = ready_time[i] + self.tail[i]
                if cand > lb:
                    lb = cand
            if lb >= self.best_score:
                return
            vec = self._state_vec(cur_cycle, cur_count, units,
                                  ready_time, mask)
            bucket = self.seen.setdefault(mask, [])
            for prev in bucket:
                if self._dominates(prev, vec):
                    return
            if (len(bucket) < self.max_bucket
                    and self.seen_states < self.max_states):
                survivors = [p for p in bucket
                             if not self._dominates(vec, p)]
                self.seen_states -= len(bucket) - len(survivors) - 1
                survivors.append(vec)
                bucket[:] = survivors

            # Expand ready nodes, best heuristic rank first so good
            # incumbents tighten the bound early.
            cands = sorted(
                (i for i in range(n)
                 if not mask >> i & 1 and indeg[i] == 0),
                key=lambda i: (-self.rank[i], i),
            )
            for i in cands:
                t = ready_time[i]
                if t < cur_cycle:
                    t = cur_cycle
                u = self.klass_unit[i]
                saved_unit = None
                if u is None:
                    if t == cur_cycle and cur_count >= \
                            self.config.issue_width:
                        t += 1
                else:
                    free = units[u]
                    issue_lat = self.unit_shapes[u][1]
                    while True:
                        if t == cur_cycle and cur_count >= \
                                self.config.issue_width:
                            t += 1
                        k = min(range(len(free)),
                                key=free.__getitem__)
                        if free[k] > t:
                            t = free[k]
                            continue
                        saved_unit = (u, k, free[k])
                        free[k] = t + issue_lat
                        break
                nxt_cycle, nxt_count = (
                    (t, cur_count + 1) if t == cur_cycle else (t, 1))
                finish = t + self.latency[i]
                saved_ready: list[tuple[int, int]] = []
                for s, lat in succs[i].items():
                    r = t + lat if lat > 0 else t
                    if r > ready_time[s]:
                        saved_ready.append((s, ready_time[s]))
                        ready_time[s] = r
                    indeg[s] -= 1
                order.append(i)
                dfs(mask | (1 << i), nxt_cycle, nxt_count,
                    max(horizon, finish))
                order.pop()
                for s, _lat in succs[i].items():
                    indeg[s] += 1
                for s, r in saved_ready:
                    ready_time[s] = r
                if saved_unit is not None:
                    uu, k, old = saved_unit
                    units[uu][k] = old

        dfs(0, 0, 0, 0)
        assert self.best_order is not None
        return self.best_order


class ExactScheduler(SchedulerBackend):
    """Provably minimal block-local schedules, within a search budget."""

    name = "exact"
    description = ("bounded branch-and-bound optimal block scheduling "
                   "(never worse than \"list\")")

    def __init__(self, budget: ScheduleBudget | None = None) -> None:
        self.budget = budget or DEFAULT_BUDGET
        #: blocks whose search tripped the budget (fell back), since
        #: the backend was constructed — cheap observability for tests
        #: and the gap tooling.
        self.fallbacks = 0

    def schedule_block(
        self,
        block: BasicBlock,
        config: MachineConfig,
        alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
        home_bindings: dict[str, Reg] | None = None,
        heuristic: str = "critical-path",
    ) -> None:
        dag = build_dag(block, config, alias_level, home_bindings)
        incumbent = _list_schedule(block, dag, config, heuristic)
        if dag.n > self.budget.max_block:
            self.fallbacks += 1
            order = incumbent
        else:
            search = _Search(block, dag, config, self.budget)
            try:
                order = search.run(incumbent)
            except ScheduleBudgetError:
                self.fallbacks += 1
                order = search.best_order or incumbent
        check_schedule(block.instrs, order, dag, config,
                       backend=self.name)
        block.instrs = [block.instrs[i] for i in order]


register(ExactScheduler())
