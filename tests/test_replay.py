"""Tests for the block-memoized replay core (:mod:`repro.sim.replay`).

The central guarantee: memoized replay is *bit-identical* to forced
direct per-instruction replay — minor cycles, parallelism, full stall
breakdowns, and per-event issue schedules — on every machine shape
(ideal wide issue, superpipelined, branch-stall, functional-unit
conflicts).  Hypothesis drives that over random Tin programs; the rest
of the file pins the plan builder's invariants, the memo statistics
conservation law, and the blacklist fall-back.  Golden stall digests,
recorded before the flat-accumulator rewrite, check observed replay
against figures the current code did not produce, and a guard pins that
observed replay never charges stalls one ``StallBreakdown.charge`` call
at a time.  The scheduler's block-local issue model
(:func:`repro.sched.validate.issue_times`) is checked against the replay
core on random straight-line blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks import suite
from repro.isa import BasicBlock, InstrClass, Opcode, build
from repro.isa.registers import virtual
from repro.machine import MachineConfig
from repro.machine.config import unit
from repro.machine.presets import (
    ideal_superscalar,
    paper_machines,
    resolve,
    superscalar_with_class_conflicts,
)
from repro.obs.stalls import StallBreakdown
from repro.opt.driver import compile_source
from repro.sched.dag import build_dag
from repro.sched.validate import issue_times
from repro.sim import replay as replay_mod
from repro.sim.interp import run as interp_run
from repro.sim.replay import ReplayCore, build_plan, plan_for
from repro.sim.timing import issue_schedule, simulate
from repro.sim.trace import Trace
from scripts.gen_golden_stalls import OUTPUT as GOLDEN_STALLS
from scripts.gen_golden_stalls import stalls_digest
from tests.test_fuzz_differential import _block, _program


def _edge_machines():
    """Machine shapes that stress every key component: the paper's
    seven, a branch-stall variant, and a unit-conflict variant."""
    machines = paper_machines()
    machines.append(replace(ideal_superscalar(2),
                            name="superscalar-2/br-stall",
                            branch_policy="stall"))
    machines.append(superscalar_with_class_conflicts(4))
    return machines


def _trace_for(source: str):
    program = compile_source(source, suite.default_options(suite.get("whet")))
    return interp_run(program).trace


def _assert_identical(trace, config):
    memo = simulate(trace, config, observe=True)
    direct = simulate(trace, config, observe=True, memoize=False)
    label = f"{config.name}"
    assert memo.minor_cycles == direct.minor_cycles, label
    assert memo.base_cycles == direct.base_cycles, label
    assert memo.parallelism == direct.parallelism, label
    assert memo.stalls == direct.stalls, label
    assert (issue_schedule(trace, config)
            == issue_schedule(trace, config, memoize=False)), label


class TestMemoizedEqualsDirect:
    """Bit-identity of the memoized path, randomized and pinned."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_random_programs_all_machines(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            _assert_identical(trace, config)

    @pytest.mark.parametrize("bench_name", ["whet", "livermore"])
    def test_real_benchmarks_all_machines(self, bench_name):
        bench = suite.get(bench_name)
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        for config in _edge_machines():
            _assert_identical(trace, config)


class TestGoldenStalls:
    """Memoized observed replay reproduces stall breakdowns recorded
    from direct replay before the flat-accumulator rewrite."""

    def test_memoized_observed_replay_matches_golden_digests(self):
        with open(GOLDEN_STALLS, encoding="utf-8") as handle:
            golden = json.load(handle)
        machines = paper_machines()
        benches = suite.all_benchmarks()
        assert len(golden) == len(machines) * len(benches) == 56
        mismatched = []
        for bench in benches:
            trace = suite.run_benchmark(
                bench, suite.default_options(bench)
            ).trace
            for config in machines:
                key = f"{bench.name}@{config.name}"
                result = simulate(trace, config, observe=True)
                stalls = result.stalls
                assert stalls.minor_cycles == result.minor_cycles, key
                got = {"minor_cycles": result.minor_cycles,
                       "stalls_sha256": stalls_digest(stalls)}
                if got != golden[key]:
                    mismatched.append(key)
        golden_name = os.path.basename(GOLDEN_STALLS)
        assert not mismatched, \
            f"stall breakdowns diverged from {golden_name} on {mismatched}"


class TestNoPerCallCharging:
    """Observed replay accumulates stalls in a flat list and builds the
    breakdown once per run; it never calls ``StallBreakdown.charge``."""

    @pytest.mark.parametrize("spec", ["superscalar:4", "multititan"])
    def test_memo_warm_rerun_never_charges_per_call(self, spec,
                                                    monkeypatch):
        def refuse(self, klass, cause_index, cycles):
            raise AssertionError("replay charged a stall per call")

        monkeypatch.setattr(StallBreakdown, "charge", refuse)
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        config = resolve(spec)
        core = ReplayCore(trace, config, observe=True)
        core.run()
        warm = core.run()
        direct = ReplayCore(trace, config, observe=True).run(memoize=False)
        assert warm.stats.memo_hits > 0
        assert warm.stats.memo_misses == 0
        assert warm.minor_cycles == direct.minor_cycles
        assert warm.stalls == direct.stalls
        assert warm.stalls.stalled > 0


class TestIssueSchedule:
    """The per-event schedule agrees with the cycle counts."""

    @pytest.mark.parametrize("bench_name", ["whet", "linpack"])
    def test_schedule_reconstructs_minor_cycles(self, bench_name):
        bench = suite.get(bench_name)
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        for config in _edge_machines():
            times = issue_schedule(trace, config)
            timing = simulate(trace, config)
            assert len(times) == len(trace)
            assert all(a <= b for a, b in zip(times, times[1:])), \
                "in-order issue must yield non-decreasing issue times"
            completion = max(
                t + config.latencies[ins.op.klass]
                for t, ins in zip(times, trace.instructions())
            )
            assert completion == timing.minor_cycles


class TestPlan:
    def test_plan_is_deterministic(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        a = build_plan(trace)
        b = build_plan(trace)
        assert a.schedule == b.schedule
        assert [blk.segments for blk in a.blocks] \
            == [blk.segments for blk in b.blocks]

    def test_plan_covers_trace_exactly(self):
        bench = suite.get("livermore")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        plan = plan_for(trace)
        blocks = plan.blocks
        assert sum(blocks[bid].n_instrs for bid in plan.schedule) \
            == len(trace)
        assert sum(blocks[bid].n_mem for bid in plan.schedule) \
            == len(trace.mem_addrs)
        # Flattening the scheduled segments reproduces the executed
        # static indices event for event.
        flat: list[int] = []
        for bid in plan.schedule:
            for start, length in blocks[bid].segments:
                flat.extend(range(start, start + length))
        assert flat == trace.ops

    def test_plan_is_cached_on_the_trace(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        assert plan_for(trace) is plan_for(trace)


class TestReplayStats:
    def test_conservation_and_hits(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        for config in _edge_machines():
            stats = simulate(trace, config).replay
            assert stats is not None
            assert stats.memo_instructions + stats.direct_instructions \
                == len(trace)
            assert stats.blocks == len(plan_for(trace).schedule)
            # Loop-dominated benchmark: the memo must carry most of it.
            assert stats.memo_instructions > len(trace) // 2

    def test_direct_mode_reports_no_memo_activity(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        stats = simulate(trace, paper_machines()[0], memoize=False).replay
        assert stats.memo_hits == 0
        assert stats.memo_misses == 0
        assert stats.memo_instructions == 0
        assert stats.direct_instructions == len(trace)


class TestBlacklist:
    def test_blacklisted_blocks_stay_bit_identical(self, monkeypatch):
        """With an immediate blacklist every block falls back to direct
        replay after one miss — results must not change at all."""
        monkeypatch.setattr(replay_mod, "_BLACKLIST_MISSES", 1)
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        config = paper_machines()[2]
        memo = simulate(trace, config, observe=True)
        direct = simulate(trace, config, observe=True, memoize=False)
        assert memo.minor_cycles == direct.minor_cycles
        assert memo.stalls == direct.stalls
        # Every eligible block missed once and was then dropped.
        assert memo.replay.memo_hits == 0
        assert memo.replay.direct_instructions == len(trace)

    def test_blacklist_flag_is_set(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "_BLACKLIST_MISSES", 1)
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        core = ReplayCore(trace, paper_machines()[0])
        core.run()
        assert any(core._blacklisted), \
            "an eligible block should have been blacklisted"


# ------------------------------------------------- scheduler model oracle

#: Register-only opcodes: integer, logical, shift, FP and conversion
#: classes, with latencies and units that differ per class.
_REG_OPS = (Opcode.ADD, Opcode.MUL, Opcode.DIV, Opcode.AND, Opcode.SLL,
            Opcode.FADD, Opcode.FMUL, Opcode.FDIV)
_UNARY_OPS = (Opcode.MOV, Opcode.FNEG, Opcode.CVTIF)
_REG = st.integers(0, 5).map(virtual)


def _reg_only_instr():
    binary = st.builds(build.alu, st.sampled_from(_REG_OPS),
                       _REG, _REG, _REG)
    unary = st.builds(build.unary, st.sampled_from(_UNARY_OPS),
                      _REG, _REG)
    imm = st.builds(build.li, _REG, st.integers(0, 9))
    return st.one_of(binary, unary, imm)


@st.composite
def _machine_shape(draw):
    """A random machine: width, per-class latencies and, optionally,
    scarce functional units — some classes listed by two units, so the
    first-listed-unit rule decides."""
    classes = list(InstrClass)
    latencies = {k: draw(st.integers(1, 5)) for k in classes}
    units = ()
    if draw(st.booleans()):
        n_units = draw(st.integers(1, 3))
        owner = [draw(st.integers(0, n_units - 1)) for _ in classes]
        units = tuple(
            unit(f"u{j}",
                 [k for k, o in zip(classes, owner) if o == j]
                 + draw(st.lists(st.sampled_from(classes), max_size=2)),
                 issue_latency=draw(st.integers(1, 3)),
                 multiplicity=draw(st.integers(1, 2)))
            for j in range(n_units)
        )
        units = tuple(u for u in units if u.classes)
    return MachineConfig(
        name="random", issue_width=draw(st.integers(1, 4)),
        latencies=latencies, units=units,
    )


class TestScheduleModelOracle:
    """The scheduler's block-local issue model equals the replay core:
    :func:`repro.sched.validate.issue_times` of a block in source order
    is the replay core's issue schedule of that block from an idle
    machine."""

    @staticmethod
    def _assert_same_issue_times(instrs, config):
        block = BasicBlock("b", list(instrs))
        dag = build_dag(block, config)
        expected = issue_schedule(Trace.from_instructions(instrs), config)
        got = issue_times(block.instrs, list(range(len(instrs))), dag,
                          config)
        assert got == expected, config.name

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instrs=st.lists(_reg_only_instr(), min_size=1, max_size=24))
    def test_edge_machines(self, instrs):
        for config in _edge_machines():
            self._assert_same_issue_times(instrs, config)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instrs=st.lists(_reg_only_instr(), min_size=1, max_size=24),
           config=_machine_shape())
    def test_random_machine_shapes(self, instrs, config):
        self._assert_same_issue_times(instrs, config)
