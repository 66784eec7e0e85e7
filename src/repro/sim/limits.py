"""ILP-limit studies beyond the paper's baseline model.

The paper's machine model makes two deliberate simplifications and cites
the literature for both:

* branches are perfectly predicted ("assuming perfect branch slot
  filling and/or branch prediction", Section 2.1) — Riseman & Foster
  [14] measured how conditional jumps inhibit parallelism without that
  assumption;
* instructions issue in order ("techniques to reorder instructions at
  compile time instead of at run time are almost as good [6, 7, 17], and
  are dramatically simpler than doing it in hardware", Section 2.3.2).

This module makes both claims *testable* on our traces:

* :func:`repro.machine.MachineConfig` already accepts
  ``branch_policy="stall"`` to remove the prediction assumption;
* :func:`simulate_out_of_order` is a run-time reordering (restricted
  dataflow) issue model with a finite instruction window, the hardware
  alternative the paper argues against building.

An instruction may issue out of order as soon as its register sources
and memory predecessors are complete, subject to the issue width and a
sliding window of ``window`` instructions (instruction *i* cannot issue
before instruction *i - window* has issued).  With ``window=1`` the
model degenerates to something slightly stricter than the paper's
in-order machine; with a large window it approaches the dataflow limit.
"""

from __future__ import annotations

from ..machine.config import MachineConfig
from .replay import _static_records
from .timing import TimingResult
from .trace import Trace


def simulate_out_of_order(
    trace: Trace,
    config: MachineConfig,
    window: int = 32,
) -> TimingResult:
    """Replay ``trace`` with run-time (out-of-order) issue.

    Register dependences are true dependences only — hardware renaming
    is assumed, so WAR/WAW never stall (compile-time scheduling cannot
    assume that, which is exactly the paper's "almost as good" caveat).
    Memory operations to the same word stay ordered.  Branches follow
    ``config.branch_policy`` ("perfect" or "stall").
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    records, max_reg = _static_records(trace, config)
    width = config.issue_width

    reg_ready = [0] * (max_reg + 1)
    mem_ready: dict[int, int] = {}
    issue_count: dict[int, int] = {}
    issue_times: list[int] = []
    stall_on_branches = config.branch_policy == "stall"
    branch_floor = 0
    last_finish = 0
    ops = trace.ops
    addrs = trace.addrs

    for i, si in enumerate(ops):
        srcs, dest, lat, unit, is_load, is_store, is_cbr = records[si]

        t = branch_floor
        if i >= window:
            w = issue_times[i - window]
            if w > t:
                t = w
        for s in srcs:
            r = reg_ready[s]
            if r > t:
                t = r
        if is_load:
            r = mem_ready.get(addrs[i], 0)
            if r > t:
                t = r

        while True:
            if issue_count.get(t, 0) >= width:
                t += 1
                continue
            if unit is not None:
                free = unit.free
                best = min(range(len(free)), key=free.__getitem__)
                if free[best] > t:
                    t = free[best]
                    continue
                free[best] = t + unit.issue_latency
            break
        issue_count[t] = issue_count.get(t, 0) + 1
        issue_times.append(t)

        finish = t + lat
        if dest >= 0:
            reg_ready[dest] = finish
        if is_store:
            mem_ready[addrs[i]] = finish
        if stall_on_branches and is_cbr and finish > branch_floor:
            branch_floor = finish
        if finish > last_finish:
            last_finish = finish

    return TimingResult(
        config_name=f"{config.name}/ooo-w{window}",
        instructions=len(ops),
        minor_cycles=last_finish,
        base_cycles=config.minor_to_base(last_finish),
    )


def dataflow_limit(trace: Trace, config: MachineConfig | None = None) -> TimingResult:
    """The oracle ILP of a trace: unbounded width and window.

    Every instruction issues the moment its true dependences allow —
    infinite issue width, full-trace window, register renaming, perfect
    branch prediction and memory disambiguation.  This is the
    "unlimited machine" upper bound of the post-1989 limit studies
    (Wall 1991); the gap between it and the paper's in-order model is
    the price of issuing in order from basic-block-scheduled code.

    ``config`` supplies operation latencies only (default: base machine,
    all-ones).
    """
    from ..machine.presets import base_machine

    cfg = config or base_machine()
    wide = MachineConfig(
        name=f"{cfg.name}/dataflow",
        issue_width=1 << 20,
        superpipeline_degree=cfg.superpipeline_degree,
        latencies=dict(cfg.latencies),
        cycle_scale=cfg.cycle_scale,
    )
    return simulate_out_of_order(
        trace, wide, window=max(len(trace), 1)
    )


def branch_inhibition(
    trace: Trace, config: MachineConfig
) -> tuple[TimingResult, TimingResult]:
    """Replay under perfect prediction and under branch stalls.

    Returns ``(perfect, stalled)`` timing results; the ratio of their
    parallelisms is the control-flow inhibition Riseman & Foster
    measured (and the paper's model assumes away).
    """
    from .timing import simulate

    perfect = simulate(trace, config.with_branch_policy("perfect"))
    stalled = simulate(trace, config.with_branch_policy("stall"))
    return perfect, stalled
