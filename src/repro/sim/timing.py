"""In-order issue timing simulation (the paper's machine model).

The model replays a dynamic trace against a :class:`MachineConfig`:

* Instructions issue strictly **in order** (the paper excludes out-of-order
  issue; "techniques to reorder instructions at compile time instead of at
  run time are almost as good").  Several instructions may issue in the
  same (minor) cycle, up to the issue width.
* An instruction cannot issue until every register source is ready; a
  producer of class *c* makes its result available ``latency(c)`` minor
  cycles after it issues.
* A load cannot issue until the last store to the same word has completed.
* Functional units model *class conflicts*: a unit copy that issued an
  instruction is busy for its issue latency.  With no units configured the
  machine is ideal (no structural hazards).
* Branches are perfectly predicted and therefore never stall the front end
  (Section 2.1's assumption of perfect branch-slot filling / prediction).

Time is counted in minor cycles and converted to base-machine cycles for
reporting; the *parallelism* (ILP actually exploited) of a run is
``dynamic instructions / base cycles``, which is exactly 1.0 on the base
machine.

All three entry points — :func:`simulate` (fast and ``observe=True``
stall-attributed) and :func:`issue_schedule` — share the single replay
loop in :mod:`repro.sim.replay`, which memoizes repeated trace blocks;
``memoize=False`` forces the direct per-instruction reference path, which
is bit-identical by construction (and by the property tests).  The cache
simulators of :mod:`repro.sim.cache` time their miss streams on that
same direct path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.config import MachineConfig
from ..obs.stalls import StallBreakdown
from .replay import ReplayStats, replay
from .trace import Trace


@dataclass(frozen=True, slots=True)
class TimingResult:
    """Outcome of replaying one trace on one machine configuration."""

    config_name: str
    instructions: int
    minor_cycles: int
    base_cycles: float
    #: Per-cause stall attribution; only populated by
    #: ``simulate(..., observe=True)`` (None on the fast path).
    stalls: StallBreakdown | None = None
    #: Replay-memo counters (hits/misses/fallbacks); informational only,
    #: so two results differing just in replay statistics compare equal.
    replay: ReplayStats | None = field(default=None, compare=False)

    @property
    def parallelism(self) -> float:
        """Average instructions completed per base cycle.

        Equals the speedup over the base machine, because the base machine
        executes exactly one instruction per base cycle without stalls.
        Always finite: an empty run reports 0.0 (never NaN/inf).
        """
        if self.instructions == 0 or self.base_cycles <= 0:
            return 0.0
        return self.instructions / self.base_cycles

    @property
    def cpi(self) -> float:
        """Base cycles per instruction (0.0 for an empty run, never NaN)."""
        if self.instructions == 0 or self.base_cycles <= 0:
            return 0.0
        return self.base_cycles / self.instructions

    def summary(self) -> str:
        """One-line human summary, shared by the CLI and run reports."""
        text = (
            f"{self.config_name}: {self.instructions} instructions, "
            f"{self.base_cycles:.2f} base cycles, "
            f"parallelism {self.parallelism:.2f}, cpi {self.cpi:.3f}"
        )
        if self.stalls is not None:
            s = self.stalls
            text += (
                f" | stall cycles: raw_dep {s.raw_dep}, "
                f"memory_order {s.memory_order}, "
                f"unit_conflict {s.unit_conflict}, "
                f"issue_width {s.issue_width}"
            )
            if s.control:
                text += f", control {s.control}"
        return text

    def as_dict(self) -> dict:
        """JSON-serializable form used by the run-report events."""
        record = {
            "machine": self.config_name,
            "instructions": self.instructions,
            "minor_cycles": self.minor_cycles,
            "base_cycles": self.base_cycles,
            "parallelism": self.parallelism,
            "cpi": self.cpi,
        }
        if self.stalls is not None:
            record["stalls"] = self.stalls.as_dict()
        if self.replay is not None:
            record["replay"] = self.replay.as_dict()
        return record


def simulate(
    trace: Trace, config: MachineConfig, *,
    observe: bool = False, memoize: bool = True,
    memo=None,
) -> TimingResult:
    """Replay ``trace`` on ``config`` and return cycle counts.

    The returned ``minor_cycles`` is the completion time of the last
    result; on the base machine this equals the dynamic instruction count.

    With ``observe=True`` the replay additionally attributes every minor
    cycle an instruction waited to a stall cause (see
    :mod:`repro.obs.stalls`) and attaches the resulting
    :class:`~repro.obs.stalls.StallBreakdown` to the result.

    ``memoize=False`` disables block memoization and replays every
    dynamic instruction directly (the reference path; results are
    identical either way).

    ``memo`` optionally names a persistent memo store
    (:class:`repro.sim.memo.MemoStore`): the replay warm-starts from a
    previously persisted payload and shares learned entries back.
    Results are bit-identical with or without it.
    """
    if memo is not None and memoize and memo.enabled:
        from .memo import replay_with_memo

        outcome = replay_with_memo(memo, trace, config, observe=observe)
    else:
        outcome = replay(trace, config, observe=observe, memoize=memoize)
    return TimingResult(
        config_name=config.name,
        instructions=len(trace),
        minor_cycles=outcome.minor_cycles,
        base_cycles=config.minor_to_base(outcome.minor_cycles),
        stalls=outcome.stalls,
        replay=outcome.stats,
    )


def issue_schedule(
    trace: Trace, config: MachineConfig, *, memoize: bool = True
) -> list[int]:
    """Per-event issue times in minor cycles (for pipeline diagrams).

    Runs the same model as :func:`simulate` but records when each dynamic
    instruction issues; used by ``repro.analysis.pipeviz`` to regenerate the
    paper's Figure 2-x execution diagrams.
    """
    outcome = replay(trace, config, want_times=True, memoize=memoize)
    return outcome.times


def parallelism(trace: Trace, config: MachineConfig) -> float:
    """Convenience wrapper: parallelism of ``trace`` on ``config``."""
    return simulate(trace, config).parallelism
