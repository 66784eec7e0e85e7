"""Cache modelling (Section 5.1, Table 5-1).

Two layers:

* the paper's *arithmetic* miss-cost model — cycles per instruction,
  cycle time and memory time give the miss cost in cycles and in average
  instruction times (Table 5-1), and the worked example showing how cache
  misses dilute the speedup of parallel instruction issue;
* direct-mapped data- and instruction-cache simulators, so the dilution
  can be *measured* on the benchmark suite rather than assumed.

The simulators hold the cache model only: the geometry
(:class:`CacheConfig`), the tags, and one pass that turns a trace into
its miss stream.  Both miss streams depend on the trace alone — data
tags change on loads in trace order, instruction tags on fetches in
static-index order — so no issue loop lives here.  The stream is timed
by the replay core's direct path
(:meth:`repro.sim.replay.ReplayCore.run_direct`), the same in-order
issue model as :func:`repro.sim.timing.simulate`, branch policy
included: with a zero miss penalty both simulators equal ``simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from ..machine.config import MachineConfig
from .replay import ReplayCore
from .timing import TimingResult
from .trace import Trace


@dataclass(frozen=True, slots=True)
class MissCostRow:
    """One machine of Table 5-1."""

    machine: str
    cycles_per_instr: float
    cycle_ns: float
    memory_ns: float

    @property
    def miss_cost_cycles(self) -> float:
        """Cache miss cost in machine cycles."""
        return self.memory_ns / self.cycle_ns

    @property
    def miss_cost_instructions(self) -> float:
        """Cache miss cost in average instruction times."""
        return self.miss_cost_cycles / self.cycles_per_instr


#: The three machines of Table 5-1: a CISC (VAX 11/780), a RISC
#: (WRL Titan) and the projected future superscalar.
TABLE_5_1 = (
    MissCostRow("VAX 11/780", 10.0, 200.0, 1200.0),
    MissCostRow("WRL Titan", 1.4, 45.0, 540.0),
    MissCostRow("future superscalar", 0.5, 5.0, 350.0),
)


def parallel_issue_speedup_with_misses(
    issue_cpi_before: float = 1.0,
    issue_cpi_after: float = 0.5,
    miss_cpi: float = 1.0,
) -> tuple[float, float]:
    """The Section 5.1 worked example.

    Returns ``(speedup_with_misses, speedup_without_misses)``: for the
    paper's numbers (1.0 cpi -> 0.5 cpi issue, plus 1.0 cpi of misses)
    that is (1.33, 2.0) — "much less than the improvement ... when cache
    misses are ignored".
    """
    with_misses = (issue_cpi_before + miss_cpi) / (issue_cpi_after + miss_cpi)
    without = issue_cpi_before / issue_cpi_after
    return with_misses, without


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """A direct-mapped data cache (word-addressed, like the simulator)."""

    size_words: int = 1024
    line_words: int = 4
    miss_penalty: int = 10    # minor cycles added to a missing load

    def __post_init__(self) -> None:
        if self.size_words % self.line_words != 0:
            raise ValueError("cache size must be a multiple of the line size")
        if self.line_words & (self.line_words - 1):
            raise ValueError("line size must be a power of two")

    @property
    def n_lines(self) -> int:
        return self.size_words // self.line_words


@dataclass(frozen=True, slots=True)
class CacheResult:
    """Timing result plus cache statistics."""

    timing: TimingResult
    loads: int
    load_misses: int

    @property
    def miss_rate(self) -> float:
        if self.loads == 0:
            return 0.0
        return self.load_misses / self.loads


def simulate_with_cache(
    trace: Trace, config: MachineConfig, cache: CacheConfig
) -> CacheResult:
    """Replay ``trace`` on ``config`` with a direct-mapped data cache.

    Same in-order issue model as :func:`repro.sim.timing.simulate` (the
    replay core's direct path); a load that misses completes
    ``miss_penalty`` minor cycles later.  Stores are
    write-through/no-allocate and never stall (the paper's cost model
    concerns read misses).
    """
    flags = _load_flags(trace)
    line_words = cache.line_words
    n_lines = cache.n_lines
    penalty = cache.miss_penalty
    tags = [-1] * n_lines
    extra = [0] * len(flags)
    misses = 0
    for m, addr in compress(enumerate(trace.mem_addrs), flags):
        line = addr // line_words
        idx = line % n_lines
        if tags[idx] != line:
            tags[idx] = line
            misses += 1
            extra[m] = penalty
    outcome = ReplayCore(trace, config).run_direct(load_extra=extra)
    return CacheResult(
        timing=_timing(trace, config, "+cache", outcome.minor_cycles),
        loads=sum(flags), load_misses=misses,
    )


@dataclass(frozen=True, slots=True)
class ICacheResult:
    """Timing result plus instruction-cache statistics."""

    timing: TimingResult
    fetches: int
    fetch_misses: int

    @property
    def miss_rate(self) -> float:
        if self.fetches == 0:
            return 0.0
        return self.fetch_misses / self.fetches


def simulate_with_icache(
    trace: Trace, config: MachineConfig, icache: CacheConfig
) -> ICacheResult:
    """Replay ``trace`` with a direct-mapped *instruction* cache.

    The paper's unrolling caveat: "If limited instruction caches were
    present, the actual performance would decline for large degrees of
    unrolling" (Section 4.4).  Each static instruction occupies one word
    of instruction memory (its flattened index); an instruction whose
    fetch misses issues no earlier than ``miss_penalty`` minor cycles
    after the previous issue cycle, so large unrolled bodies that
    overflow the cache pay on every trip.
    """
    chunks = _FetchChunks(trace, icache)
    outcome = ReplayCore(trace, config).run_direct(
        fetch_chunks=chunks, fetch_penalty=icache.miss_penalty
    )
    return ICacheResult(
        timing=_timing(trace, config, "+icache", outcome.minor_cycles),
        fetches=len(trace), fetch_misses=chunks.misses,
    )


def _timing(trace: Trace, config: MachineConfig, suffix: str,
            minor_cycles: int) -> TimingResult:
    """The timing result of one cache-simulated replay."""
    return TimingResult(
        config_name=config.name + suffix,
        instructions=len(trace),
        minor_cycles=minor_cycles,
        base_cycles=config.minor_to_base(minor_cycles),
    )


def _load_flags(trace: Trace) -> list[bool]:
    """Per dynamic memory position, ``True`` for a load (``False`` for a
    store), in trace order."""
    static_flags: list[bool] = []
    mem_before = [0]
    for ins in trace.static:
        info = ins.op.info
        if info.is_load or info.is_store:
            static_flags.append(info.is_load)
        mem_before.append(len(static_flags))
    flags: list[bool] = []
    for start, length in trace.runs():
        flags += static_flags[mem_before[start]:mem_before[start + length]]
    return flags


class _FetchChunks:
    """The trace's runs split at instruction-fetch misses.

    Iterating yields one segment list per chunk, each starting with an
    instruction whose fetch misses, and counts the misses in
    :attr:`misses`.  Chunks are built as they are replayed, so the split
    trace is never held in memory.  A run executes consecutive static
    indices, so it is scanned one cache line at a time: only the first
    instruction it fetches from a line can miss.
    """

    def __init__(self, trace: Trace, icache: CacheConfig) -> None:
        self.trace = trace
        self.icache = icache
        self.misses = 0

    def __iter__(self):
        line_words = self.icache.line_words
        n_lines = self.icache.n_lines
        tags = [-1] * n_lines
        chunk: list[tuple[int, int]] = []
        for start, length in self.trace.runs():
            end = start + length
            seg = start
            for line in range(start // line_words,
                              (end - 1) // line_words + 1):
                idx = line % n_lines
                if tags[idx] != line:
                    tags[idx] = line
                    first = line * line_words
                    if first > seg:
                        chunk.append((seg, first - seg))
                        seg = first
                    if chunk:
                        yield chunk
                        chunk = []
                    self.misses += 1
            chunk.append((seg, end - seg))
        if chunk:
            yield chunk
