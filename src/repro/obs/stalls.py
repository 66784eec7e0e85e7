"""Stall-cycle attribution: where do the minor cycles go?

The paper's Sections 4-5 reason about lost cycles in terms of causes —
true (RAW) dependences, memory ordering, functional-unit (class)
conflicts, and the issue-width/in-order limit itself — but the timing
model only reported an aggregate cycle count.  :class:`StallBreakdown`
makes the accounting explicit and *exact*:

For dynamic instruction *i* issuing at minor cycle ``t_i``, every minor
cycle in ``[t_{i-1}, t_i)`` is one stall cycle charged to *i* (with
``t_{-1} = 0``).  Because issue is in order and issue times are
non-decreasing, these intervals tile ``[0, t_last)`` exactly — no cycle
is double-counted and none is dropped.  Each charged cycle gets the
*first* applicable cause:

``control``
    the front end is frozen until a conditional branch resolves
    (only under ``branch_policy="stall"``; zero for the paper's model);
``raw_dep``
    a register source is not complete yet (true dependence);
``memory_order``
    a load's word has a pending earlier store (store→load ordering);
``unit_conflict``
    every copy of the required functional unit is busy (class conflict);
``issue_width``
    nothing else blocks the instruction — it waits only because the
    machine already issued ``issue_width`` instructions that cycle
    (or, equivalently, because issue is in order behind them).

``issued_cycles`` is the remainder ``minor_cycles - stalled``: the span
from the final issue to the completion of the last result (on a
stall-free run, the whole run).  The conservation law

    ``breakdown.stalled + breakdown.issued_cycles == minor_cycles``

therefore holds *exactly* on every trace and machine; the test suite
asserts it on hand-built traces and on random programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.opcodes import InstrClass

#: Attribution order; the first applicable cause wins.
STALL_CAUSES: tuple[str, ...] = (
    "control",
    "raw_dep",
    "memory_order",
    "unit_conflict",
    "issue_width",
)

_N_CAUSES = len(STALL_CAUSES)
_CAUSE_INDEX = {name: i for i, name in enumerate(STALL_CAUSES)}

#: Flat accumulator layout read by :meth:`StallBreakdown.from_flat`: one
#: row of ``len(STALL_CAUSES)`` cells per instruction class, so a stall
#: lands in cell ``flat_row(klass) + cause_index``.
_FLAT_ROW = {klass: i * _N_CAUSES for i, klass in enumerate(InstrClass)}
#: Length of a flat stall accumulator.
FLAT_SIZE = len(_FLAT_ROW) * _N_CAUSES


def flat_row(klass: InstrClass) -> int:
    """Offset of ``klass``'s row in a flat stall accumulator."""
    return _FLAT_ROW[klass]


@dataclass(slots=True)
class StallBreakdown:
    """Per-cause (and per-instruction-class) stall-cycle totals."""

    control: int = 0
    raw_dep: int = 0
    memory_order: int = 0
    unit_conflict: int = 0
    issue_width: int = 0
    #: minor cycles not attributed to any stall (final issue + drain).
    issued_cycles: int = 0
    #: instruction class -> [cycles per cause, in STALL_CAUSES order]
    by_class: dict[InstrClass, list[int]] = field(default_factory=dict)

    @property
    def stalled(self) -> int:
        """Total stall cycles across every cause."""
        return (self.control + self.raw_dep + self.memory_order
                + self.unit_conflict + self.issue_width)

    @property
    def minor_cycles(self) -> int:
        """Reconstructed run length (the conservation law's right side)."""
        return self.stalled + self.issued_cycles

    def get(self, cause: str) -> int:
        """Stall cycles of one cause by name."""
        if cause not in _CAUSE_INDEX:
            raise KeyError(f"unknown stall cause {cause!r}")
        return getattr(self, cause)

    def charge(self, klass: InstrClass, cause_index: int, cycles: int) -> None:
        """Add ``cycles`` of the given cause, rolled up under ``klass``."""
        if cycles <= 0:
            return
        name = STALL_CAUSES[cause_index]
        setattr(self, name, getattr(self, name) + cycles)
        per_class = self.by_class.get(klass)
        if per_class is None:
            per_class = [0] * _N_CAUSES
            self.by_class[klass] = per_class
        per_class[cause_index] += cycles

    @classmethod
    def from_flat(cls, flat, issued_cycles: int = 0) -> "StallBreakdown":
        """Build a breakdown from a flat accumulator of ``FLAT_SIZE``
        cells (see :func:`flat_row`).

        Equal to charging every nonzero cell through :meth:`charge`: a
        class gets a ``by_class`` row only when one of its cells is
        nonzero, and the cause totals are the column sums.
        """
        totals = [0] * _N_CAUSES
        by_class: dict[InstrClass, list[int]] = {}
        for klass, row in _FLAT_ROW.items():
            cells = flat[row:row + _N_CAUSES]
            if any(cells):
                by_class[klass] = list(cells)
                for i, v in enumerate(cells):
                    totals[i] += v
        return cls(*totals, issued_cycles=issued_cycles, by_class=by_class)

    def class_totals(self) -> dict[InstrClass, int]:
        """Total stall cycles charged to each instruction class."""
        return {klass: sum(row) for klass, row in self.by_class.items()}

    def as_dict(self) -> dict:
        """JSON-serializable form (class keys become their string values)."""
        return {
            "control": self.control,
            "raw_dep": self.raw_dep,
            "memory_order": self.memory_order,
            "unit_conflict": self.unit_conflict,
            "issue_width": self.issue_width,
            "issued_cycles": self.issued_cycles,
            "by_class": {
                klass.value: dict(zip(STALL_CAUSES, row))
                for klass, row in sorted(
                    self.by_class.items(), key=lambda kv: kv[0].value
                )
            },
        }

    def merged_with(self, other: "StallBreakdown") -> "StallBreakdown":
        """Element-wise sum (for aggregating across benchmarks)."""
        merged = StallBreakdown(
            control=self.control + other.control,
            raw_dep=self.raw_dep + other.raw_dep,
            memory_order=self.memory_order + other.memory_order,
            unit_conflict=self.unit_conflict + other.unit_conflict,
            issue_width=self.issue_width + other.issue_width,
            issued_cycles=self.issued_cycles + other.issued_cycles,
        )
        for source in (self.by_class, other.by_class):
            for klass, row in source.items():
                acc = merged.by_class.setdefault(klass, [0] * _N_CAUSES)
                for i, v in enumerate(row):
                    acc[i] += v
        return merged
