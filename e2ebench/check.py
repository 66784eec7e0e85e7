"""Reference cell values for the paper grid, and the per-cell output check.

The reference is produced by the direct, non-memoized replay path
(``repro.sim.timing.simulate(..., memoize=False)``), not by the memoized
or vectorized fast paths the timed runs exercise, so a fast-path bug shows
up as a mismatch instead of being copied into the reference.

Regenerate it (about 25 s) from the repository root with::

    PYTHONPATH=src python3 e2ebench/check.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Stall totals compared on observed (``report``) runs.
STALL_FIELDS = ("control", "raw_dep", "memory_order", "unit_conflict",
                "issue_width", "issued_cycles")
#: Cycle fields compared on every run.
CYCLE_FIELDS = ("instructions", "minor_cycles", "base_cycles")


def cell_id(benchmark: str, machine: str) -> str:
    return f"{benchmark}@{machine}"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_cells(reference: dict, cells: list[dict] | None, *,
                stalls: bool) -> list[str]:
    """Compare produced cells against the reference grid.

    ``cells`` holds one dict per produced cell with ``benchmark``,
    ``machine``, ``status``, ``checksum_ok`` and the :data:`CYCLE_FIELDS`
    (plus a ``stalls`` dict of totals when ``stalls`` is set); ``None``
    means the run produced nothing (it crashed), so every cell fails.
    Returns one message per failed reference cell: missing, failed,
    checksum mismatch or a value that differs.  The number of messages
    is the run's failed-cell count.
    """
    expected = reference["cells"]
    if cells is None:
        return [f"{cid}: no output" for cid in expected]
    produced: dict[str, dict] = {}
    for cell in cells:
        produced.setdefault(cell_id(cell["benchmark"], cell["machine"]),
                            cell)
    failures = []
    for cid, want in expected.items():
        got = produced.get(cid)
        if got is None:
            failures.append(f"{cid}: missing")
            continue
        if got.get("status", "ok") == "failed":
            failures.append(f"{cid}: status failed")
            continue
        if not got.get("checksum_ok", False):
            failures.append(f"{cid}: checksum mismatch")
            continue
        fields = [(f, got.get(f), want[f]) for f in CYCLE_FIELDS]
        if stalls:
            have = got.get("stalls") or {}
            fields += [(f"stalls.{f}", have.get(f), want["stalls"][f])
                       for f in STALL_FIELDS]
        bad = [f"{name} {value!r} != {ref!r}"
               for name, value, ref in fields if value != ref]
        if bad:
            failures.append(f"{cid}: " + ", ".join(bad))
    return failures


def build_reference() -> dict:
    """Compile the suite and replay every paper cell on the direct path."""
    from repro.benchmarks import suite
    from repro.machine.presets import paper_machines
    from repro.sim.timing import simulate

    machines = paper_machines()
    cells: dict[str, dict] = {}
    for bench in suite.all_benchmarks():
        run = suite.run_benchmark(bench, suite.default_options(bench))
        if abs(run.value - bench.reference()) > bench.fp_tolerance:
            raise SystemExit(f"{bench.name}: checksum mismatch")
        for machine in machines:
            observed = simulate(run.trace, machine, observe=True,
                                memoize=False)
            plain = simulate(run.trace, machine, memoize=False)
            if plain.minor_cycles != observed.minor_cycles:
                raise SystemExit(
                    f"{bench.name}@{machine.name}: observed replay gives "
                    f"{observed.minor_cycles} cycles, plain replay "
                    f"{plain.minor_cycles}")
            totals = observed.stalls.as_dict()
            cells[cell_id(bench.name, machine.name)] = {
                "instructions": observed.instructions,
                "minor_cycles": observed.minor_cycles,
                "base_cycles": observed.base_cycles,
                "stalls": {f: totals[f] for f in STALL_FIELDS},
            }
    return {
        "source": "repro.sim.timing.simulate(..., memoize=False)",
        "benchmarks": [b.name for b in suite.all_benchmarks()],
        "machines": [m.name for m in machines],
        "cells": cells,
    }


def main() -> int:
    reference = build_reference()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference['cells'])} cells to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
