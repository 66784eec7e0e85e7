#!/usr/bin/env python
"""Regenerate the golden stall digests pinned by the test suite.

For every suite benchmark (compiled with its default options) on each of
the paper's seven machines, this records the SHA-256 digest of the
observed replay's full stall breakdown — every cause total, the issued
remainder and the per-class rows, as
``json.dumps(stalls.as_dict(), sort_keys=True)`` — plus the run's
``minor_cycles``.  ``tests/test_replay.py`` recomputes the digests with
memoized observed replay and compares, so a change to the replay core's
stall accounting is checked against figures recorded before it, not
only against the new code's own direct path.

The digests here come from direct (``memoize=False``) replay, the
per-instruction reference path.  Only regenerate
(``python scripts/gen_golden_stalls.py``) when a *deliberate* timing or
attribution change lands; the diff of ``tests/golden/stalls.json`` is
then part of the review.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden", "stalls.json",
)


def stalls_digest(stalls) -> str:
    """SHA-256 of one stall breakdown's canonical JSON form."""
    text = json.dumps(stalls.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def benchmark_traces():
    """``(name, trace)`` per suite benchmark, default compile options."""
    from repro.benchmarks import suite
    from repro.opt.driver import compile_source
    from repro.sim import interp

    for benchmark in suite.all_benchmarks():
        program = compile_source(benchmark.source(),
                                 suite.default_options(benchmark))
        yield benchmark.name, interp.run(program).trace


def main() -> int:
    from repro.machine.presets import paper_machines
    from repro.sim.timing import simulate

    cells: dict[str, dict] = {}
    machines = paper_machines()
    for name, trace in benchmark_traces():
        for config in machines:
            key = f"{name}@{config.name}"
            result = simulate(trace, config, observe=True, memoize=False)
            cells[key] = {
                "minor_cycles": result.minor_cycles,
                "stalls_sha256": stalls_digest(result.stalls),
            }
            print(f"{key:40s} {cells[key]['stalls_sha256'][:16]} "
                  f"{result.minor_cycles}")
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(cells, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT}: {len(cells)} cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
