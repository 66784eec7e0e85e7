#!/usr/bin/env python
"""Regenerate the golden cache-simulation figures pinned by the test suite.

For every suite benchmark (compiled with its default options) on each of
the paper's seven machines, under the paper's ``"perfect"`` branch
policy, this records:

* the ``sec5-1`` exhibit's data cache (:data:`DCACHE`: 256 words, 4-word
  lines, 10-cycle miss penalty) — ``minor_cycles``, loads and load
  misses from :func:`repro.sim.cache.simulate_with_cache`;
* one fixed instruction cache (:data:`ICACHE`: 64 words, 4-word lines,
  7-cycle miss penalty) — ``minor_cycles`` and fetch misses from
  :func:`repro.sim.cache.simulate_with_icache`.

``tests/test_cache.py`` recomputes a fixed subset of the cells and
compares, so a change to how the cache simulators time a trace is
checked against figures recorded before it.  Only regenerate
(``python scripts/gen_golden_cache.py``) when a *deliberate* timing
change lands; the diff of ``tests/golden/cache.json`` is then part of
the review.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

from repro.sim.cache import (  # noqa: E402
    CacheConfig,
    simulate_with_cache,
    simulate_with_icache,
)

OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden", "cache.json",
)

#: The ``sec5-1`` exhibit's data cache.
DCACHE = CacheConfig(size_words=256, line_words=4, miss_penalty=10)
#: A small instruction cache that unrolled loop bodies overflow.
ICACHE = CacheConfig(size_words=64, line_words=4, miss_penalty=7)


def cache_cell(trace, config) -> dict:
    """The pinned figures of one benchmark × machine cell."""
    d = simulate_with_cache(trace, config, DCACHE)
    i = simulate_with_icache(trace, config, ICACHE)
    return {
        "dcache": {"minor_cycles": d.timing.minor_cycles,
                   "loads": d.loads, "load_misses": d.load_misses},
        "icache": {"minor_cycles": i.timing.minor_cycles,
                   "fetch_misses": i.fetch_misses},
    }


def main() -> int:
    from repro.benchmarks import suite
    from repro.machine.presets import paper_machines

    cells: dict[str, dict] = {}
    machines = paper_machines()
    for bench in suite.all_benchmarks():
        trace = suite.run_benchmark(bench, suite.default_options(bench)).trace
        for config in machines:
            key = f"{bench.name}@{config.name}"
            cells[key] = cache_cell(trace, config)
            print(f"{key:40s} {cells[key]['dcache']['minor_cycles']:>9} "
                  f"{cells[key]['icache']['minor_cycles']:>9}")
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(cells, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT}: {len(cells)} cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
