"""Tests for the persistent replay-memo store and its report counters.

Three guarantees:

* **Steady-state bit-identity** — rerunning a replay core, so every
  block is served from its populated memo tables, gives exactly the
  minor cycles, stall breakdowns and issue schedules of forced direct
  per-instruction replay.  Hypothesis drives this over random Tin
  programs on every edge machine shape.
* **Persistence hygiene** — memo payloads round-trip through the
  on-disk store (a cold handle starts fully warm with zero misses,
  bit-identical to forced direct replay), and corrupt, stale or
  old-format entries are dropped and rewritten, never trusted and never
  fatal.
* **Report conservation** — the schema validator enforces the replay
  counter laws, including the two vectorized-block counters that are
  always 0 now and kept for ledger v3 compatibility.

(The module name predates the removal of the NumPy replay kernel; it is
kept so test identifiers stay stable.)
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.benchmarks import suite
from repro.engine.cache import TraceCache
from repro.engine.executor import execute
from repro.engine.plan import plan_sweep
from repro.isa.opcodes import InstrClass
from repro.machine.presets import resolve
from repro.obs.schema import check_replay
from repro.obs.stalls import FLAT_SIZE, STALL_CAUSES
from repro.sim import replay as replay_mod
from repro.sim.memo import (
    MemoStore,
    NULL_MEMO_STORE,
    clear_registry,
    memo_key,
    open_memo_store,
    replay_with_memo,
)
from repro.sim.replay import ReplayCore
from repro.sim.timing import simulate
from tests.test_fuzz_differential import _block, _program
from tests.test_replay import _edge_machines, _trace_for


@pytest.fixture(autouse=True)
def _isolated_memo_registry():
    """Keep the process-wide memo payload registry out of every test."""
    clear_registry()
    yield
    clear_registry()


def _whet_trace():
    bench = suite.get("whet")
    return suite.run_benchmark(bench, suite.default_options(bench)).trace


class TestVectorizedEqualsScalar:
    """A memo-warm rerun never changes results.  (The class name dates
    from the vectorized kernel that once served the steady state.)"""

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_random_programs_all_machines(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            ref = simulate(trace, config, observe=True, memoize=False)
            core = ReplayCore(trace, config, observe=True)
            first = core.run()
            steady = core.run()
            label = config.name
            assert first.minor_cycles == ref.minor_cycles, label
            assert steady.minor_cycles == ref.minor_cycles, label
            assert first.stalls == ref.stalls, label
            assert steady.stalls == ref.stalls, label
            stats = steady.stats
            assert stats.memo_misses == 0, label
            assert stats.vectorized_blocks == 0, label
            assert stats.scalar_fallback_blocks == 0, label

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_issue_schedules_match(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            core = ReplayCore(trace, config, want_times=True)
            ref = ReplayCore(trace, config, want_times=True).run(
                memoize=False)
            core.run()
            steady = core.run()
            assert steady.times == ref.times, config.name


class TestMemoPersistence:
    """Round-trip, hygiene, and accounting of the on-disk memo store."""

    def test_round_trip_is_bit_identical_and_warm(self, tmp_path):
        trace = _whet_trace()
        config = resolve("superscalar:4")
        ref = simulate(trace, config, observe=True, memoize=False)
        first_store = MemoStore(str(tmp_path / "memo"))
        warmup = replay_with_memo(first_store, trace, config, observe=True)
        assert warmup.minor_cycles == ref.minor_cycles
        assert first_store.stats.misses == 1
        assert first_store.stats.stores >= 1

        clear_registry()  # force the second handle to hit the disk
        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config, observe=True)
        assert out.minor_cycles == ref.minor_cycles
        assert out.stalls == ref.stalls
        assert store.stats.hits == 1
        assert store.stats.misses == 0
        assert out.stats.memo_misses == 0
        assert out.stats.memo_persisted_hits > 0
        assert (out.stats.memo_persisted_hits
                <= out.stats.memo_hits)
        # Steady state: nothing new was learned, nothing is rewritten.
        assert store.stats.stores == 0
        assert out.stats.vectorized_blocks == 0

    def test_corrupt_entry_is_dropped_and_rewritten(self, tmp_path):
        trace = _whet_trace()
        config = resolve("base")
        ref = simulate(trace, config, memoize=False)
        prime = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(prime, trace, config)
        key = memo_key(trace, config)
        path = prime.path_for(key)
        assert os.path.exists(path)
        with open(path, "wb") as handle:
            handle.write(b"\x00not a pickle")

        clear_registry()
        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config)
        assert out.minor_cycles == ref.minor_cycles
        assert store.stats.corrupt == 1
        assert store.stats.hits == 0
        assert store.stats.stores == 1      # rewritten from this run
        assert store.stats.gets == (store.stats.hits
                                    + store.stats.misses
                                    + store.stats.corrupt)
        # The rewritten entry is healthy again.
        clear_registry()
        fresh = MemoStore(str(tmp_path / "memo"))
        again = replay_with_memo(fresh, trace, config)
        assert again.minor_cycles == ref.minor_cycles
        assert fresh.stats.hits == 1

    def test_stale_payload_is_rejected_not_trusted(self, tmp_path):
        """A structurally valid file whose payload fails deep
        validation (here: recorded for the wrong replay mode) is
        reclassified hit -> corrupt and replaced."""
        trace = _whet_trace()
        config = resolve("base")
        ref = simulate(trace, config, memoize=False)
        prime = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(prime, trace, config)
        key = memo_key(trace, config)
        path = prime.path_for(key)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["mode"] = (not payload["mode"][0], payload["mode"][1])
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        clear_registry()
        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config)
        assert out.minor_cycles == ref.minor_cycles
        assert store.stats.corrupt == 1
        assert store.stats.hits == 0
        assert store.stats.stores == 1

    def test_wrong_format_tag_is_corrupt(self, tmp_path):
        trace = _whet_trace()
        config = resolve("base")
        prime = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(prime, trace, config)
        path = prime.path_for(memo_key(trace, config))
        with open(path, "wb") as handle:
            pickle.dump({"format": "replay-memo-v0"}, handle)
        clear_registry()
        store = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(store, trace, config)
        assert store.stats.corrupt == 1

    def test_v1_payload_is_rejected_and_rewritten_as_v2(self, tmp_path):
        """An entry in the retired v1 layout (backend key format plus a
        resolved event schedule) is dropped as stale, replaced by a
        payload in the current format, and the cycles do not change.
        (The name predates the v3 bump.)"""
        trace = _whet_trace()
        config = resolve("superscalar:4")
        ref = simulate(trace, config, observe=True, memoize=False)
        prime = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(prime, trace, config, observe=True)
        path = prime.path_for(memo_key(trace, config, observe=True))
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload.update(format="replay-memo-v1", key_format="numpy",
                       resolved=None)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        clear_registry()
        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config, observe=True)
        assert out.minor_cycles == ref.minor_cycles
        assert out.stalls == ref.stalls
        assert store.stats.corrupt == 1
        assert store.stats.hits == 0
        assert store.stats.stores == 1
        with open(path, "rb") as handle:
            rewritten = pickle.load(handle)
        assert rewritten["format"] == replay_mod.MEMO_PAYLOAD_FORMAT \
            == "replay-memo-v3"
        assert "key_format" not in rewritten
        assert "resolved" not in rewritten

        clear_registry()
        fresh = MemoStore(str(tmp_path / "memo"))
        again = replay_with_memo(fresh, trace, config, observe=True)
        assert again.minor_cycles == ref.minor_cycles
        assert fresh.stats.hits == 1
        assert fresh.stats.stores == 0

    def test_v2_observe_payload_is_rejected_and_rewritten_as_v3(
            self, tmp_path):
        """A v2 observe-mode entry stores its stall charges as
        ``(klass, cause, cycles)`` triples.  Its 9-tuple entries pass the
        shape check, so only the format tag keeps them out: the entry is
        counted corrupt, rewritten as v3 with ``(flat_index, cycles)``
        charges, and the stalls equal direct replay.  (The memo key
        hashes the format tag too, so a real v2 file is never looked up;
        this pins the adoption check behind it.)"""
        trace = _whet_trace()
        config = resolve("superscalar:4")
        ref = simulate(trace, config, observe=True, memoize=False)
        prime = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(prime, trace, config, observe=True)
        path = prime.path_for(memo_key(trace, config, observe=True))
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        classes = list(InstrClass)
        width = len(STALL_CAUSES)
        for table in payload["tables"]:
            for key, entry in list((table or {}).items()):
                v2_charges = tuple(
                    (classes[i // width], i % width, cyc)
                    for i, cyc in entry[7]
                )
                table[key] = entry[:7] + (v2_charges,) + entry[8:]
        payload["format"] = "replay-memo-v2"
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        clear_registry()
        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config, observe=True)
        assert out.minor_cycles == ref.minor_cycles
        assert out.stalls == ref.stalls
        assert store.stats.corrupt == 1
        assert store.stats.hits == 0
        assert store.stats.stores == 1
        with open(path, "rb") as handle:
            rewritten = pickle.load(handle)
        assert rewritten["format"] == "replay-memo-v3"
        charges = [
            pair for table in rewritten["tables"] if table
            for entry in table.values() for pair in entry[7]
        ]
        assert charges
        assert all(
            isinstance(i, int) and 0 <= i < FLAT_SIZE and cyc > 0
            for i, cyc in charges
        )

        clear_registry()
        fresh = MemoStore(str(tmp_path / "memo"))
        again = replay_with_memo(fresh, trace, config, observe=True)
        assert again.stalls == ref.stalls
        assert fresh.stats.hits == 1

    def test_null_store_runs_plain(self):
        trace = _whet_trace()
        config = resolve("base")
        out = replay_with_memo(NULL_MEMO_STORE, trace, config)
        ref = simulate(trace, config, memoize=False)
        assert out.minor_cycles == ref.minor_cycles
        assert NULL_MEMO_STORE.stats.gets == 0

    def test_open_memo_store_follows_cache(self, tmp_path):
        assert open_memo_store(None) is not None
        assert open_memo_store(None).enabled is False
        cache = TraceCache(str(tmp_path))
        store = open_memo_store(cache)
        assert store.enabled
        assert store.root == os.path.join(cache.root, "memo")

    def test_memo_key_separates_modes(self):
        trace = _whet_trace()
        config = resolve("base")
        keys = {
            memo_key(trace, config),
            memo_key(trace, config, observe=True),
            memo_key(trace, config, want_times=True),
            memo_key(trace, resolve("superscalar:4")),
        }
        assert len(keys) == 4


class TestEngineIntegration:
    """The engine persists and re-adopts memo tables via its cache."""

    def test_cache_dir_grows_memo_store(self, tmp_path):
        suite.clear_cache()
        plan = plan_sweep(["whet"], ["base", "superscalar:4"],
                          observe=True)
        result = execute(plan, cache=TraceCache(str(tmp_path)))
        assert result.report.replay_backend == replay_mod.BACKEND
        memo_root = tmp_path / "memo"
        assert memo_root.is_dir()
        assert any(memo_root.rglob("*.pkl"))

        clear_registry()
        suite.clear_cache()
        again = execute(plan_sweep(["whet"], ["base", "superscalar:4"],
                                   observe=True),
                        cache=TraceCache(str(tmp_path)))
        assert again.report.memo_persisted_hits > 0
        for mine, theirs in zip(result.cells, again.cells):
            assert mine.minor_cycles == theirs.minor_cycles
            assert mine.stalls == theirs.stalls


class TestSchemaConservation:
    """The validator enforces the replay-counter laws."""

    def _payload(self, **overrides):
        payload = {
            "blocks": 10, "memo_hits": 6, "memo_misses": 4,
            "fallbacks": 0, "memo_instructions": 90,
            "direct_instructions": 10,
            "vectorized_blocks": 10, "scalar_fallback_blocks": 0,
            "memo_persisted_hits": 5,
        }
        payload.update(overrides)
        return payload

    def test_valid_payload_passes(self):
        record = {"instructions": 100}
        assert check_replay(self._payload(), record) == []

    def test_vectorized_exceeding_blocks_fails(self):
        record = {"instructions": 100}
        errors = check_replay(
            self._payload(vectorized_blocks=8, scalar_fallback_blocks=3),
            record)
        assert any("vectorized+fallback" in e for e in errors)

    def test_persisted_exceeding_hits_fails(self):
        record = {"instructions": 100}
        errors = check_replay(self._payload(memo_persisted_hits=7), record)
        assert any("memo_persisted_hits" in e for e in errors)

    def test_pre_kernel_payload_still_valid(self):
        payload = self._payload()
        for name in ("vectorized_blocks", "scalar_fallback_blocks",
                     "memo_persisted_hits"):
            del payload[name]
        assert check_replay(payload, {"instructions": 100}) == []
