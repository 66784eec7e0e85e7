"""Persistent replay-memo store: warm-start block memo tables.

A :class:`repro.sim.replay.ReplayCore` learns its per-block memo tables
from scratch in every process — without a store, every engine worker
and every fresh run re-pays the memo misses for traces it has replayed
many times before.  This module persists the learned state
(:meth:`~repro.sim.replay.ReplayCore.export_memo` payloads) into the
content-addressed cache directory alongside the trace-v2 entries, so
cold processes start warm.

Keying
------
A payload is valid only for one exact replay context, so the key is a
SHA-256 over the memo format tag, the package version, the trace's
timing-semantics fingerprint
(:meth:`repro.sim.trace.Trace.fingerprint`), the machine's
:meth:`~repro.machine.config.MachineConfig.fingerprint`, and the replay
mode (``observe``/``want_times`` — memo entries store mode-dependent
payloads).

Hygiene
-------
Entries live under ``<cache-root>/memo/<key[:2]>/<key>.pkl``, written
atomically (temp file + fsync + ``os.replace``) so concurrent workers
can share a directory.  Each payload carries its own format tag; a
stale or corrupt entry — unreadable pickle, wrong tag or mode, or a
structure the core's :meth:`~repro.sim.replay.ReplayCore.adopt_memo`
validation rejects — is *dropped* and the replay starts cold, exactly
mirroring the trace-cache recovery path.

Counters flow to :mod:`repro.obs.metrics` under ``cache.memo_*`` with
the same conservation law as the trace cache
(``gets == hits + misses + corrupt``), enforced by the report-schema
validator.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass

from .. import __version__
from ..machine.config import MachineConfig
from .replay import MEMO_PAYLOAD_FORMAT, ReplayCore, ReplayOutcome
from .trace import Trace


@dataclass(slots=True)
class MemoStats:
    """Hit/miss/corrupt-drop/store counts for one memo-store handle.

    Same conservation law as the trace cache: every ``load()`` (plus
    every adopted-then-rejected payload, which moves from ``hits`` to
    ``corrupt``) ends as exactly one of hit / miss / corrupt-drop, so
    ``gets == hits + misses + corrupt`` holds exactly.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    #: Orphaned temp files removed by the startup janitor — outside
    #: the ``gets == hits + misses + corrupt`` conservation law.
    debris: int = 0

    @property
    def gets(self) -> int:
        return self.hits + self.misses + self.corrupt

    def as_dict(self) -> dict:
        return {"gets": self.gets, "hits": self.hits,
                "misses": self.misses, "corrupt": self.corrupt,
                "stores": self.stores, "debris": self.debris}

    def record_to(self, metrics) -> None:
        """Fold into a metrics registry under ``cache.memo_*``."""
        if not metrics.enabled:
            return
        metrics.incr("cache.memo_gets", self.gets)
        metrics.incr("cache.memo_hits", self.hits)
        metrics.incr("cache.memo_misses", self.misses)
        metrics.incr("cache.memo_corrupt", self.corrupt)
        metrics.incr("cache.memo_stores", self.stores)
        if self.debris:
            metrics.incr("cache.memo_debris", self.debris)
            self.debris = 0


def memo_key(trace: Trace, config: MachineConfig, *,
             observe: bool = False, want_times: bool = False) -> str:
    """Content hash identifying one (trace, machine, mode) replay."""
    payload = json.dumps(
        [
            MEMO_PAYLOAD_FORMAT,
            __version__,
            trace.fingerprint(),
            repr(config.fingerprint()),
            bool(observe),
            bool(want_times),
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class MemoStore:
    """A persistent replay-memo store rooted at one directory."""

    enabled = True

    def __init__(self, root: str) -> None:
        self.root = root
        self.stats = MemoStats()
        if root:
            # Startup janitor: clear crash debris left by killed
            # writers (once per process per root; the import is
            # deferred because engine.cache imports this package).
            from ..engine.cache import sweep_debris
            self.stats.debris = sweep_debris(root)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def load(self, key: str) -> dict | None:
        """The persisted payload for ``key``, or ``None`` (a miss)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, ValueError, KeyError):
            self.drop(path)
            self.stats.corrupt += 1
            return None
        if not isinstance(payload, dict) \
                or payload.get("format") != MEMO_PAYLOAD_FORMAT:
            self.drop(path)
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return payload

    def drop(self, path: str) -> None:
        """Remove one entry file, ignoring races."""
        try:
            os.remove(path)
        except OSError:
            pass

    def reject(self, key: str) -> None:
        """A loaded payload failed deep validation: reclassify the hit
        as a corrupt drop and remove the entry."""
        self.drop(self.path_for(key))
        self.stats.hits -= 1
        self.stats.corrupt += 1

    def store(self, key: str, payload: dict) -> None:
        """Write one entry atomically (safe under concurrent writers)."""
        path = self.path_for(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1


class NullMemoStore(MemoStore):
    """Disabled store: every lookup misses, nothing is written."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(root="")

    def load(self, key: str) -> dict | None:
        return None

    def reject(self, key: str) -> None:
        pass

    def store(self, key: str, payload: dict) -> None:
        pass


#: Shared disabled store; safe to pass anywhere a store is expected.
NULL_MEMO_STORE = NullMemoStore()


def open_memo_store(cache) -> MemoStore:
    """The memo store living inside a trace cache's directory.

    Disabled caches (``--no-cache`` runs) yield the shared disabled
    store, keeping cacheless runs byte-for-byte deterministic.
    """
    if cache is None or not getattr(cache, "enabled", False):
        return NULL_MEMO_STORE
    return MemoStore(os.path.join(cache.root, "memo"))


#: Process-wide payload registry: engine groups replay the same trace
#: on many machines back to back, so freshly exported payloads are kept
#: in memory (bounded LRU) and shared without a disk round trip.
_REGISTRY: OrderedDict[str, dict] = OrderedDict()
_REGISTRY_MAX = 64


def _registry_get(key: str) -> dict | None:
    payload = _REGISTRY.get(key)
    if payload is not None:
        _REGISTRY.move_to_end(key)
    return payload


def _registry_put(key: str, payload: dict) -> None:
    _REGISTRY[key] = payload
    _REGISTRY.move_to_end(key)
    while len(_REGISTRY) > _REGISTRY_MAX:
        _REGISTRY.popitem(last=False)


def clear_registry() -> None:
    """Drop the in-process payload registry (tests)."""
    _REGISTRY.clear()


def replay_with_memo(
    store: MemoStore, trace: Trace, config: MachineConfig, *,
    observe: bool = False, want_times: bool = False,
) -> ReplayOutcome:
    """Replay ``trace`` on ``config``, warm-started from ``store``.

    Looks the payload up in the in-process registry, then on disk;
    adopts it into a fresh core (dropping it if stale/corrupt), runs,
    and shares the learned state back — to the registry always, to disk
    only when this run actually learned something new (fresh payload or
    new memo misses), so steady-state replays never rewrite the file.
    """
    if not store.enabled:
        # Cacheless runs stay byte-for-byte deterministic across
        # serial/parallel topologies: no registry, no adoption.
        return ReplayCore(trace, config, observe=observe,
                          want_times=want_times).run()
    key = memo_key(trace, config, observe=observe,
                   want_times=want_times)
    payload = _registry_get(key)
    from_disk = False
    if payload is None:
        payload = store.load(key)
        from_disk = True
    core = ReplayCore(trace, config, observe=observe,
                      want_times=want_times)
    adopted = payload is not None and core.adopt_memo(payload)
    if payload is not None and not adopted:
        if from_disk:
            store.reject(key)
        else:
            _REGISTRY.pop(key, None)
        payload = None
    outcome = core.run()
    if payload is None or outcome.stats.memo_misses > 0:
        payload = core.export_memo()
        store.store(key, payload)
    _registry_put(key, payload)
    return outcome
