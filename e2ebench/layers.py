"""Traced run of the repro CLI: per-layer busy time and counts, from outside.

``layers.py OUT.json WORKDIR -- ARGS...`` imports ``repro.__main__``
(timed), replaces the public functions named in :data:`TARGETS` with
timing or counting wrappers in every ``repro`` module that holds them,
then runs ``repro.__main__.main(ARGS)`` in this process.  Nothing inside
``src/`` is changed.

Every timed wrapper records *self* time: its span's duration minus the
part covered by wrapped calls nested inside it, so the layer seconds of
one process add up to the time its top-level spans cover.  Pool workers
are forked from this process and inherit the wrappers; each worker
writes its own totals to ``WORKDIR/worker-<pid>.json`` after every task
and the parent adds them up (busy seconds summed over processes).

``OUT.json`` receives the raw seconds and counts, the time the main
process's spans cover, when the script started and when the command
returned (so the parent can attribute interpreter start-up and exit),
the produced cells (for the reference check) and the names of any
target that no longer exists (its metrics then read 0).
"""

from __future__ import annotations

import time

#: When this script started running (``CLOCK_MONOTONIC``, comparable
#: with the parent's spawn stamp): the time before it is interpreter
#: start-up.
SCRIPT_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

from launch import Capture, write_json

#: Targets as ``(module, attribute, metric)``.  ``attribute`` may name a
#: class method (``Class.method``); ``metric`` names the busy-seconds
#: metric that receives the call's self time (``None`` for the call
#: counters in :data:`COUNTED`).  Counts and derived values come from the
#: after-hooks in :func:`_hooks`.
TARGETS = [
    ("repro.engine.plan", "plan_sweep", "startup.plan_s"),
    ("repro.lang.parser", "parse", "lang.parse_s"),
    ("repro.lang.semantics", "check", "lang.check_s"),
    ("repro.lang.codegen", "generate", "lang.codegen_s"),
    ("repro.opt.unroll", "unroll_module", "opt.unroll_s"),
    ("repro.opt.unroll", "resolve_partial_decls", "opt.unroll_s"),
    ("repro.opt.local", "value_number_function", "opt.local_s"),
    ("repro.opt.local", "dead_code_elimination", "opt.local_s"),
    ("repro.opt.cleanup", "cleanup_control_flow", "opt.local_s"),
    ("repro.opt.globalopt", "loop_invariant_code_motion", "opt.global_s"),
    ("repro.opt.regalloc", "promote_variables", "opt.regalloc_s"),
    ("repro.opt.regalloc", "assign_temporaries", "opt.temp_alloc_s"),
    ("repro.opt.driver", "compile_module", "opt.pipeline_s"),
    ("repro.sched.registry", "SchedulerBackend.schedule_function",
     "sched.schedule_s"),
    ("repro.sched.listsched", "ListScheduler.schedule_block", None),
    ("repro.sim.interp", "run", "interp.run_s"),
    ("repro.engine.cache", "TraceCache.load", "cache.load_s"),
    ("repro.engine.cache", "TraceCache.store", "cache.store_s"),
    ("repro.sim.trace", "Trace.fingerprint", "trace.fingerprint_s"),
    ("repro.sim.replay", "build_plan", "replay.plan_build_s"),
    ("repro.sim.replay_vec", "build_plan_vec", "replay.plan_vec_build_s"),
    ("repro.sim.replay_vec", "build_core_vec", "replay.core_vec_build_s"),
    ("repro.sim.replay", "ReplayCore.__init__", "replay.run_s"),
    ("repro.sim.replay", "ReplayCore.run", "replay.run_s"),
    ("repro.sim.memo", "MemoStore.load", "memo.load_s"),
    ("repro.sim.replay", "ReplayCore.adopt_memo", "memo.adopt_s"),
    ("repro.sim.memo", "MemoStore.store", "memo.store_s"),
    ("repro.obs.stalls", "StallBreakdown.charge", None),
    ("repro.obs.report", "build_suite_report", "report.build_s"),
    ("repro.obs.recorder", "Recorder.emit", "report.write_s"),
    ("repro.obs.recorder", "JsonlRecorder.close", "report.write_s"),
    ("repro.engine.executor", "execute", "engine.self_s"),
    ("repro.engine.executor", "_run_group_task", "engine.self_s"),
    ("concurrent.futures.process", "ProcessPoolExecutor.__init__",
     "engine.pool_start_s"),
    ("concurrent.futures.process",
     "ProcessPoolExecutor._start_executor_manager_thread",
     "engine.pool_start_s"),
    ("repro.engine.resilience", "wait", "engine.dispatch_wait_s"),
    ("repro.engine.resilience", "_kill_pool", "engine.pool_stop_s"),
]


class Probe:
    """Self-time and count accumulators for one process."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: one ``[calls]`` cell per counted-only target
        self.calls: dict[str, list[int]] = {}
        #: one ``[nested seconds]`` cell per active timed span
        self.stack: list[list[float]] = []
        #: time covered by top-level spans (main thread of this process)
        self.covered = 0.0
        self.worker_dir: str | None = None

    def reset(self) -> None:
        """Start a forked worker from zero (wrappers hold these objects,
        so they are cleared in place)."""
        self.seconds.clear()
        self.counts.clear()
        for cell in self.calls.values():
            cell[0] = 0
        self.stack.clear()
        self.covered = 0.0

    def timed(self, fn, metric, after=None):
        seconds, stack = self.seconds, self.stack
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                name = metric(args) if callable(metric) else metric
                seconds[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    probe.covered += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def counted(self, fn, metric):
        """Call counter without timing.  ``StallBreakdown.charge`` runs
        millions of times per report, so its counter takes the method's
        exact positional signature: argument packing would add twice the
        overhead."""
        cell = self.calls.setdefault(metric, [0])
        if metric == "stalls.charge_calls":
            @functools.wraps(fn)
            def charge(self, klass, cause_index, cycles):
                cell[0] += 1
                return fn(self, klass, cause_index, cycles)

            return charge

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict:
        counts = dict(self.counts)
        counts.update((name, cell[0]) for name, cell in self.calls.items())
        return {"seconds": self.seconds, "counts": counts}

    def flush_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        write_json(path, self.totals())


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _hooks(probe: Probe) -> dict:
    """Per-target extras: (metric override, after-hook) by attribute."""
    counts = probe.counts

    def parsed(args, module, elapsed):
        counts["lang.units"] += 1

    def compiled(args, program, elapsed):
        from repro.obs.profile import program_size

        counts["opt.static_instrs"] += program_size(program)[0]

    def interp_done(args, result, elapsed):
        counts["interp.instructions"] += result.instructions

    def cache_loaded(args, result, elapsed):
        cache, key = args[0], args[1]
        if result is None:
            counts["cache.misses"] += 1
        else:
            counts["cache.hits"] += 1
            counts["cache.bytes_read"] += _file_size(cache.path_for(key))

    def cache_stored(args, result, elapsed):
        counts["cache.bytes_written"] += _file_size(
            args[0].path_for(args[1]))

    def fingerprinted(args, result, elapsed):
        counts["trace.fingerprint_calls"] += 1

    def replayed(args, outcome, elapsed):
        core = args[0]
        if core.observe:
            return
        stats = outcome.stats
        counts["replay.instructions"] += len(core.trace)
        counts["replay.memo_instructions"] += stats.memo_instructions
        counts["replay.direct_instructions"] += stats.direct_instructions
        counts["replay.blocks"] += stats.blocks
        counts["replay.vectorized_blocks"] += stats.vectorized_blocks
        counts["replay.fallback_blocks"] += stats.scalar_fallback_blocks

    def memo_loaded(args, result, elapsed):
        counts["memo.hits" if result is not None else "memo.misses"] += 1

    def memo_stored(args, result, elapsed):
        counts["memo.stores"] += 1
        counts["memo.bytes_written"] += _file_size(
            args[0].path_for(args[1]))

    def executed(args, result, elapsed):
        counts["engine.retries"] += result.report.group_retries
        counts["engine.failed_cells"] += result.report.failed_cells

    def task_done(args, result, elapsed):
        from multiprocessing.reduction import ForkingPickler

        probe.seconds["engine.worker_busy_s"] += elapsed
        counts["engine.payload_bytes"] += len(ForkingPickler.dumps(result))
        probe.flush_worker()

    def replay_metric(args):
        return ("stalls.observed_replay_s" if args[0].observe
                else "replay.run_s")

    return {
        "parse": (None, parsed),
        "compile_module": (None, compiled),
        "run": (None, interp_done),
        "TraceCache.load": (None, cache_loaded),
        "TraceCache.store": (None, cache_stored),
        "Trace.fingerprint": (None, fingerprinted),
        "ReplayCore.__init__": (replay_metric, None),
        "ReplayCore.run": (replay_metric, replayed),
        "MemoStore.load": (None, memo_loaded),
        "MemoStore.store": (None, memo_stored),
        "execute": (None, executed),
        "_run_group_task": (None, task_done),
    }


#: Targets that only count calls (hot paths: no timing).
COUNTED = {
    "StallBreakdown.charge": "stalls.charge_calls",
    "ListScheduler.schedule_block": "sched.blocks",
}


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module global that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


def _install(probe: Probe) -> list[str]:
    """Wrap every target; returns the ones that could not be found."""
    hooks = _hooks(probe)
    missing = []
    for module_name, attr, metric in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        if attr in COUNTED:
            wrapper = probe.counted(original, COUNTED[attr])
        else:
            override, after = hooks.get(attr, (None, None))
            wrapper = probe.timed(original, override or metric, after)
        setattr(owner, name, wrapper)
        if not owner_name:
            _replace_everywhere(original, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: layers.py OUT.json WORKDIR -- ARGS...",
              file=sys.stderr)
        return 2
    out, workdir, cli_args = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    import repro.__main__ as cli

    import_s = time.perf_counter() - t0
    probe = Probe()
    probe.worker_dir = workdir
    capture = Capture(cli_args)
    t1 = time.perf_counter()
    capture.install()
    missing = _install(probe)
    layer_import_s = time.perf_counter() - t1
    os.register_at_fork(after_in_child=probe.reset)
    code = cli.main(cli_args)
    main_end = time.monotonic()
    write_json(out, {
        "exit_code": code,
        "cells": capture.cells(),
        **probe.totals(),
        "import_s": import_s,
        "layer_import_s": layer_import_s,
        "script_start": SCRIPT_START,
        "main_end": main_end,
        "covered_s": import_s + layer_import_s + probe.covered,
        "missing": missing,
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
