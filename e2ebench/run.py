"""End-to-end benchmark of the repro CLI over the paper grid.

Runs one workload as fresh ``python -m repro ...`` processes (through
``launch.py``, which runs the package exactly as ``-m`` does) from the
root of a source checkout, checks every cell each run produced against
``reference.json`` and prints the metrics, the last line being one JSON
object::

    python3 e2ebench/run.py --workload suite-warm --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace
1`` adds one traced run (``layers.py``) and reports the per-layer
metrics, including the tracing overhead.  ``--workload all`` runs every
workload both ways and prints one table.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from check import check_cells, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Everything a run writes lives under this directory of the checkout.
WORK = os.path.join(ROOT, ".e2ebench")
PYCACHE = os.path.join(WORK, "pycache")

#: Environment variables that change what the program does; never
#: inherited by a child.
SCRUBBED = ("REPRO_FAULTS", "REPRO_CACHE_DIR", "REPRO_LEDGER",
            "REPRO_NO_NUMPY")

MIN_SAMPLES = 4          # timed runs per benchmark run, at least
SETUP_SAMPLES = 5        # set-up probes per benchmark run
RUN_BUDGET_S = 165.0     # a benchmark run never starts work past this

PAPER = ["--machines", "paper"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    warm: bool           # run on a cache primed by one untimed cold run
    why: str

    @property
    def command(self) -> str:
        return self.argv[0]


WORKLOADS = {w.name: w for w in [
    Workload("suite-cold", ("suite", *PAPER), False,
             "a user's first run: compile, interpret and replay, writing "
             "the trace cache and memo store"),
    Workload("suite-warm", ("suite", *PAPER), True,
             "a primed cache: cache and memo reads, plan/SoA rebuilds and "
             "replay, no compilation"),
    Workload("report-warm", ("report", *PAPER, "--quiet"), True,
             "observed replay with stall attribution and JSONL report "
             "writing, which only the report path runs"),
    Workload("suite-cold-w2", ("suite", *PAPER, "--workers", "2"), False,
             "the supervised process pool, result IPC and cross-process "
             "merge, which only a parallel run exercises"),
]}


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    output: str
    #: ``time.monotonic()`` at spawn and at exit (system-wide clock)
    spawned: float = 0.0
    exited: float = 0.0


def child_env() -> dict:
    """The pinned environment every child runs in."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # read the primed cache only
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv: list[str], cwd: str, timeout: float) -> Proc:
    """Run one child to completion; time it from spawn to exit.

    CPU time and peak RSS come from ``wait4``: the child's own usage
    plus that of every descendant it waited for (pool workers), and the
    largest resident set among them.
    """
    out_path = os.path.join(cwd, "output.txt")
    with open(out_path, "wb") as out:
        spawned = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _reap_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        output = handle.read()
    return Proc(wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode, output,
                spawned, exited)


def _python(script: str, *args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, script), *args]


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------

_PRIME = """
import importlib, json, pkgutil, platform, sys
import repro, repro.__main__
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(mod.name)
import runpy, launch, layers, check
try:
    import numpy
    numpy_version = numpy.__version__
except ImportError:
    numpy_version = None
from repro.sim.replay import BACKEND
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy_version, "replay_backend": BACKEND}))
"""


def _src_digest() -> str:
    """SHA-256 over the program's source tree (identifies the code even
    where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def prepare(seed: int) -> dict:
    """Prime the benchmark-owned bytecode cache; return the run context.

    Children read byte code from ``.e2ebench/pycache`` and never write
    it, so every timed process starts with the same, fully compiled
    modules whatever ``PYTHONDONTWRITEBYTECODE`` says outside.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        raise BenchError("no src/repro here: run from the root of a "
                         "repro source checkout")
    os.makedirs(PYCACHE, exist_ok=True)
    env = child_env()
    del env["PYTHONDONTWRITEBYTECODE"]
    env["PYTHONPATH"] += os.pathsep + HERE
    done = subprocess.run([sys.executable, "-c", _PRIME], cwd=WORK, env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError("priming the bytecode cache failed:\n"
                         + done.stderr[-2000:])
    context = json.loads(done.stdout.strip().splitlines()[-1])
    n_pyc = sum(name.endswith(".pyc")
                for _, _, files in os.walk(PYCACHE) for name in files)
    context.update({
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "bytecode_cache": {"primed": True, "pyc_files": n_pyc},
        "scrubbed_env": list(SCRUBBED),
    })
    return context


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------

class Runner:
    """Executes a workload's samples inside one private run directory."""

    def __init__(self, workload: Workload, reference: dict,
                 deadline: float) -> None:
        self.workload = workload
        self.reference = reference
        self.deadline = deadline
        self.run_dir = os.path.join(
            WORK, "runs", f"{workload.name}-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.run_dir)
        self.primed = None
        self.n_samples = 0

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def prime_cache(self) -> None:
        """The untimed cold run whose cache the warm samples start from."""
        cwd = self._new_dir("prime")
        self.primed = os.path.join(cwd, "cache")
        proc = spawn([sys.executable, "-m", "repro", "suite", *PAPER,
                      "--cache-dir", self.primed], cwd, self.remaining())
        if proc.exit_code != 0:
            raise BenchError("priming run failed:\n" + proc.output[-2000:])

    def _new_dir(self, label: str) -> str:
        path = os.path.join(self.run_dir, label)
        os.makedirs(path)
        return path

    def _cli_args(self, cwd: str) -> list[str]:
        cache = os.path.join(cwd, "cache")
        if self.workload.warm:
            shutil.copytree(self.primed, cache)
        args = [*self.workload.argv, "--cache-dir", cache]
        if self.workload.command == "report":
            args += ["-o", os.path.join(cwd, "report.jsonl")]
        return args

    def _verify(self, proc: Proc, captured: str) -> list[str]:
        """Failed-cell messages for one finished run."""
        cells = None
        if os.path.exists(captured):
            with open(captured, encoding="utf-8") as handle:
                cells = json.load(handle)["cells"]
        if proc.exit_code != 0:
            cells = None
        required = ("conservation law: holds"
                    if self.workload.command == "report"
                    else "checksums: all ok")
        if required not in proc.output:
            cells = None
        return check_cells(self.reference, cells,
                           stalls=self.workload.command == "report")

    def sample(self) -> tuple[Proc, list[str]]:
        """One timed, untraced CLI process."""
        self.n_samples += 1
        cwd = self._new_dir(f"sample-{self.n_samples}")
        captured = os.path.join(cwd, "cells.json")
        proc = spawn(_python("launch.py", "run", captured, "--",
                             *self._cli_args(cwd)), cwd, self.remaining())
        failures = self._verify(proc, captured)
        shutil.rmtree(cwd, ignore_errors=True)
        return proc, failures

    def setup_probe(self) -> Proc:
        """One fresh process paying only start-up and plan building."""
        cwd = self._new_dir(f"setup-{time.time_ns()}")
        proc = spawn(_python("launch.py", "setup", self.workload.command),
                     cwd, self.remaining())
        shutil.rmtree(cwd, ignore_errors=True)
        if proc.exit_code != 0:
            raise BenchError("set-up probe failed:\n" + proc.output[-2000:])
        return proc

    def traced(self) -> tuple[Proc, dict, list[str]]:
        """The traced in-process run (``layers.py``)."""
        cwd = self._new_dir("traced")
        out = os.path.join(cwd, "layers.json")
        proc = spawn(_python("layers.py", out, cwd, "--",
                             *self._cli_args(cwd)), cwd, self.remaining())
        failures = self._verify(proc, out)
        raw: dict = {}
        if os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                raw = json.load(handle)
        raw["workers"] = []
        for name in sorted(os.listdir(cwd)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(cwd, name), encoding="utf-8") as f:
                    raw["workers"].append(json.load(f))
        report = os.path.join(cwd, "report.jsonl")
        raw["report_bytes"] = (os.path.getsize(report)
                               if os.path.exists(report) else 0)
        return proc, raw, failures


def _fits(runner: Runner, longest: float) -> bool:
    """Whether one more sample of ``longest`` seconds fits the budget."""
    return runner.remaining() > 1.5 * longest + 5.0


def measure(workload: Workload, *, seed: int, seconds: float, trace: bool,
            reference: dict, start: float) -> dict:
    """Run one workload; returns the result document."""
    rng = random.Random(f"{seed}:{workload.name}:{int(trace)}")
    runner = Runner(workload, reference, start + RUN_BUDGET_S)
    samples: list[Proc] = []
    setups: list[Proc] = []
    failures: list[str] = []
    order: list[str] = []
    try:
        if workload.warm:
            runner.prime_cache()
        setup_left = 0 if trace else SETUP_SAMPLES
        t0 = time.monotonic()
        while True:
            longest = max((p.wall_s for p in samples), default=0.0)
            more = (len(samples) < MIN_SAMPLES
                    or time.monotonic() - t0 < seconds)
            if samples and not _fits(runner, longest):
                more = False
            steps = (["sample"] if more else []) + (
                ["setup"] if setup_left else [])
            if not steps:
                break
            rng.shuffle(steps)
            for step in steps:
                order.append(step)
                if step == "setup":
                    setups.append(runner.setup_probe())
                    setup_left -= 1
                else:
                    proc, bad = runner.sample()
                    samples.append(proc)
                    failures += bad
        n_cells = len(reference["cells"])
        doc = {
            "workload": workload.name,
            "trace": trace,
            "order": order,
            "samples": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                         "peak_rss_mb": p.peak_rss_mb,
                         "exit_code": p.exit_code} for p in samples],
            "setup_samples": [p.wall_s for p in setups],
            "attempted": n_cells * len(samples),
        }
        if trace:
            longest = max(p.wall_s for p in samples)
            if not _fits(runner, 1.5 * longest):
                raise BenchError("no time left for the traced run")
            proc, raw, bad = runner.traced()
            failures += bad
            doc["attempted"] += n_cells
            doc["metrics"] = layer_metrics(raw, proc, samples)
            doc["missing_targets"] = raw.get("missing", [])
        else:
            doc["metrics"] = e2e_metrics(samples, setups)
        doc["failures"] = failures
        doc["failed"] = len(failures)
        return doc
    finally:
        runner.close()


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def e2e_metrics(samples: list[Proc], setups: list[Proc]) -> dict:
    """Medians over the run's samples."""
    return {
        "wall_s": statistics.median(p.wall_s for p in samples),
        "cpu_s": statistics.median(p.cpu_s for p in samples),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in samples),
        "setup_s": statistics.median(p.wall_s for p in setups),
    }


#: Per-layer metrics read straight from the traced run's accumulators.
LAYER_SECONDS = [
    "startup.plan_s",
    "lang.parse_s", "lang.check_s", "lang.codegen_s",
    "opt.unroll_s", "opt.local_s", "opt.global_s", "opt.regalloc_s",
    "opt.temp_alloc_s", "opt.pipeline_s",
    "sched.schedule_s",
    "interp.run_s",
    "cache.load_s", "cache.store_s",
    "trace.fingerprint_s",
    "replay.plan_build_s", "replay.plan_vec_build_s",
    "replay.core_vec_build_s", "replay.run_s",
    "memo.load_s", "memo.adopt_s", "memo.store_s",
    "stalls.observed_replay_s",
    "report.build_s", "report.write_s",
    "engine.self_s", "engine.pool_start_s", "engine.dispatch_wait_s",
    "engine.pool_stop_s", "engine.worker_busy_s",
]
LAYER_COUNTS = [
    "lang.units", "opt.static_instrs", "sched.blocks",
    "interp.instructions",
    "cache.hits", "cache.misses", "cache.bytes_read", "cache.bytes_written",
    "trace.fingerprint_calls", "replay.fallback_blocks",
    "memo.hits", "memo.misses", "memo.stores", "memo.bytes_written",
    "stalls.charge_calls",
    "engine.payload_bytes", "engine.retries", "engine.failed_cells",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, proc: Proc, samples: list[Proc]) -> dict:
    """Per-layer metrics of one traced run (workers summed in)."""
    seconds: dict[str, float] = dict(raw.get("seconds", {}))
    counts: dict[str, int] = dict(raw.get("counts", {}))
    for worker in raw.get("workers", []):
        for key, value in worker["seconds"].items():
            seconds[key] = seconds.get(key, 0.0) + value
        for key, value in worker["counts"].items():
            counts[key] = counts.get(key, 0) + value
    untraced_wall = statistics.median(p.wall_s for p in samples)
    interpreter_s = exit_s = 0.0
    if "script_start" in raw:
        interpreter_s = raw["script_start"] - proc.spawned
        exit_s = proc.exited - raw["main_end"]
    covered = raw.get("covered_s", 0.0) + interpreter_s + exit_s
    metrics = {
        "startup.interpreter_s": interpreter_s,
        "startup.import_s": raw.get("import_s", 0.0),
        "startup.layer_import_s": raw.get("layer_import_s", 0.0),
    }
    metrics.update({name: seconds.get(name, 0.0) for name in LAYER_SECONDS})
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    metrics.update({
        "interp.instr_per_s": _ratio(counts.get("interp.instructions", 0),
                                     seconds.get("interp.run_s", 0.0)),
        "replay.instr_per_s": _ratio(counts.get("replay.instructions", 0),
                                     seconds.get("replay.run_s", 0.0)),
        "replay.memo_share": _ratio(
            counts.get("replay.memo_instructions", 0),
            counts.get("replay.memo_instructions", 0)
            + counts.get("replay.direct_instructions", 0)),
        "replay.vectorized_share": _ratio(
            counts.get("replay.vectorized_blocks", 0),
            counts.get("replay.blocks", 0)),
        "report.bytes": raw.get("report_bytes", 0),
        "traced.wall_s": proc.wall_s,
        "shutdown.exit_s": exit_s,
        "traced.untraced_share": max(0.0, 1.0 - _ratio(covered, proc.wall_s)),
        "traced.overhead_share": proc.wall_s / untraced_wall - 1.0,
    })
    return metrics


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_rate")):
        return "ratio"
    return "B" if "bytes" in name else "count"


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _result_line(doc: dict) -> str:
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in doc["metrics"].items()},
    })


def _print_human(doc: dict, context: dict) -> None:
    samples = doc["samples"]
    print(f"workload {doc['workload']} (trace={int(doc['trace'])}): "
          f"{len(samples)} timed runs, "
          f"{len(doc['setup_samples'])} set-up probes, order "
          f"{' '.join(doc['order'])}")
    for name, value in doc["metrics"].items():
        print(f"  {name:28s} {value:16.6g} {unit_of(name)}")
    rate = _ratio(doc["failed"], doc["attempted"])
    print(f"  {'cell_error_rate':28s} {rate:16.6g} ratio "
          f"({doc['failed']} of {doc['attempted']} cells)")
    for message in doc["failures"][:10]:
        print(f"  FAILED {message}")
    print("context: " + json.dumps(context, sort_keys=True))


def _save(doc: dict, context: dict, seed: int) -> None:
    path = os.path.join(WORK, "results",
                        f"{doc['workload']}-seed{seed}-trace"
                        f"{int(doc['trace'])}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"context": context, **doc}, handle, indent=1)


def run_all(seed: int, seconds: float, reference: dict,
            context: dict) -> int:
    """Every workload, untraced then traced, as one table."""
    names = list(WORKLOADS)
    random.Random(seed).shuffle(names)
    rows = {}
    for name in names:
        for trace in (False, True):
            doc = measure(WORKLOADS[name], seed=seed, seconds=seconds,
                          trace=trace, reference=reference,
                          start=time.monotonic())
            _save(doc, context, seed)
            _print_human(doc, context)
            rows.setdefault(name, {}).update(doc["metrics"])
            rows[name]["cell_error_rate"] = _ratio(doc["failed"],
                                                   doc["attempted"])
    order = sorted(WORKLOADS)
    metrics = list(E2E_UNITS) + ["cell_error_rate"] + [
        m for m in rows[order[0]] if m not in E2E_UNITS
        and m != "cell_error_rate"]
    print()
    print(f"{'metric':30s} {'unit':6s} " + " ".join(f"{w:>14s}"
                                                    for w in order))
    for metric in metrics:
        print(f"{metric:30s} {unit_of(metric):6s} " + " ".join(
            f"{rows[w].get(metric, 0):14.6g}" for w in order))
    failed = sum(rows[w]["cell_error_rate"] > 0 for w in order)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end CLI benchmark of repro over the paper grid")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        reference = load_reference()
        context = prepare(args.seed)
        if args.workload == "all":
            return run_all(args.seed, args.seconds, reference, context)
        doc = measure(WORKLOADS[args.workload], seed=args.seed,
                      seconds=args.seconds, trace=bool(args.trace),
                      reference=reference, start=start)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    _save(doc, context, args.seed)
    _print_human(doc, context)
    print(_result_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
