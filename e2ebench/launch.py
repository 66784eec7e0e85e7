"""Child side of the end-to-end benchmark: one fresh ``repro`` process.

``launch.py run OUT.json -- ARGS...`` runs the repro CLI exactly as
``python -m repro ARGS...`` does and, once it has returned, writes the
cells it produced to ``OUT.json`` so the parent can check them against
the reference.  The only hook is a pass-through wrapper that keeps the
return value of the command's entry point (``engine.executor.execute`` for
``suite``, ``obs.report.build_suite_report`` for ``report``); the work
itself runs untouched and untraced.

``launch.py setup KIND`` pays what every fresh process pays before its
first cell: interpreter start, ``import repro.__main__`` and building the
workload's plan (KIND is ``suite`` or ``report``).
"""

from __future__ import annotations

import json
import os
import runpy
import sys


def build_plan(kind: str):
    """The plan a ``suite``/``report`` run over the paper grid builds."""
    from repro.benchmarks import suite
    from repro.engine.plan import plan_sweep
    from repro.machine.presets import paper_machines

    names = [b.name for b in suite.all_benchmarks()]
    return plan_sweep(names, paper_machines(), observe=kind == "report")


def _suite_cells(result) -> list[dict]:
    return [
        {
            "benchmark": c.benchmark, "machine": c.machine,
            "status": c.status, "checksum_ok": c.checksum_ok,
            "instructions": c.instructions,
            "minor_cycles": c.minor_cycles, "base_cycles": c.base_cycles,
        }
        for c in result.cells
    ]


def _report_cells(report, output: str) -> list[dict]:
    """Cells as written to the JSONL report; checksums from the run."""
    checksums = {br.benchmark: br.checksum_ok for br in report.benchmarks}
    cells = []
    with open(output, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("event") != "timing":
                continue
            cells.append({
                "benchmark": event["benchmark"],
                "machine": event["machine"],
                "status": "ok",
                "checksum_ok": checksums.get(event["benchmark"], False),
                "instructions": event["instructions"],
                "minor_cycles": event["minor_cycles"],
                "base_cycles": event["base_cycles"],
                "stalls": event.get("stalls"),
            })
    return cells


class Capture:
    """Keeps the entry point's return value for the command in ``argv``."""

    def __init__(self, argv: list[str]) -> None:
        self.command = argv[0]
        self.output = None
        if self.command == "report":
            self.output = argv[argv.index("-o") + 1]
        self.value = None

    def install(self) -> None:
        if self.command == "suite":
            import repro.engine.executor as module
            name = "execute"
        else:
            import repro.obs.report as module
            name = "build_suite_report"
        original = getattr(module, name)

        def keep(*args, **kwargs):
            self.value = original(*args, **kwargs)
            return self.value

        setattr(module, name, keep)

    def cells(self) -> list[dict] | None:
        if self.value is None:
            return None
        if self.command == "suite":
            return _suite_cells(self.value)
        return _report_cells(self.value, self.output)


def write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        import repro.__main__  # noqa: F401  (the import is the cost)

        build_plan(argv[1])
        return 0
    if argv[:1] != ["run"] or argv[2:3] != ["--"]:
        print("usage: launch.py setup KIND | run OUT.json -- ARGS...",
              file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    capture = Capture(cli_args)
    capture.install()
    sys.argv = ["repro", *cli_args]
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    write_json(out, {"exit_code": code, "cells": capture.cells()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
