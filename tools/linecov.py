"""Statements of ``src/padicsde`` that a pytest run never executes.

    PYTHONPATH=src python -m pytest -q -p tools.linecov --linecov-report FILE

A stdlib-only pytest plugin, for hosts without the ``coverage`` package.
With ``--linecov-report`` it traces every line that runs in the package's
modules (``sys.settrace``, in every thread the suite starts), and at the
end of the session writes to FILE, per module, the statements that never
ran, then the totals.  A statement is a line that holds bytecode: a line
number of one of the module's code objects (``co_lines``).  Only the
pytest process is traced, so a line that runs only in a child process
(the demos, a CLI run in a subprocess) is reported as not run.  Without
the option the plugin does nothing.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padicsde"

_hits: dict[str, set[int]] = {}      # package file -> lines run
_files: dict[str, str | None] = {}   # co_filename -> package file or None


def _file_of(filename: str) -> str | None:
    """The package module that ``filename`` names, or None."""
    path = Path(os.path.realpath(filename))
    return str(path) if path.parent == PACKAGE else None


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    # the global tracer: only frames of the package get the line tracer
    filename = frame.f_code.co_filename
    try:
        key = _files[filename]
    except KeyError:
        key = _files[filename] = _file_of(filename)
    if key is None:
        return None
    _hits.setdefault(filename, set())
    return _line(frame, event, arg)


def statements(source: str, filename: str) -> set[int]:
    """The lines of ``source`` that hold bytecode."""
    lines: set[int] = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo += (c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def unexecuted_runs(stmts, run) -> list[str]:
    """The statements not in ``run``, as ranges ("12", "30-41") that hold
    no statement that ran."""
    out: list[list[int]] = []
    fresh = True
    for line in sorted(stmts):
        if line in run:
            fresh = True
        elif fresh:
            out.append([line, line])
            fresh = False
        else:
            out[-1][1] = line
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


def report(hits: dict[str, set[int]]) -> str:
    """One line per module of the package, then the totals."""
    run_by_file: dict[str, set[int]] = {}
    for filename, lines in hits.items():
        run_by_file.setdefault(_file_of(filename), set()).update(lines)
    rows, total, missed = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statements(path.read_text(encoding="utf-8"), str(path))
        run = run_by_file.get(str(path), set())
        runs = unexecuted_runs(stmts, run)
        count = len(stmts - run)
        total += len(stmts)
        missed += count
        rows.append(f"src/padicsde/{path.name}: {count} of {len(stmts)} "
                    f"statements not run" + (f": {', '.join(runs)}"
                                             if runs else ""))
    share = 100.0 * (total - missed) / total if total else 100.0
    rows.append(f"total: {missed} of {total} statements not run "
                f"({share:.1f}% run)")
    return "\n".join(rows) + "\n"


def pytest_addoption(parser):
    parser.addoption("--linecov-report", default=None, metavar="FILE",
                     help="write the statements of src/padicsde that the "
                          "run never executes to FILE")


def pytest_configure(config):
    if config.getoption("--linecov-report"):
        threading.settrace(_call)
        sys.settrace(_call)


def pytest_unconfigure(config):
    target = config.getoption("--linecov-report")
    if target:
        sys.settrace(None)
        threading.settrace(None)
        Path(target).write_text(report(_hits), encoding="utf-8")
