"""The stdlib statement tracer of ``tools/linecov.py``."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "linecov", ROOT / "tools" / "linecov.py")
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)


def test_statements_are_the_lines_that_hold_bytecode():
    source = ('"""doc"""\n'          # 1: stores __doc__
              "def f(x):\n"          # 2
              '    """doc"""\n'      # 3: no bytecode
              "    if x:\n"          # 4
              "        return 1\n"   # 5
              "    # note\n"         # 6
              "\n"                   # 7
              "    return (x +\n"    # 8
              "            2)\n")    # 9
    assert {1, 2, 4, 5, 8} <= linecov.statements(source, "f.py")
    assert not {3, 6, 7} & linecov.statements(source, "f.py")


def test_unexecuted_runs_break_only_at_a_statement_that_ran():
    stmts = {1, 2, 4, 5, 8, 10, 12}
    assert linecov.unexecuted_runs(stmts, {1, 8}) == ["2-5", "10-12"]
    assert linecov.unexecuted_runs(stmts, stmts) == []
    assert linecov.unexecuted_runs(stmts, set()) == ["1-12"]


def test_plugin_reports_the_lines_a_run_did_not_reach(tmp_path):
    # ``from_rational``'s zero-denominator refusal runs in
    # tests/test_refusals.py, and nothing there runs the CLI
    report = tmp_path / "linecov.txt"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tools.linecov", "--linecov-report", str(report),
         "tests/test_refusals.py"],
        cwd=ROOT, env=env, check=True, capture_output=True)
    rows = report.read_text(encoding="utf-8").splitlines()
    modules = sorted(p.name for p in linecov.PACKAGE.glob("*.py"))
    assert [r.split(":")[0] for r in rows[:-1]] == [
        f"src/padicsde/{m}" for m in modules]
    assert rows[-1].startswith("total: ")
    padic = (linecov.PACKAGE / "padic.py").read_text().splitlines()
    raise_line = padic.index('            raise ZeroDivisionError("zero '
                             'inverse")') + 1
    padic_row = rows[modules.index("padic.py")]
    missed = set()
    runs = padic_row.partition("not run: ")[2]
    for part in filter(None, runs.split(", ")):
        a, _, b = part.partition("-")
        missed.update(range(int(a), int(b or a) + 1))
    assert raise_line not in missed
    cli_row = rows[modules.index("cli.py")]
    count, _, total = cli_row.split(": ")[1].partition(" of ")
    assert count == total.split()[0]
