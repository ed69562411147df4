"""The line counter ``tools/ncloc.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ncloc", ROOT / "tools" / "ncloc.py")
ncloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ncloc)

MODULE = ('"""A module docstring\n'                 # 1: docstring
          'on two lines."""\n'                      # 2: docstring
          '\n'                                      # 3: blank
          '# a comment\n'                           # 4: comment
          'X = 1  # code with a comment\n'          # 5: code
          '\n'                                      # 6: blank
          '\n'                                      # 7: blank
          'def f(a):\n'                             # 8: code
          '    """One line."""\n'                   # 9: docstring
          '    text = """not a\n'                   # 10: a string: code
          '    docstring"""\n'                      # 11: code
          '        # an indented comment\n'         # 12: comment
          '    return (a +\n'                       # 13: code
          '            text)\n'                     # 14: code
          '\n'                                      # 15: blank
          '\n'                                      # 16: blank
          'class C:\n'                              # 17: code
          '    """Docstring."""\n'                  # 18: docstring
          "    s = 'a string statement'\n"          # 19: code
          "    'no docstring: not first'\n")        # 20: code


def test_counts_skip_blanks_comments_and_docstrings_only():
    assert ncloc.counts(MODULE) == (20, 9)


def test_report_has_a_row_per_module_and_the_totals(tmp_path):
    (tmp_path / "b.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    rows = [row.split() for row in ncloc.report(tmp_path).splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "2", "1"],
                    ["b.py", "20", "9"], ["total", "22", "10"]]


def test_the_package_total_counts_every_physical_line():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ncloc.py")],
                         check=True, capture_output=True, text=True).stdout
    total = out.splitlines()[-1].split()
    assert total[0] == "total"
    assert int(total[1]) == sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in (ROOT / "src" / "padicsde").glob("*.py"))
    assert 0 < int(total[2]) < int(total[1])
