"""The site enumerator and site selection of the mutation sampler
``tools/mutants.py``."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = ('def f(a, b):\n'                          # 1
          '    x = a + b * 2\n'                     # 2
          '    if a < b and b >= 0:\n'              # 3
          '        x -= 1\n'                        # 4
          '    s = f"{a + 1}"\n'                    # 5: inside an f-string
          '    y = a or b and c\n'                  # 6
          '    return x // 3 == a % b or True\n')   # 7: True is no int


def test_sites_are_the_listed_operators_and_integer_literals():
    got = [(s.line, s.old, s.new) for s in mutants.sites(SOURCE)]
    assert got == [
        (2, "+", "-"), (2, "2", "3"),
        (3, "<", "<="), (3, "and", "or"), (3, ">=", ">"), (3, "0", "1"),
        (4, "-=", "+="), (4, "1", "2"),
        (6, "or", "and"), (6, "and", "or"),
        (7, "//", "%"), (7, "3", "4"), (7, "==", "!="), (7, "%", "//"),
        (7, "or", "and"),
    ]


def test_a_site_splices_its_token_only():
    (site,) = [s for s in mutants.sites(SOURCE, lines={3})
               if s.old == "and"]
    assert (site.line, site.col, site.text) == (3, 13,
                                                "if a < b and b >= 0:")
    lines = mutants.splice(SOURCE, site).splitlines()
    assert lines[2] == "    if a < b or b >= 0:"
    assert lines[:2] + lines[3:] == SOURCE.splitlines()[:2] + \
        SOURCE.splitlines()[3:]


def test_sites_keep_to_the_changed_lines_and_count_repeats():
    source = "x = 1 + 1\ny = 2\n"
    got = [(s.line, s.col, s.old, s.nth)
           for s in mutants.sites(source, lines={1})]
    assert got == [(1, 4, "1", 0), (1, 6, "+", 0), (1, 8, "1", 1)]


def test_changed_lines_are_the_new_side_of_each_hunk():
    diff = ("diff --git a/src/x.py b/src/x.py\n"
            "--- a/src/x.py\n"
            "+++ b/src/x.py\n"
            "@@ -3 +3,2 @@\n"
            "@@ -10,2 +12 @@\n"
            "@@ -20 +20,0 @@\n"
            "--- a/src/gone.py\n"
            "+++ /dev/null\n"
            "@@ -1,4 +0,0 @@\n")
    assert mutants.changed_lines(diff) == {"src/x.py": {3, 4, 12}}


def test_stale_equivalents_are_the_entries_without_one_site(tmp_path):
    (tmp_path / "m.py").write_text("x = 1 + 1\ny = x >= 2\n")
    fresh = {"path": "m.py", "line": "x = 1 + 1", "old": "1", "new": "2",
             "nth": 1, "reason": "r"}
    moved = {**fresh, "line": "x = 1 + 2"}
    # the site of that line swaps ">=", not ">"
    wrong_token = {**fresh, "line": "y = x >= 2", "old": ">", "new": ">="}
    assert mutants.stale_entries([fresh, moved, wrong_token], tmp_path) == \
        [moved, wrong_token]


def test_the_equivalents_list_gives_each_entry_a_reason():
    known = json.loads(mutants.EQUIVALENT.read_text(encoding="utf-8"))
    assert len(known) >= 5
    for entry in known:
        assert set(entry) == {"path", "line", "old", "new", "nth", "reason"}
        assert entry["path"].startswith("src/padicsde/") and entry["reason"]


def test_the_committed_equivalents_name_one_site_each():
    # an entry whose line changed would match no site; tools/mutants.py
    # runs the suite without this test, since a mutant at a listed site
    # changes that line on purpose
    known = json.loads(mutants.EQUIVALENT.read_text(encoding="utf-8"))
    assert mutants.stale_entries(known) == []
    assert mutants.STALE_TEST == "tests/test_mutants.py::" + \
        test_the_committed_equivalents_name_one_site_each.__name__


def _package(root, source):
    path = root / mutants.PACKAGE / "m.py"
    path.parent.mkdir(parents=True)
    path.write_text(source, encoding="utf-8")
    return path


def test_module_sites_are_every_site_of_that_module(tmp_path):
    _package(tmp_path, SOURCE)
    got = mutants.module_sites("m", tmp_path)
    assert got == mutants.sites(SOURCE, "src/padicsde/m.py")
    assert len(got) == 15 and {s.path for s in got} == {"src/padicsde/m.py"}


def test_all_sites_are_every_module_in_path_order(tmp_path):
    _package(tmp_path, SOURCE)
    pkg = tmp_path / mutants.PACKAGE
    (pkg / "a.py").write_text("x = 1 + 1\n", encoding="utf-8")
    (pkg / "notes.txt").write_text("y = 2 + 2\n", encoding="utf-8")
    (tmp_path / "other.py").write_text("z = 3 + 3\n", encoding="utf-8")
    got = mutants.all_sites(tmp_path)
    assert got == mutants.module_sites("a", tmp_path) + \
        mutants.module_sites("m", tmp_path)
    assert [(s.path, s.line, s.old) for s in got[:3]] == [
        ("src/padicsde/a.py", 1, "1"), ("src/padicsde/a.py", 1, "+"),
        ("src/padicsde/a.py", 1, "1")]
    assert len(got) == 3 + 15


def test_a_name_that_is_no_package_module_is_refused(tmp_path):
    _package(tmp_path, SOURCE)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "t.py").write_text("x = 1\n")
    for name in ("gone", "m.py", "../../tools/t", ""):
        with pytest.raises(ValueError, match="no module"):
            mutants.module_sites(name, tmp_path)


def test_changed_sites_keep_to_the_changed_package_lines(tmp_path):
    path = _package(tmp_path, SOURCE)
    (tmp_path / "other.py").write_text("x = 1 + 1\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    assert mutants.changed_sites("HEAD", tmp_path) == []
    path.write_text(SOURCE.replace("b * 2", "b * 5"), encoding="utf-8")
    (tmp_path / "other.py").write_text("x = 2 + 2\n")
    got = [(s.line, s.old) for s in mutants.changed_sites("HEAD", tmp_path)]
    assert got == [(2, "+"), (2, "5")]


def test_a_run_mutates_the_changed_lines_or_one_module():
    base = ["--seed", "32", "--count", "15"]
    args = mutants.parse_args(["--module", "measure", *base])
    assert (args.module, args.changed, args.seed, args.count) == (
        "measure", None, 32, 15)
    assert mutants.parse_args(["--changed", "HEAD", *base]).changed == "HEAD"
    for where in ([], ["--module", "measure", "--changed", "HEAD"]):
        with pytest.raises(SystemExit):
            mutants.parse_args([*where, *base])


def test_a_run_of_all_modules_excludes_the_other_selections():
    base = ["--seed", "33", "--count", "15"]
    args = mutants.parse_args(["--all", *base])
    assert (args.all, args.module, args.changed, args.seed, args.count) == (
        True, None, None, 33, 15)
    assert not mutants.parse_args(["--module", "measure", *base]).all
    for where in (["--all", "--module", "measure"],
                  ["--all", "--changed", "HEAD"]):
        with pytest.raises(SystemExit):
            mutants.parse_args([*where, *base])
