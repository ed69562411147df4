"""A seeded mutation sample over the source lines changed since a revision,
over one module of the package, or over the whole package.

    python tools/mutants.py --changed REV --seed S --count K > FILE
    python tools/mutants.py --module NAME --seed S --count K > FILE
    python tools/mutants.py --all --seed S --count K > FILE

Stdlib only.  The sites are the operators and integer literals of
``src/padicsde`` on the lines that ``git diff REV`` marks as added or
changed in the working tree (``--changed``), on every line of
``src/padicsde/NAME.py`` (``--module``), or on every line of every module
of the package, in path order (``--all``).  Each site has one mutant, from
this list:
``+``/``-``, ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``and``/``or`` and
``//``/``%`` each swapped for the other (``+=``/``-=`` too), and an integer
literal plus one.  ``random.Random(S)`` draws K of the sites.

Every file of the working tree that git does not ignore is copied to a
temporary directory, and the tests run there, never in the checkout.  A
mutant is spliced into the module's own text at its token, so comments and
the lines that tests read stay as they are, and its tree is checked
against the same mutation made on the module's ``ast`` before it runs.
(An ``ast.unparse`` of a whole module would drop its comments and requote
its strings, which ``tests/test_linecov.py`` reads.)  The control run
comes first: the test suite on the unmutated copy, which must pass.  Then
each mutant runs the suite with ``-x`` under ``TIMEOUT`` seconds and is
killed (a test failed), survived or hung.

One JSON line per mutant goes to stdout, after the control's and before
a summary.  A mutant listed in ``tools/mutants_equivalent.json``
(matched by module, source line, token, replacement and ``nth``) carries
its stated reason: a survivor with a reason is equivalent, one without is
a gap for a new test.  The run stops first if a listed mutant no longer
names exactly one site.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/padicsde"
EQUIVALENT = Path(__file__).resolve().parent / "mutants_equivalent.json"
TIMEOUT = 300           # seconds per test run; the suite takes about 50
STALE_TEST = "tests/test_mutants.py::" \
    "test_the_committed_equivalents_name_one_site_each"

# operator class -> (its token, the operator it is swapped for)
SWAPS = {
    ast.Add: ("+", ast.Sub), ast.Sub: ("-", ast.Add),
    ast.FloorDiv: ("//", ast.Mod), ast.Mod: ("%", ast.FloorDiv),
    ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt),
    ast.Gt: (">", ast.GtE), ast.GtE: (">=", ast.Gt),
    ast.Eq: ("==", ast.NotEq), ast.NotEq: ("!=", ast.Eq),
    ast.And: ("and", ast.Or), ast.Or: ("or", ast.And),
}


class Site(NamedTuple):
    """One mutant: the token ``old`` at (line, col), col counted in
    characters, becomes ``new``; a boolean operator's every token does.
    ``text`` is the source line, stripped, and ``nth`` counts the earlier
    sites of the line with the same edit.  ``node`` is the index of the
    mutated node in ``ast.walk`` order and ``field`` the index of the
    swapped operator of a comparison."""

    path: str
    line: int
    col: int
    old: str
    new: str
    text: str
    nth: int
    node: int
    field: int | None
    edits: tuple        # (line, col, end col) of each token


def _char_col(lines, lineno, byte_col):
    return len(lines[lineno - 1].encode("utf-8")[:byte_col].decode("utf-8"))


def _start(lines, node):
    return node.lineno, _char_col(lines, node.lineno, node.col_offset)


def _end(lines, node):
    return node.end_lineno, _char_col(lines, node.end_lineno,
                                      node.end_col_offset)


def _candidates(tree):
    """(node index, node, field, token, replacement, gaps) for every
    mutable spot of the tree; a gap is the (start, end) pair of operands
    between which the token lies.  Nodes inside f-strings are skipped."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skip.update(id(n) for n in ast.walk(node))
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                type(node.op) in SWAPS:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            right = node.right if isinstance(node, ast.BinOp) else node.value
            token = SWAPS[type(node.op)][0]
            new = SWAPS[SWAPS[type(node.op)][1]][0]
            if isinstance(node, ast.AugAssign):
                token, new = token + "=", new + "="
            yield index, node, None, token, new, [(left, right)]
        elif isinstance(node, ast.BoolOp):
            token = SWAPS[type(node.op)][0]
            new = SWAPS[SWAPS[type(node.op)][1]][0]
            yield index, node, None, token, new, list(zip(node.values,
                                                          node.values[1:]))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for field, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    token = SWAPS[type(op)][0]
                    new = SWAPS[SWAPS[type(op)][1]][0]
                    yield index, node, field, token, new, \
                        [(operands[field], operands[field + 1])]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield index, node, None, None, str(node.value + 1), None


def sites(source: str, path: str = "<module>", lines=None) -> list[Site]:
    """The mutation sites of ``source`` with a token on ``lines`` (all
    lines if None), in source order.  Each site's splice is checked to
    give the tree of its ``ast`` mutation; a mismatch raises
    AssertionError."""
    text = source.splitlines()
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]
    found = []
    for index, node, field, token, new, gaps in _candidates(ast.parse(source)):
        if gaps is None:                # an integer literal: its own span
            (line, col), (end_line, end) = _start(text, node), \
                _end(text, node)
            if end_line != line:
                continue
            edits = ((line, col, end),)
            token = text[line - 1][col:end]
        else:
            edits = []
            for a, b in gaps:
                lo, hi = _end(text, a), _start(text, b)
                tok = next(t for t in tokens
                           if t.string == token and lo <= t.start < hi)
                edits.append((*tok.start, tok.end[1]))
            edits = tuple(edits)
        if lines is None or any(e[0] in lines for e in edits):
            found.append((edits, token, new, index, field))
    found.sort()
    seen: dict = {}
    out = []
    for edits, token, new, index, field in found:
        line, col = edits[0][:2]
        nth = seen[line, token, new] = seen.get((line, token, new), -1) + 1
        site = Site(path, line, col, token, new, text[line - 1].strip(), nth,
                    index, field, edits)
        if _dump(ast.parse(splice(source, site))) != \
                _dump(mutated_tree(source, site)):
            raise AssertionError(f"the splice is not the mutation: {site}")
        out.append(site)
    return out


def _dump(tree) -> str:
    """``ast.dump`` with nested boolean operators of one kind merged: the
    splice of ``a or b and c`` reads ``a and b and c``, one node, where the
    mutated tree nests two, with the same value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp):
            while any(isinstance(v, ast.BoolOp) and type(v.op) is
                      type(node.op) for v in node.values):
                node.values = [w for v in node.values for w in (
                    v.values if isinstance(v, ast.BoolOp)
                    and type(v.op) is type(node.op) else [v])]
    return ast.dump(tree)


def mutated_tree(source: str, site: Site):
    """The tree of ``source`` with the site's mutation made on its node."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == site.node)
    if isinstance(node, ast.Constant):
        node.value += 1
    elif site.field is None:
        node.op = SWAPS[type(node.op)][1]()
    else:
        node.ops[site.field] = SWAPS[type(node.ops[site.field])][1]()
    return tree


def splice(source: str, site: Site) -> str:
    """``source`` with the site's tokens replaced."""
    lines = source.splitlines(keepends=True)
    for line, col, end in sorted(site.edits, reverse=True):
        row = lines[line - 1]
        lines[line - 1] = row[:col] + site.new + row[end:]
    return "".join(lines)


def changed_lines(diff: str) -> dict[str, set[int]]:
    """Per file, the new-side line numbers of a ``git diff -U0``."""
    out: dict[str, set[int]] = {}
    path = None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            path = row[6:] if row.startswith("+++ b/") else None
        elif row.startswith("@@") and path is not None:
            m = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", row)
            start, count = int(m.group(1)), int(m.group(2) or 1)
            out.setdefault(path, set()).update(range(start, start + count))
    return out


def changed_sites(rev: str, root: Path = ROOT) -> list[Site]:
    """The sites on the package lines changed since ``rev``, by file."""
    diff = subprocess.run(
        ["git", "diff", "-U0", rev, "--", PACKAGE], cwd=root,
        check=True, capture_output=True, text=True).stdout
    out = []
    for path, lines in sorted(changed_lines(diff).items()):
        if path.endswith(".py") and (root / path).exists():
            source = (root / path).read_text(encoding="utf-8")
            out += sites(source, path, lines)
    return out


def module_sites(name: str, root: Path = ROOT) -> list[Site]:
    """Every site of the package module ``name`` (``measure`` for
    ``src/padicsde/measure.py``); a name that is no module of the package
    raises ValueError."""
    path = f"{PACKAGE}/{name}.py"
    if not name.isidentifier() or not (root / path).is_file():
        raise ValueError(f"no module {name!r} in {PACKAGE}")
    return sites((root / path).read_text(encoding="utf-8"), path)


def all_sites(root: Path = ROOT) -> list[Site]:
    """Every site of every module of the package, module by module in
    path order."""
    out = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        out += module_sites(path.stem, root)
    return out


def stale_entries(known, root: Path = ROOT) -> list:
    """The listed equivalents that do not name exactly one site of the
    source under ``root``: an entry whose line has changed would otherwise
    match nothing, silently.  ``STALE_TEST`` checks the committed list in
    the suite; a mutant run leaves it out, since it would read the mutated
    source and kill every listed mutant, and checks the list here once,
    on the unmutated source, before the first run."""
    stale = []
    for entry in known:
        source = (root / entry["path"]).read_text(encoding="utf-8")
        lines = {i for i, row in enumerate(source.splitlines(), 1)
                 if row.strip() == entry["line"]}
        if sum(_reason(s, [entry]) is not None
               for s in sites(source, entry["path"], lines)) != 1:
            stale.append(entry)
    return stale


def _reason(site: Site, known) -> str | None:
    for entry in known:
        if (entry["path"], entry["line"], entry["old"], entry["new"],
                entry["nth"]) == (site.path, site.text, site.old, site.new,
                                  site.nth):
            return entry["reason"]
    return None


def _run_suite(work: Path):
    """(status, seconds, first failing test) of ``pytest -x`` in ``work``;
    status is passed, failed or timeout."""
    # no bytecode cache: a mutant written within the second of the last
    # one, at the same size, could otherwise run the last one's cached code
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--deselect", STALE_TEST],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", time.monotonic() - start, None
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "passed", seconds, None
    failed = re.search(r"^FAILED (\S+)", out, re.M) or \
        re.search(r"^ERROR (\S+)", out, re.M)
    return "failed", seconds, failed.group(1) if failed else None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="mutants", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--changed", metavar="REV",
                       help="mutate the lines changed since REV")
    where.add_argument("--module", metavar="NAME",
                       help="mutate every line of src/padicsde/NAME.py")
    where.add_argument("--all", action="store_true",
                       help="mutate every line of every module of "
                       "src/padicsde")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        every = all_sites()
    elif args.module is not None:
        every = module_sites(args.module)
    else:
        every = changed_sites(args.changed)
    chosen = random.Random(args.seed).sample(every,
                                             min(args.count, len(every)))
    known = json.loads(EQUIVALENT.read_text(encoding="utf-8"))
    for entry in stale_entries(known):
        print(f"{EQUIVALENT.name}: no single site for {entry}",
              file=sys.stderr)
        return 1

    def emit(record):
        print(json.dumps(record), flush=True)

    tracked = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in filter(None, tracked.split("\0")):
            if (ROOT / name).is_file():
                (work / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, work / name)
        status, seconds, failed = _run_suite(work)
        emit({"control": status, "seconds": round(seconds, 1),
              "failed": failed, "sites": len(every)})
        if status != "passed":
            return 1
        tally = {"killed": 0, "survived": 0, "hung": 0}
        gaps = 0
        for i, site in enumerate(chosen):
            target = work / site.path
            original = target.read_text(encoding="utf-8")
            target.write_text(splice(original, site), encoding="utf-8")
            try:
                status, seconds, failed = _run_suite(work)
            finally:
                target.write_text(original, encoding="utf-8")
            result = {"passed": "survived", "failed": "killed",
                      "timeout": "hung"}[status]
            tally[result] += 1
            reason = _reason(site, known)
            gaps += result == "survived" and reason is None
            emit({"mutant": i, "path": site.path, "line": site.line,
                  "col": site.col, "old": site.old, "new": site.new,
                  "nth": site.nth, "text": site.text, "result": result,
                  "seconds": round(seconds, 1), "killed_by": failed,
                  "equivalent": reason})
        emit({"summary": tally, "mutants": len(chosen),
              "survivors_without_reason": gaps})
    return 0


if __name__ == "__main__":
    sys.exit(main())
