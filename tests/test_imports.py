"""Every module imports only names it reads.

A module's imports are found with ``ast``; a name counts as read when a
``Name`` node of the module loads it or when the module lists it in its
``__all__`` (the package ``__init__`` re-exports that way).  ``from
__future__`` imports bind no name the module reads and are left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for tree in ("src", "tests", "tools", "demos")
                 for path in (ROOT / tree).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each name the source imports and never reads."""
    module = ast.parse(source)
    imported = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or
                          alias.name.partition(".")[0])
                         for alias in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
    read = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_sees_each_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import pi, tau\n"
              "from .pkg import Exported\n"
              "__all__ = ['Exported']\n"
              "tau = 1\n"
              "print(pi)\n")
    assert unused_imports(source) == [(2, "os"), (3, "js"), (4, "tau")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
