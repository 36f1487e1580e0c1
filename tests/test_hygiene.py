"""Source hygiene: no unused imports or unused private functions in ldlab,
no module but gfq reads the field tables, characteristic or degree, no
process pool and no fork outside `experiments`, importing the package
builds no field or mask cache and no CLI parser, `ldlab.__all__`
names only what the package defines, and every ldlab name that the
benchmark and the bench scripts reach still exists.

A name counts as used when it appears as a name or an attribute anywhere
in the module (annotations included) or in the module's ``__all__``.  An
import whose line carries ``# noqa: F401`` is a deliberate re-export.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ldlab

SOURCES = sorted(Path(ldlab.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if (name not in used
                        and "noqa: F401" not in lines[alias.lineno - 1]):
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_no_unused_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    unused = [f"{name}: {node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []


def test_only_gfq_reads_field_tables():
    """Field arithmetic outside gfq goes through its payload kernels, and
    only gfq picks a kernel by the field's characteristic or degree.

    Attribute reads (`field.add_table`) and names bound to a table
    (`add_table[a][b]`) both count.
    """
    tables = {"add_table", "mul_table", "neg_table", "inv_table",
              "characteristic", "degree"}
    readers = []
    for path in SOURCES:
        if path.name == "gfq.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, (ast.Attribute, ast.Name))
                    and isinstance(node.ctx, ast.Load)):
                continue
            name = node.attr if isinstance(node, ast.Attribute) else node.id
            if name in tables:
                readers.append(f"{path.name}:{node.lineno} {name}")
    assert readers == []


def test_only_run_trials_starts_processes():
    """Worker processes come from `experiments._run_trials` alone, which
    forks at most one child per extra core: no module starts a pool or a
    subprocess, and no other module forks."""
    starters = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import) else [node.module])
                starters += [f"{path.name}: import {module}" for module in modules
                             if module and module.partition(".")[0]
                             in {"multiprocessing", "concurrent", "subprocess"}]
            elif (isinstance(node, ast.Attribute) and node.attr == "fork"
                  and path.name != "experiments.py"):
                starters.append(f"{path.name}:{node.lineno} fork")
    assert starters == []


def test_public_api_resolves():
    """Every `ldlab.__all__` entry is unique and importable; a stale entry
    breaks `from ldlab import *` but not `import ldlab`."""
    assert len(set(ldlab.__all__)) == len(ldlab.__all__)
    assert [name for name in ldlab.__all__ if not hasattr(ldlab, name)] == []
    namespace: dict = {}
    exec("from ldlab import *", namespace)
    assert set(ldlab.__all__) <= set(namespace)


def _resolves(module: str, dotted: str) -> bool:
    """Whether module (imported) has the attribute path `dotted`."""
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_and_bench_names_resolve():
    """Every (module, attribute) the benchmark's tracer wraps
    (`perfbench/spans.py` TARGETS) and every ldlab name that a file in
    `perfbench/` or `bench/` imports exists, so deleting or renaming one
    breaks this test and not only a script run by hand.  The files are
    read as text, not imported."""
    spans = ast.parse((REPO / "perfbench" / "spans.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in spans.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    wanted = [(module, attr) for _, module, attr in targets]
    for path in sorted([*REPO.glob("perfbench/*.py"), *REPO.glob("bench/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.partition(".")[0] == "ldlab"):
                wanted += [(node.module, alias.name) for alias in node.names]
    assert len(wanted) > len(targets) > 0
    assert [pair for pair in wanted if not _resolves(*pair)] == []


def test_import_builds_no_field_or_mask_cache():
    """Importing ldlab and its CLI builds no field table, lru_cache entry,
    SWAR lane mask or bit-plane mask in gfq; all of that is built on first
    use.  Checked in
    a fresh interpreter, since this test process has used them already."""
    probe = (
        "import ldlab, ldlab.cli\n"
        "from ldlab import gfq\n"
        "caches = {name: obj.cache_info().currsize\n"
        "          for name, obj in vars(gfq).items() if hasattr(obj, 'cache_info')}\n"
        "assert 'field_new' in caches, caches\n"
        "assert set(caches.values()) == {0}, caches\n"
        "assert gfq._LANE_MASKS == {}, gfq._LANE_MASKS\n"
        "assert gfq._PLANE_MASKS == {}, gfq._PLANE_MASKS\n"
    )
    run_fresh(probe)


def test_import_builds_no_parser():
    """Importing ldlab and its CLI constructs no argparse parser, so set-up
    time does not grow with the CLI; the first dispatch builds the parser
    and later calls reuse it."""
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import ldlab, ldlab.cli\n"
        "assert built == [], built\n"
        "argv = ['entropy', '--q', '2', '--x', '1/2']\n"
        "assert ldlab.cli.dispatch(argv) == 0\n"
        "first = len(built)\n"
        "assert first > 0 and built[0] == 'ldlab', built\n"
        "assert ldlab.cli.dispatch(argv) == 0\n"
        "assert len(built) == first, built\n"
    )
    run_fresh(probe)


def run_fresh(probe: str) -> None:
    """Run probe in a fresh interpreter that imports ldlab from this tree."""
    src = str(Path(ldlab.__file__).parent.parent)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0, result.stderr
