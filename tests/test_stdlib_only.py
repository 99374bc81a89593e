"""The runtime imports nothing outside the standard library, and source scans
keep each format, rule and code in one place and documented."""

from __future__ import annotations

import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import vtrkit, vtrkit.cli, vtrkit.report
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"vtrkit"})
assert not foreign, foreign
"""


def test_runtime_imports_only_stdlib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


#: The package's re-exports are lazy, so the probe above no longer reaches
#: every module; this one imports each module the package holds.
PROBE_EVERY_MODULE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import vtrkit
modules = [info.name for info in pkgutil.iter_modules(vtrkit.__path__)]
assert {"cli", "report", "synth"} <= set(modules), modules
for name in modules:
    importlib.import_module("vtrkit." + name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"vtrkit"})
assert not foreign, foreign
"""


def test_every_module_imports_only_stdlib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", PROBE_EVERY_MODULE], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_only_the_cli_imports_gc():
    """The program owns the garbage collector: no library module imports
    ``gc``, so none can pause, freeze or collect in a caller's process."""
    importers = sorted(
        path.name
        for path in (SRC / "vtrkit").glob("*.py")
        if re.search(r"^\s*(import gc\b|from gc import)", path.read_text(encoding="utf-8"), re.MULTILINE)
    )
    assert importers == ["cli.py"]


def test_no_module_imports_dataclasses():
    """Every record is a namedtuple, configs and assemblies too:
    ``dataclasses`` (and the ``inspect`` it loads) stays off every
    command's path."""
    pattern = re.compile(r"^\s*(import dataclasses\b|from dataclasses import)", re.MULTILINE)
    importers = sorted(path.name for path in (SRC / "vtrkit").glob("*.py") if pattern.search(path.read_text("utf-8")))
    assert importers == []


def test_one_module_names_the_archive_format():
    """The archive format lives in one place: no library module spells a
    ``vtrkit-dataset/`` format string but ``model``, in the one line that
    defines ``ARCHIVE_FORMAT``, so no second archive reader or writer can
    creep back in under another format's name."""
    holders = sorted(
        f"{path.name}: {line.strip()}"
        for path in (SRC / "vtrkit").glob("*.py")
        for line in path.read_text("utf-8").splitlines()
        if "vtrkit-dataset/" in line
    )
    assert holders == ['model.py: ARCHIVE_FORMAT = "vtrkit-dataset/3"']


def test_one_module_states_each_tr_missing_rule():
    """Each rule for a value a TR-indexed product lacks lives in one place: no
    library module spells a ``tr_missing_*`` rule id but ``audit``, once each,
    in the ``warn_tr_missing`` that ``ingest`` and ``validate_dataset`` both
    call, so no second home with a message of its own can creep back in."""
    holders = sorted(
        f"{path.name}: {rule}"
        for path in (SRC / "vtrkit").glob("*.py")
        for rule in re.findall(r"\btr_missing_\w+", path.read_text("utf-8"))
    )
    assert holders == ["audit.py: tr_missing_citations", "audit.py: tr_missing_if"]


def test_only_the_package_declares_all():
    """``vtrkit.__all__`` is the one list of public names: no submodule
    keeps an ``__all__`` of its own, and a leading underscore marks a
    submodule's private name."""
    pattern = re.compile(r"^__all__\b", re.MULTILINE)
    holders = sorted(path.name for path in (SRC / "vtrkit").glob("*.py") if pattern.search(path.read_text("utf-8")))
    assert holders == ["__init__.py"]


def test_only_synth_imports_statistics():
    """``statistics`` costs a command ~3 ms to import; only ``synth`` uses it,
    for ``NormalDist``, so it stays off every other command's path."""
    pattern = re.compile(r"^\s*(import statistics\b|from statistics import)", re.MULTILINE)
    importers = sorted(path.name for path in (SRC / "vtrkit").glob("*.py") if pattern.search(path.read_text("utf-8")))
    assert importers == ["synth.py"]


def test_no_module_imports_another_modules_private_name():
    """Each module keeps its underscore names to itself: what another module
    needs of it is public, so a file format's code can move without breaking
    a reader of its internals."""
    private = sorted(
        f"{path.name}: {node.module}.{alias.name}"
        for path in (SRC / "vtrkit").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("vtrkit"))
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == []


def test_only_model_pieces_compares_a_size_with_the_chunk():
    """Text is cut into pieces in one place: no library module names
    ``CHUNK`` but ``model``, and no code there compares a size with it but
    ``pieces``, which every streamed writer joins its text through."""
    holders = sorted(path.name for path in (SRC / "vtrkit").glob("*.py") if "CHUNK" in path.read_text("utf-8"))
    assert holders == ["model.py"]
    tree = ast.parse((SRC / "vtrkit" / "model.py").read_text("utf-8"))

    def comparisons(node: ast.AST) -> list[ast.Compare]:
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Compare)
            and any(isinstance(side, ast.Name) and side.id == "CHUNK" for side in (n.left, *n.comparators))
        ]

    pieces = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "pieces")
    assert comparisons(pieces)
    assert comparisons(tree) == comparisons(pieces)


def constant_holders(value: str) -> list[str]:
    """``module: function`` of each string constant ``value`` in the library,
    the innermost function that holds it, or ``<module>``."""
    holders = []
    for path in sorted((SRC / "vtrkit").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {}
        for func in ast.walk(tree):  # outer functions first, so an inner one overwrites
            if isinstance(func, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        holders += [
            f"{path.name}: {owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == value
        ]
    return holders


def test_only_csv_field_doubles_a_quote():
    """CSV quoting lives in one place: ``model.csv_field``, which every CSV
    writer, the products file's and the tables', calls."""
    assert constant_holders('""') == ["model.py: csv_field"]


def test_only_tables_holds_the_markdown_escapes():
    """Markdown escaping lives in one place: the table that ``tables.md_cell``
    translates by, the only code that writes ``\\|``."""
    assert constant_holders("\\|") == ["tables.py: <module>"]


README = SRC.parent / "README.md"


def test_readme_documents_every_error_code():
    """Every code a ``PipelineError`` is raised with, and the CLI's own
    ``io_error`` and ``internal_error``, has a line in README."""
    codes = {"io_error", "internal_error"} | {
        node.args[0].value
        for path in (SRC / "vtrkit").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PipelineError"
        if node.args and isinstance(node.args[0], ast.Constant)
    }
    readme = README.read_text("utf-8")
    assert len(codes) > 20
    assert sorted(code for code in codes if f"`{code}`" not in readme) == []


def test_readme_lists_every_module_once():
    """README's module list names each module of the package once, and no other."""
    import vtrkit

    listing = README.read_text("utf-8").split("The modules are:\n", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    names = [
        name
        for line in listing.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+)`", line.partition(": ")[0])
    ]
    assert sorted(names) == sorted(info.name for info in pkgutil.iter_modules(vtrkit.__path__))
