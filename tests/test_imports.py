"""Import sets: each CLI command loads only the modules it runs, and the
package's lazy re-exports keep the public surface.

Every check runs in a child interpreter, so ``sys.modules`` starts clean.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import vtrkit
from vtrkit.ingest import serialize_products
from vtrkit.model import load_archive, read_text_file

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"
GOLDEN = Path(__file__).parent / "fixtures" / "golden_dataset.json"


def run_child(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter and parse the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


COMMAND_PROBE = """
import json, sys
from vtrkit.cli import main
code = main(sys.argv[1:])
modules = sorted(
    m for m in sys.modules
    if m.startswith("vtrkit.") or m in ("csv", "datetime", "dataclasses", "decimal", "fractions", "inspect", "statistics")
)
print(json.dumps({"code": code, "modules": modules}))
"""

#: Modules a query does not run, by the statistics it needs; only ingestion
#: stamps a time, so no archive query imports ``datetime``.
NOT_FOR_FILES = {"concordance", "numerics", "indicators", "scoring", "report", "tables"}
NOT_FOR_INDICATORS = {"concordance", "scoring", "synth", "report", "datetime"}
NOT_FOR_RANKINGS = {"concordance", "synth", "report", "datetime"}
NOT_FOR_CONCORDANCE = {"indicators", "scoring", "synth", "report", "datetime"}

COMMANDS = {
    "ingest": (["--products", "{csv}"], NOT_FOR_FILES),
    "synth": (["--seed", "1"], NOT_FOR_FILES),
    "profile": (["--dataset", "{golden}"], NOT_FOR_INDICATORS),
    "breakdown": (["--dataset", "{golden}", "--discipline", "BIO"], NOT_FOR_INDICATORS),
    "validate": (["--dataset", "{golden}"], NOT_FOR_INDICATORS),
    "rank": (["--dataset", "{golden}", "--discipline", "BIO", "--min-products", "1"], NOT_FOR_RANKINGS),
    "compare-ranks": (["--dataset", "{golden}", "--discipline", "BIO", "--min-products", "1"], NOT_FOR_RANKINGS),
    "concordance": (["--dataset", "{golden}", "--discipline", "BIO"], NOT_FOR_CONCORDANCE),
    "probability": (["--dataset", "{golden}", "--discipline", "BIO"], NOT_FOR_CONCORDANCE),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_imports_only_what_it_runs(command, tmp_path):
    products = tmp_path / "products.csv"
    products.write_text(serialize_products(load_archive(read_text_file(str(GOLDEN)))), encoding="utf-8")
    flags, excluded = COMMANDS[command]
    argv = [command, *(f.format(csv=products, golden=GOLDEN) for f in flags), "--out", str(tmp_path / "out")]
    child = run_child(COMMAND_PROBE, *argv)
    assert child["code"] == 0
    loaded = {name.removeprefix("vtrkit.") for name in child["modules"]}
    assert "model" in loaded
    assert not loaded & excluded, sorted(loaded & excluded)


#: ``dataclasses`` imports ``inspect``, which loads ``ast``, ``dis`` and
#: ``tokenize``; every record is a namedtuple, so no command pays that.
RECORD_MACHINERY = {"dataclasses", "inspect"}

#: Every command, and ``report --all``, which reaches each statistic.
EVERY_COMMAND = [*sorted(COMMANDS), "report --all"]


def command_loads(command: str, tmp_path) -> set[str]:
    """The probed modules ``command`` loads, run on the golden archive or its products CSV."""
    products = tmp_path / "products.csv"
    products.write_text(serialize_products(load_archive(read_text_file(str(GOLDEN)))), encoding="utf-8")
    name, *rest = command.split()
    flags = COMMANDS[name][0] if name in COMMANDS else ["--dataset", "{golden}", *rest]
    argv = [name, *(f.format(csv=products, golden=GOLDEN) for f in flags), "--out", str(tmp_path / "out")]
    child = run_child(COMMAND_PROBE, *argv)
    assert child["code"] == 0
    return set(child["modules"])


def assert_only_synth_loads(command: str, tmp_path, modules: set[str]) -> None:
    """``synth`` loads all of ``modules``, and any other command none."""
    loaded = modules & command_loads(command, tmp_path)
    assert loaded == (modules if command == "synth" else set()), sorted(loaded)


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_no_command_loads_dataclasses_or_inspect(command, tmp_path):
    assert command_loads(command, tmp_path) & RECORD_MACHINERY == set()


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_no_command_but_synth_imports_statistics(command, tmp_path):
    """``statistics`` is for ``synth``'s ``NormalDist``; a rank comparison
    takes its median inline."""
    assert_only_synth_loads(command, tmp_path, {"statistics"})


@pytest.mark.parametrize("command", ["profile", "breakdown", "rank", "compare-ranks", "concordance", "probability"])
def test_no_query_imports_ingest(command, tmp_path):
    """The CSV code lives in ``ingest``, which no query on an archive loads."""
    flags = [f.format(golden=GOLDEN) for f in COMMANDS[command][0]]
    child = run_child(COMMAND_PROBE, command, *flags, "--out", str(tmp_path / "out"))
    assert child["code"] == 0
    assert "vtrkit.ingest" not in child["modules"]


#: The single-area queries on an archive.
QUERIES = ["profile", "breakdown", "rank", "compare-ranks", "concordance", "probability"]


@pytest.mark.parametrize("command", [*QUERIES, "validate"])
def test_json_output_loads_no_table_code(command, tmp_path):
    """JSON goes through ``jsonout``: no ``--format json`` command loads the
    md/csv code of ``tables``, and none loads ``csv`` or ``ingest`` (``validate``
    audits through ``audit``, and parses CSV only for ``--staff``)."""
    flags = [f.format(golden=GOLDEN) for f in COMMANDS[command][0]]
    out = tmp_path / "out.json"
    child = run_child(COMMAND_PROBE, command, *flags, "--format", "json", "--out", str(out))
    assert child["code"] == 0
    assert json.loads(out.read_text("utf-8"))
    assert not {"vtrkit.tables", "csv", "vtrkit.ingest"} & set(child["modules"])


def test_validate_with_staff_loads_the_staff_parser(tmp_path):
    staff = tmp_path / "staff.csv"
    staff.write_text("structure_id,kind,avg_staff\nS1,agency,1\n", encoding="utf-8")
    argv = ["validate", "--dataset", str(GOLDEN), "--staff", str(staff), "--out", str(tmp_path / "out")]
    child = run_child(COMMAND_PROBE, *argv)
    assert {"csv", "vtrkit.ingest"} <= set(child["modules"])


#: What only a products file, a CSV output or exact arithmetic would need:
#: the report and the battery hold their probabilities as integer counts and
#: round their cells without ``decimal``.
NOT_FOR_REPORT = {"fractions", "decimal", "csv", "vtrkit.ingest"}


@pytest.mark.parametrize(
    "command",
    [
        "report --all",
        "concordance --discipline BIO",
        "concordance --discipline BIO --format json",
        "probability --discipline BIO",
        "probability --discipline BIO --format json",
    ],
)
def test_report_and_battery_load_no_exact_arithmetic_or_csv(command, tmp_path):
    name, *flags = command.split()
    child = run_child(COMMAND_PROBE, name, "--dataset", str(GOLDEN), *flags, "--out", str(tmp_path / "out"))
    assert child["code"] == 0
    assert not NOT_FOR_REPORT & set(child["modules"]), sorted(NOT_FOR_REPORT & set(child["modules"]))


def test_csv_report_loads_csv_but_not_ingest(tmp_path):
    argv = ["report", "--dataset", str(GOLDEN), "--all", "--format", "csv", "--out", str(tmp_path / "out")]
    child = run_child(COMMAND_PROBE, *argv)
    assert child["code"] == 0
    assert "csv" in child["modules"]
    assert not {"fractions", "decimal", "vtrkit.ingest"} & set(child["modules"])


FORWARD_REF_PROBE = """
import importlib, json, pkgutil, typing
made = []
init = typing.ForwardRef.__init__
def counted(self, arg, *args, **kwargs):
    made.append(arg)
    init(self, arg, *args, **kwargs)
typing.ForwardRef.__init__ = counted
import vtrkit
for info in pkgutil.iter_modules(vtrkit.__path__):
    importlib.import_module("vtrkit." + info.name)
print(json.dumps(made))
"""


def test_no_module_makes_a_forward_reference():
    """Records are ``namedtuple`` subclasses: a ``typing.NamedTuple`` under
    ``from __future__ import annotations`` compiles a ``ForwardRef`` per
    field when its class is made, in every child that imports it."""
    assert run_child(FORWARD_REF_PROBE) == []


@pytest.mark.parametrize("command", ["report --all", "concordance --discipline BIO"], ids=["report", "concordance"])
def test_the_golden_legacy_archive_is_refused(command, tmp_path):
    """``model`` decodes one format: a command on the golden input as it was
    first committed, in the retired ``vtrkit-dataset/1`` format, exits 1 and
    writes nothing, where the same command on the current golden archive
    exits 0."""
    from conftest import legacy_golden_text

    legacy = tmp_path / "legacy.json"
    legacy.write_text(legacy_golden_text(), encoding="utf-8")
    name, *flags = command.split()
    for path, code in ((GOLDEN, 0), (legacy, 1)):
        out = tmp_path / f"{path.stem}.out"
        child = run_child(COMMAND_PROBE, name, "--dataset", str(path), *flags, "--out", str(out))
        assert (child["code"], out.exists()) == (code, code == 0)


#: What ``vtrkit`` exported when it imported every module eagerly, by the
#: module that defines each name, less the names only tests used, which the
#: package no longer holds.
EXPORTED = {
    "audit": "Issue SelectionPolicy ValidationReport validate_dataset",
    "concordance": """AdjacentPairResult ChiSquareResult ContingencyTable CorrelationResult ProbabilityTriple
        QuartileBins adjacent_rating_probabilities assign_quartile chi_square_independence contingency_table
        pairwise_probabilities peer_bibliometric_spearman spearman""",
    "indicators": "DisciplineProfile GroupStats RatingBreakdown discipline_profile h_index rating_breakdown",
    "ingest": "IngestConfig StaffRecord parse_products parse_products_file parse_staff serialize_products",
    "model": """Dataset InvalidProduct PeerRating PipelineError Product ProductType Provenance RATING_ORDER load_archive
        write_archive""",
    "numerics": "average_ranks chi_square_upper_tail student_t_two_sided",
    "scoring": """RankComparison Ranking SizeClass StructureRating compile_ranking rank_comparison size_class
        structure_ratings""",
    "synth": "DisciplineSpec SynthConfig generate_exercise load_synth_config",
}

SURFACE_PROBE = """
import importlib, json, sys
import vtrkit
facts = {"after_import": sorted(m for m in sys.modules if m.startswith("vtrkit."))}
namespace = {}
exec("from vtrkit import *", namespace)
facts["star"] = sorted(set(namespace) - {"__builtins__"})
facts["dir"] = dir(vtrkit)
facts["all"] = list(vtrkit.__all__)
try:
    vtrkit.no_such_name
    facts["unknown"] = None
except AttributeError as exc:
    facts["unknown"] = str(exc)
facts["same"] = {
    name: getattr(vtrkit, name) is getattr(importlib.import_module("vtrkit." + module), name)
    for module, names in json.loads(sys.argv[1]).items()
    for name in names
}
print(json.dumps(facts))
"""


def test_lazy_public_surface():
    exported = {module: names.split() for module, names in EXPORTED.items()}
    names = {name for group in exported.values() for name in group}
    facts = run_child(SURFACE_PROBE, json.dumps(exported))
    assert facts["after_import"] == []
    assert set(facts["star"]) == names
    assert set(facts["all"]) == names
    assert names <= set(facts["dir"])
    assert facts["unknown"] == "module 'vtrkit' has no attribute 'no_such_name'"
    assert facts["same"] == dict.fromkeys(names, True)


def name_uses(source: str) -> Counter:
    """How often the module ``source`` uses each name: its name tokens, less
    those a ``def``, a ``class`` or a module-level assignment binds.  Comments,
    docstrings and the strings of an export list are not uses."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    tokens = [t for t in tokens if t.type in (tokenize.NAME, tokenize.OP)]
    uses = Counter()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        binds = (before is not None and before.string in ("def", "class")) or (
            token.start[1] == 0 and after is not None and after.string in ("=", ":")
        )
        if token.type == tokenize.NAME and not binds:
            uses[token.string] += 1
    return uses


def test_name_uses_counts_code_only():
    """A comment, a docstring, an export list's string, a definition and a
    module-level assignment are not uses; a call, an annotation, an import
    and a keyword argument are."""
    source = '''
__all__ = ["f", "g"]
LIMIT: int = 3
ORDER = (1, 2)


def f(x: Shape) -> int:
    """g and ORDER are mentioned here only."""
    return x  # g is inline


class Shape:
    pass


from mod import helper
helper(limit=LIMIT)
'''
    uses = name_uses(source)
    assert (uses["f"], uses["g"], uses["ORDER"]) == (0, 0, 0)
    assert (uses["Shape"], uses["helper"], uses["LIMIT"], uses["limit"]) == (1, 2, 1, 1)


def test_every_export_is_used_by_the_library_or_the_benchmark():
    """A name the package exports is used by some library module beyond its
    own definition, or by the benchmark: code that only tests call belongs in
    the tests."""
    uses = Counter()
    for path in [*(SRC / "vtrkit").glob("*.py"), *BENCH.glob("*.py")]:
        uses += name_uses(path.read_text("utf-8"))
    assert sorted(name for name in vtrkit.__all__ if not uses[name]) == []
