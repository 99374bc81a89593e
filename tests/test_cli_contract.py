"""CLI output contract: every table command, in every format, must keep its bytes.

``fixtures/cli_outputs.json`` maps each command line to its exit code, stdout
and stderr.  Placeholders stand for the inputs: ``{golden}`` is the committed
golden archive, ``{edge}`` an archive of ``EDGE_CSV`` and ``{staff}`` a staff
table.  The edge dataset reaches the footer and note branches the golden
archive lacks: excluded and dropped structures, degenerate quartile cutpoints,
skipped probability pairs, unchanged rank positions, missing citation
counts and empty rankings.

The fixture records intended behaviour.  Regenerate it with
``PYTHONPATH=src python tests/test_cli_contract.py`` only when an output
change is deliberate, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from vtrkit.cli import main
from vtrkit.ingest import IngestConfig, parse_products
from vtrkit.model import write_archive

FIXTURES = Path(__file__).parent / "fixtures"
CONTRACT = FIXTURES / "cli_outputs.json"

EDGE_CSV = """\
product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors
E01,S1,CEA,2004,journal_article,E,true,0,2.5,3,1
E02,S1,CEA,2004,journal_article,G,true,0,1.5,2,2
E03,S1,CEA,2005,journal_article,G,true,0,1.2,4,1
E04,S2,CEA,2005,book,A,false,,,1,1
E05,S2,CEA,2006,book,A,false,,,2,1
E06,S2,CEA,2006,chapter,L,false,,,3,2
E07,S3,CEA,2004,journal_article,G,true,,1.0,2,1
E08,S3,CEA,2005,journal_article,E,true,,0.5,2,2
E09,S4,CEA,2005,journal_article,G,true,0,0.9,5,2
E10,S4,CEA,2006,journal_article,E,true,0,3.0,2,1
E11,S4,CEA,2006,journal_article,G,true,1,1.1,3,3
E12,S6,CEA,2005,journal_article,E,true,5,2.0,2,1
E13,S6,CEA,2006,journal_article,E,true,4,1.8,3,2
F01,S5,PHY,2004,journal_article,E,true,,1.4,2,1
F02,S5,PHY,2005,proceedings,G,true,,0.8,3,1
"""

STAFF_CSV = "structure_id,kind,avg_staff\nS1,university,8\nS2,agency,30\n"

FORMATS = ("md", "csv", "json")


def command_lines() -> list[str]:
    golden = [
        "profile --dataset {golden}",
        "profile --dataset {golden} --discipline BIO",
        "breakdown --dataset {golden} --discipline BIO",
        "rank --dataset {golden} --discipline BIO --metric peer-tr",
        "rank --dataset {golden} --discipline BIO --metric cites",
        "rank --dataset {golden} --discipline BIO --metric peer-tr --min-products 2",
        "compare-ranks --dataset {golden} --discipline BIO --min-products 1",
        "validate --dataset {golden}",
        "validate --dataset {golden} --staff {staff}",
    ]
    for variable in ("cites", "if"):
        golden += [
            f"concordance --dataset {{golden}} --discipline BIO --variable {variable} --coding {coding}"
            for coding in ("quartile", "raw")
        ]
        golden.append(f"probability --dataset {{golden}} --discipline BIO --variable {variable}")
    edge = [
        "profile --dataset {edge}",
        "breakdown --dataset {edge} --discipline CEA",
        "rank --dataset {edge} --discipline CEA --metric peer-tr --min-products 1",
        "rank --dataset {edge} --discipline CEA --metric cites --min-products 1",
        "compare-ranks --dataset {edge} --discipline CEA --min-products 1",
        "concordance --dataset {edge} --discipline CEA --variable cites",
        "concordance --dataset {edge} --discipline PHY --variable cites",
        "probability --dataset {edge} --discipline CEA --variable cites",
        "validate --dataset {edge}",
        "report --dataset {edge} --all --min-products 1",
        "report --dataset {edge} --all",
    ]
    lines = [f"{line} --format {fmt}" for line in golden + edge for fmt in FORMATS]
    return lines + [
        "report --dataset {golden} --all --format csv",
        "compare-ranks --dataset {golden} --discipline BIO --min-products 1 --plot-data -",
        "concordance --dataset {golden} --discipline PHY",
        "probability --dataset {golden} --discipline PHY",
    ]


def write_inputs(directory: Path) -> dict[str, str]:
    dataset, report = parse_products(EDGE_CSV, IngestConfig(source_name="edge.csv"))
    assert dataset is not None, report.errors
    edge = directory / "edge.json"
    edge.write_text(write_archive(dataset), encoding="utf-8")
    staff = directory / "staff.csv"
    staff.write_text(STAFF_CSV, encoding="utf-8")
    return {"golden": str(FIXTURES / "golden_dataset.json"), "edge": str(edge), "staff": str(staff)}


def run(line: str, paths: dict[str, str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(line.format(**paths).split())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(CONTRACT.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("contract"))


def test_contract_covers_every_command_line(expected):
    assert sorted(expected) == sorted(command_lines())


@pytest.mark.parametrize("line", command_lines())
def test_cli_output_unchanged(line, paths, expected):
    assert run(line, paths) == expected[line]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        outputs = {line: run(line, inputs) for line in command_lines()}
    CONTRACT.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(outputs)} command outputs to {CONTRACT}\n")
