"""CLI subcommands: exit codes, file outputs, format switching, determinism."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from vtrkit import cli
from vtrkit.cli import main
from vtrkit.ingest import parse_products, parse_products_file, serialize_products
from vtrkit.model import Dataset, load_archive, write_archive
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise

from conftest import legacy_golden_text, rewritten

SRC = Path(__file__).resolve().parent.parent / "src"

#: TR-indexed products without a citation count, ingested with warnings.
MISSING_CITATIONS_CSV = """\
product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors
P1,S1,BIO,2001,journal_article,E,true,,2.5,2,1
P2,S1,BIO,2002,journal_article,G,true,3,,2,1
P3,S2,BIO,2003,journal_article,A,true,,,1,1
P4,S2,XYZ,2003,book,L,false,,,1,1
"""

PRODUCTS_CSV = """\
product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors
P01,S1,BIO,2001,journal_article,E,true,9,3.1,3,2
P02,S1,BIO,2001,journal_article,E,true,7,2.4,2,1
P03,S1,BIO,2002,journal_article,G,true,6,2.0,4,2
P04,S1,BIO,2002,journal_article,G,true,4,1.9,2,2
P05,S1,BIO,2002,journal_article,A,true,3,1.1,5,1
P06,S1,BIO,2003,journal_article,A,true,2,0.9,2,1
P07,S1,BIO,2003,journal_article,L,true,1,0.8,1,1
P08,S1,BIO,2003,journal_article,L,true,0,0.5,2,1
P09,S1,BIO,2001,book,G,false,,,1,1
P10,S1,BIO,2002,journal_article,G,true,5,1.5,3,1
P11,S2,BIO,2001,journal_article,E,true,11,3.5,3,2
P12,S2,BIO,2001,journal_article,G,true,3,1.2,2,1
P13,S2,BIO,2002,journal_article,G,true,2,1.0,4,2
P14,S2,BIO,2002,journal_article,A,true,1,0.7,2,2
P15,S2,BIO,2002,journal_article,A,true,2,0.8,5,1
P16,S2,BIO,2003,journal_article,L,true,0,0.4,2,1
P17,S2,BIO,2003,journal_article,G,true,4,1.6,1,1
P18,S2,BIO,2003,journal_article,G,true,6,2.2,2,1
P19,S2,BIO,2001,journal_article,A,true,1,0.6,3,1
P20,S2,BIO,2002,journal_article,G,true,3,1.3,3,2
P21,S3,BIO,2002,journal_article,G,true,2,1.0,3,1
P22,S3,BIO,2002,journal_article,A,true,1,0.5,2,1
P23,S3,MCS,2001,journal_article,E,true,5,1.4,2,1
P24,S3,MCS,2002,journal_article,G,true,2,1.1,2,1
P25,S3,MCS,2002,journal_article,A,true,1,0.9,3,1
"""


@pytest.fixture()
def archive(tmp_path):
    products = tmp_path / "products.csv"
    products.write_text(PRODUCTS_CSV, encoding="utf-8")
    out = tmp_path / "dataset.json"
    assert main(["ingest", "--products", str(products), "--out", str(out)]) == 0
    return out


class TestIngest:
    def test_writes_canonical_archive(self, archive):
        doc = json.loads(archive.read_text())
        assert doc["format"] == "vtrkit-dataset/3"
        assert len(doc["products"]) == 25

    def test_validation_errors_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,"
            "citations,journal_if,n_authors,n_internal_authors\n"
            "P1,S1,BIO,2002,journal_article,Z,true,1,,2,1\n",
            encoding="utf-8",
        )
        assert main(["ingest", "--products", str(bad), "--out", str(tmp_path / "o.json")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["errors"][0]["rule"] == "unknown_rating"

    @pytest.mark.parametrize("source", ["golden", "missing_citations"])
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    def test_streamed_archive_equals_write_archive(self, tmp_path, capsys, source, to_stdout):
        """The lines ingest streams out are the bytes write_archive returns."""
        from conftest import FIXTURES

        products = tmp_path / "products.csv"
        if source == "golden":
            golden = load_archive((FIXTURES / "golden_dataset.json").read_text(encoding="utf-8"))
            products.write_text(serialize_products(golden), encoding="utf-8")
        else:
            products.write_text(MISSING_CITATIONS_CSV, encoding="utf-8")
        out = tmp_path / "dataset.json"
        argv = ["ingest", "--products", str(products)] + ([] if to_stdout else ["--out", str(out)])
        assert main(argv) == 0
        captured = capsys.readouterr()
        streamed = captured.out.encode("utf-8") if to_stdout else out.read_bytes()
        if source == "missing_citations":
            assert "tr_missing_citations" in captured.err

        dataset, _ = parse_products_file(str(products))
        loaded = load_archive(streamed.decode("utf-8"))
        # only the ingest timestamp may differ between the two parses
        assert loaded.provenance._replace(ingested_at="") == dataset.provenance._replace(ingested_at="")
        expected = write_archive(Dataset(dataset.products, loaded.provenance))
        assert streamed == expected.encode("utf-8")

    def test_ingest_peak_memory_is_bounded(self, tmp_path):
        """Ingest reads the CSV record by record and writes the archive in pieces of about 8 KiB."""
        products = tmp_path / "products.csv"
        assert main(["synth", "--seed", "42", "--out", str(products)]) == 0
        tracemalloc.start()
        try:
            assert main(["ingest", "--products", str(products), "--out", str(tmp_path / "dataset.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~1.8 MiB here; 3.3 MiB with every row, and the archive, held whole
        assert peak < 2.5 * 2**20

    def test_header_only_products_give_an_empty_archive_every_command_reads(self, tmp_path, capsys):
        """A products file of its header alone ingests to a current archive
        with an empty area index, which validate, report and profile read."""
        products = tmp_path / "products.csv"
        products.write_text(PRODUCTS_CSV.splitlines()[0] + "\n", encoding="utf-8")
        archive = tmp_path / "dataset.json"
        assert main(["ingest", "--products", str(products), "--out", str(archive)]) == 0
        doc = json.loads(archive.read_text(encoding="utf-8"))
        assert (doc["format"], doc["products"], doc["seal"]["areas"]) == ("vtrkit-dataset/3", [], [])
        capsys.readouterr()
        for argv in (["validate"], ["report", "--all"], ["report", "--all", "--format", "json"], ["profile"]):
            assert main([*argv, "--dataset", str(archive)]) == 0, argv
            out, err = capsys.readouterr()
            assert err == "", argv
        assert out.startswith("| area |")  # the profile table, of no rows

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["ingest", "--products", str(tmp_path / "nope.csv")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "io_error"

    def test_lone_carriage_return_is_a_row_error(self, tmp_path, capsys):
        products = tmp_path / "products.csv"
        products.write_bytes(PRODUCTS_CSV.replace("P01,", "P01\rx,", 1).encode("utf-8"))
        assert main(["ingest", "--products", str(products), "--out", str(tmp_path / "o.json")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert [(e["row"], e["rule"]) for e in record["errors"]] == [(2, "malformed_csv")]
        assert record["accepted_count"] == 24

    def test_file_not_utf8_is_bad_encoding(self, tmp_path, capsys):
        products = tmp_path / "products.csv"
        products.write_bytes(b"\xff" + PRODUCTS_CSV.encode("utf-8"))
        assert main(["ingest", "--products", str(products)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_encoding"


class TestFaults:
    def test_malformed_archive_exits_1_with_error_record(self, archive, capsys):
        damaged = rewritten(archive.read_text(), lambda doc: doc["products"][0].__setitem__(7, "9"))  # citations
        archive.write_text(damaged, encoding="utf-8")
        assert main(["report", "--dataset", str(archive), "--all"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "bad_archive" and record["message"].startswith("invalid product row: ")

    @pytest.mark.parametrize("legacy", ["only_its_format", "golden"])
    def test_legacy_archive_exits_1_with_error_record(self, tmp_path, capsys, legacy):
        """An archive of the retired vtrkit-dataset/1 format, whether its
        format alone (which used to load as an empty dataset and report
        nothing) or the golden input as first committed, is refused with a
        message to ingest the products CSV again."""
        archive = tmp_path / "dataset.json"
        text = {"only_its_format": '{"format": "vtrkit-dataset/1"}', "golden": legacy_golden_text()}[legacy]
        archive.write_text(text, encoding="utf-8")
        assert main(["report", "--dataset", str(archive), "--all"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "bad_archive"
        assert "'vtrkit-dataset/1'" in record["message"]
        assert "ingest the products CSV again" in record["message"]

    def test_unexpected_exception_is_internal_error(self, archive, capsys, monkeypatch):
        def broken(text, discipline=None):
            raise RuntimeError("boom")

        monkeypatch.setattr("vtrkit.cli.load_archive", broken)
        assert main(["profile", "--dataset", str(archive)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "internal_error", "message": "RuntimeError: boom"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--discipline", "BIO"],
            ["compare-ranks", "--discipline", "BIO", "--plot-data", "{out}"],
            ["report", "--all"],
        ],
        ids=["rank", "compare-ranks", "report"],
    )
    def test_negative_min_products_is_bad_min_products(self, archive, tmp_path, capsys, argv):
        """A negative threshold used to be read as 0: the command exited 0."""
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in argv]
        assert main([*argv, "--dataset", str(archive), "--min-products", "-5", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "bad_min_products",
            "message": "--min-products must be >= 0, got -5",
        }
        assert not out.exists()

    @pytest.mark.parametrize("damaged", ["dataset", "staff", "config"])
    def test_every_input_file_not_utf8_is_bad_encoding(self, archive, tmp_path, capsys, damaged):
        files = {name: tmp_path / f"{name}.in" for name in ("dataset", "staff", "config")}
        files["dataset"].write_bytes(archive.read_bytes())
        files["staff"].write_text("structure_id,kind,avg_staff\nS1,university,8\n", encoding="utf-8")
        files["config"].write_text("{}", encoding="utf-8")
        files[damaged].write_bytes(b"\xff" + files[damaged].read_bytes())
        argv = {
            "dataset": ["profile", "--dataset", str(files["dataset"])],
            "staff": ["validate", "--dataset", str(files["dataset"]), "--staff", str(files["staff"])],
            "config": ["synth", "--config", str(files["config"]), "--out", str(tmp_path / "x.csv")],
        }[damaged]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {
            "error": "bad_encoding",
            "message": "input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        }


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["profile", "--bogus"])
        assert err.value.code == 2

    def test_bad_choice_exits_2(self, archive):
        with pytest.raises(SystemExit) as err:
            main(["concordance", "--dataset", str(archive), "--discipline", "BIO", "--variable", "x"])
        assert err.value.code == 2


class TestValidate:
    def test_ok_dataset(self, archive, capsys):
        assert main(["validate", "--dataset", str(archive)]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_cap_warning_with_staff(self, archive, tmp_path, capsys):
        staff = tmp_path / "staff.csv"
        # S1 submits 10 products; 8 university staff -> cap 2
        staff.write_text("structure_id,kind,avg_staff\nS1,university,8\n", encoding="utf-8")
        assert main(["validate", "--dataset", str(archive), "--staff", str(staff), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [w["rule"] for w in payload["warnings"]] == ["cap_exceeded"]

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_staff_exit_1(self, archive, tmp_path, capsys, token):
        staff = tmp_path / "staff.csv"
        staff.write_text(f"structure_id,kind,avg_staff\nS1,agency,{token}\n", encoding="utf-8")
        assert main(["validate", "--dataset", str(archive), "--staff", str(staff)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_staff_number"

    @pytest.mark.parametrize("cap", ["nan", "inf", "-0.5"])
    def test_bad_cap_exit_1(self, archive, tmp_path, capsys, cap):
        staff = tmp_path / "staff.csv"
        staff.write_text("structure_id,kind,avg_staff\nS1,university,8\n", encoding="utf-8")
        argv = ["validate", "--dataset", str(archive), "--staff", str(staff), f"--cap={cap}"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_cap"


class TestTables:
    def test_profile_all_disciplines(self, archive, capsys):
        assert main(["profile", "--dataset", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "| BIO |" in out and "| MCS |" in out

    def test_profile_json(self, archive, capsys):
        assert main(["profile", "--dataset", str(archive), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["discipline"] for row in payload] == ["BIO", "MCS"]
        bio = payload[0]
        assert bio["size"] == 22

    def test_breakdown_csv(self, archive, capsys):
        assert main(["breakdown", "--dataset", str(archive), "--discipline", "BIO", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("rating,count,share")
        assert len(lines) == 5

    def test_unknown_discipline_exit_1(self, archive, capsys):
        assert main(["breakdown", "--dataset", str(archive), "--discipline", "PHY"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "empty_discipline"

    @pytest.mark.parametrize("command", ["profile", "report"])
    def test_empty_discipline_is_not_every_discipline(self, archive, capsys, command):
        """An empty ``--discipline`` names an area with no products, as it does
        for the single-area commands; only an absent flag means every area."""
        assert main([command, "--dataset", str(archive), "--discipline", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "empty_discipline"


class TestRankingCommands:
    def test_rank_table(self, archive, capsys):
        assert main(["rank", "--dataset", str(archive), "--discipline", "BIO", "--metric", "peer-tr"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| rank | structure | score |")
        assert "S1" in out and "S2" in out and "S3" not in out  # S3 below threshold

    def test_rank_min_products_flag(self, archive, capsys):
        assert main(
            ["rank", "--dataset", str(archive), "--discipline", "BIO", "--min-products", "2", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # S2 and S3 tie on peer_tr = 0.70, S1 trails at 2/3
        assert [e["structure_id"] for e in payload["entries"]] == ["S2", "S3", "S1"]
        assert [e["display_rank"] for e in payload["entries"]] == [1, 1, 3]
        assert [e["average_rank"] for e in payload["entries"]] == [1.5, 1.5, 3.0]

    def test_compare_ranks_with_plot_data(self, archive, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        assert main(
            [
                "compare-ranks", "--dataset", str(archive), "--discipline", "BIO",
                "--metric", "peer-tr", "--against", "cites", "--plot-data", str(plot),
                "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric_a"] == "peer_tr" and payload["metric_b"] == "cites"
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "peer_tr_rank,cites_rank"
        assert len(lines) == len(payload["entries"]) + 1


class TestConcordanceCommands:
    def test_concordance_md(self, archive, capsys):
        assert main(["concordance", "--dataset", str(archive), "--discipline", "BIO", "--variable", "cites"]) == 0
        out = capsys.readouterr().out
        assert "Pearson chi-square independence" in out
        assert "Product-level Spearman" in out
        assert "| E~G |" in out

    def test_probability_json_sums_to_one(self, archive, capsys):
        assert main(
            ["probability", "--dataset", str(archive), "--discipline", "BIO", "--variable", "if", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["pair"] for row in payload] == ["E~G", "G~A", "A~L"]
        for row in payload:
            assert row["p_greater"] + row["p_less"] + row["p_equal"] == pytest.approx(1.0, abs=1e-12)


class TestSynthCommand:
    def test_seeded_generation_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        config = tmp_path / "config.json"
        config.write_text(
            '{"disciplines": [{"code": "BIO", "n_structures": 3, "products_min": 4, "products_max": 12}]}',
            encoding="utf-8",
        )
        assert main(["synth", "--seed", "42", "--config", str(config), "--out", str(a)]) == 0
        assert main(["synth", "--seed", "42", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_ingests_cleanly(self, tmp_path):
        csv_path = tmp_path / "g.csv"
        config = tmp_path / "config.json"
        config.write_text(
            '{"disciplines": [{"code": "BIO", "n_structures": 2, "products_min": 4, "products_max": 8}]}',
            encoding="utf-8",
        )
        assert main(["synth", "--seed", "7", "--config", str(config), "--out", str(csv_path)]) == 0
        assert main(["ingest", "--products", str(csv_path), "--out", str(tmp_path / "d.json")]) == 0

    def test_discipline_code_with_a_carriage_return_ingests_whole(self, tmp_path, capsys):
        """A code holding a CR is written in double quotes, so ingest accepts every row."""
        csv_path, archive, config = tmp_path / "g.csv", tmp_path / "d.json", tmp_path / "config.json"
        spec = {"code": "B\rIO", "n_structures": 2, "products_min": 4, "products_max": 8}
        config.write_text(json.dumps({"disciplines": [spec]}), encoding="utf-8")
        assert main(["synth", "--seed", "7", "--config", str(config), "--out", str(csv_path)]) == 0
        assert main(["ingest", "--products", str(csv_path), "--out", str(archive)]) == 0
        record = json.loads(capsys.readouterr().err)
        expected = generate_exercise(SynthConfig(seed=7, disciplines=(DisciplineSpec(**spec),)))
        assert (record["errors"], record["accepted_count"]) == ([], len(expected))
        assert load_archive(archive.read_text(encoding="utf-8")).products == expected.products

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"target_rho": 5}', encoding="utf-8")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_config"

    def test_typo_config_key_exit_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            '{"disciplines": [{"code": "X", "n_structures": 2, "products_min": 1, "products_max": 5, "coverag": 0.1}]}',
            encoding="utf-8",
        )
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_config"
        assert not (tmp_path / "x.csv").exists()


class TestReport:
    def test_report_all_covers_every_discipline(self, archive, capsys):
        assert main(["report", "--dataset", str(archive), "--all", "--format", "json", "--min-products", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["disciplines"]) == ["BIO", "MCS"]

    def test_report_markdown_sections(self, archive, capsys):
        assert main(["report", "--dataset", str(archive), "--all", "--min-products", "2"]) == 0
        out = capsys.readouterr().out
        assert "## Discipline BIO" in out and "## Discipline MCS" in out
        assert "### Profile" in out
        assert "Adjacent-rating pairwise probabilities" in out

    def test_report_byte_identical_across_runs(self, archive, tmp_path):
        first, second = tmp_path / "r1.md", tmp_path / "r2.md"
        assert main(["report", "--dataset", str(archive), "--all", "--out", str(first)]) == 0
        assert main(["report", "--dataset", str(archive), "--all", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_report_peak_memory_is_bounded(self, tmp_path):
        """The archive's products are built as its records are decoded."""
        products, dataset = tmp_path / "products.csv", tmp_path / "dataset.json"
        assert main(["synth", "--seed", "42", "--out", str(products)]) == 0
        assert main(["ingest", "--products", str(products), "--out", str(dataset)]) == 0
        tracemalloc.start()
        try:
            assert main(["report", "--dataset", str(dataset), "--all", "--out", str(tmp_path / "report.md")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~1.7 MiB here; 2.5 MiB with the whole document decoded before any product is built
        assert peak < 2.1 * 2**20

    def test_report_csv_sections(self, archive, capsys):
        assert main(["report", "--dataset", str(archive), "--all", "--format", "csv", "--min-products", "2"]) == 0
        out = capsys.readouterr().out
        for marker in ("# profiles", "# breakdowns", "# chi_square", "# probabilities", "# rankings"):
            assert marker in out


#: PRODUCTS_CSV with TR products that lack a value in MCS alone, in key order
#: S3/P26 (no impact factor), then S4/P27 (no citation count); BIO has none.
MCS_GAPS_CSV = PRODUCTS_CSV + (
    "P27,S4,MCS,2003,journal_article,L,true,,0.7,2,1\n"
    "P26,S3,MCS,2003,journal_article,A,true,2,,1,1\n"
)
MCS_NOTES = [
    "tr_missing_if: product 'P26' is TR-indexed without an impact factor",
    "tr_missing_citations: product 'P27' is TR-indexed without a citation count",
]


def ingested(tmp_path, text: str) -> Path:
    products, out = tmp_path / "products.csv", tmp_path / "dataset.json"
    products.write_text(text, encoding="utf-8")
    assert main(["ingest", "--products", str(products), "--out", str(out)]) == 0
    return out


def report_notes(argv, capsys) -> tuple[list[str], list[str]]:
    """The validation notes of a report, from its md and its json rendering."""
    assert main(["report", *argv]) == 0
    md = capsys.readouterr().out
    validation = md.split("## Validation\n", 1)[1].split("\n## ", 1)[0]
    assert main(["report", *argv, "--format", "json"]) == 0
    notes = json.loads(capsys.readouterr().out)["validation_notes"]
    return [line[2:] for line in validation.splitlines() if line], notes


class TestValidationByArea:
    """A report's validation notes cover the areas it reports, and each
    missing-value rule has one rule id and one message on every path."""

    def test_each_missing_value_has_one_message_on_every_path(self, tmp_path, capsys):
        archive = ingested(tmp_path, MISSING_CITATIONS_CSV)
        expected = [
            ("tr_missing_citations", "product 'P1' is TR-indexed without a citation count"),
            ("tr_missing_if", "product 'P2' is TR-indexed without an impact factor"),
            ("tr_missing_citations", "product 'P3' is TR-indexed without a citation count"),
            ("tr_missing_if", "product 'P3' is TR-indexed without an impact factor"),
        ]
        ingest_warnings = json.loads(capsys.readouterr().err)["warnings"]
        # each at the products file line of its row
        assert [(w["row"], w["rule"], w["message"]) for w in ingest_warnings] == [
            (2, *expected[0]),
            (3, *expected[1]),
            (4, *expected[2]),
            (4, *expected[3]),
            (5, "unknown_discipline", "discipline code 'XYZ' is not a known area"),
        ]
        assert main(["validate", "--dataset", str(archive), "--format", "json"]) == 0
        validate_warnings = json.loads(capsys.readouterr().out)["warnings"]
        assert [(w["row"], w["rule"], w["message"]) for w in validate_warnings] == [(0, *e) for e in expected]
        notes = [f"{rule}: {message}" for rule, message in expected]
        assert report_notes(["--dataset", str(archive), "--discipline", "BIO"], capsys) == (notes, notes)

    def test_a_report_lists_the_issues_of_its_own_areas(self, tmp_path, capsys):
        archive = str(ingested(tmp_path, MCS_GAPS_CSV))
        capsys.readouterr()
        assert report_notes(["--dataset", archive, "--discipline", "BIO"], capsys) == (["no issues"], [])
        assert report_notes(["--dataset", archive, "--discipline", "MCS"], capsys) == (MCS_NOTES, MCS_NOTES)
        assert report_notes(["--dataset", archive, "--all"], capsys) == (MCS_NOTES, MCS_NOTES)

    def test_in_process_notes_follow_the_areas_in_key_order(self):
        from vtrkit.report import build_report

        text = MCS_GAPS_CSV + "P28,S9,BIO,2003,journal_article,G,true,,,1,1\n"
        dataset, _ = parse_products(text)
        bio = [
            "tr_missing_citations: product 'P28' is TR-indexed without a citation count",
            "tr_missing_if: product 'P28' is TR-indexed without an impact factor",
        ]
        assert build_report(dataset, ["BIO"]).validation_notes == bio
        assert build_report(dataset, ["MCS", "BIO"]).validation_notes == bio + MCS_NOTES
        assert build_report(dataset).validation_notes == bio + MCS_NOTES

    @pytest.mark.parametrize("fmt", ["md", "json", "csv"])
    def test_a_report_on_one_area_decodes_only_its_rows(self, archive, capsys, monkeypatch, fmt):
        import vtrkit.model as model

        decoded = []
        decode = model._area_products
        monkeypatch.setattr(model, "_area_products", lambda *args: decoded.append(args[-1]) or decode(*args))
        argv = ["report", "--dataset", str(archive), "--format", fmt, "--min-products", "2"]
        assert main([*argv, "--discipline", "MCS"]) == 0
        assert decoded == ["MCS"]
        assert "BIO" not in capsys.readouterr().out
        decoded.clear()
        assert main([*argv, "--all"]) == 0
        every_area = capsys.readouterr().out
        assert decoded == ["BIO", "MCS"]
        decoded.clear()
        assert main([*argv, "--discipline", "MCS", "--all"]) == 0
        assert capsys.readouterr().out == every_area
        assert decoded == ["BIO", "MCS"]


class TestGoldenReport:
    """Regenerating the report from a committed archive must reproduce the
    committed rendering byte for byte."""

    def test_markdown_golden(self, capsys):
        from conftest import FIXTURES

        assert main(
            ["report", "--dataset", str(FIXTURES / "golden_dataset.json"), "--all", "--min-products", "2"]
        ) == 0
        assert capsys.readouterr().out == (FIXTURES / "golden_report.md").read_text(encoding="utf-8")

    def test_json_golden(self, capsys):
        from conftest import FIXTURES

        assert main(
            [
                "report", "--dataset", str(FIXTURES / "golden_dataset.json"),
                "--all", "--min-products", "2", "--format", "json",
            ]
        ) == 0
        assert capsys.readouterr().out == (FIXTURES / "golden_report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv", [["profile"], ["breakdown", "--discipline", "BIO"], ["report", "--all"]], ids=["all", "area", "report"]
)
def test_the_program_runs_its_command_without_the_collector(archive, capsys, monkeypatch, argv):
    """Run as a program, a command writes its output with cyclic GC off, and
    what is alive at the end is frozen out of the collection at exit."""
    seen = []
    write = cli._write_lines
    monkeypatch.setattr(cli, "_write_lines", lambda *args: (seen.append(gc.isenabled()), write(*args)))
    monkeypatch.setattr(sys, "argv", ["vtrkit", argv[0], "--dataset", str(archive), *argv[1:]])
    try:
        assert cli.run() == 0
        assert seen == [False]
        assert gc.get_freeze_count() > 0
    finally:
        gc.enable()
        gc.unfreeze()


GARBAGE_PROBE = """
import gc, json, sys
from vtrkit.cli import main
gc.collect()
gc.disable()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "garbage": gc.collect()}))
"""


def test_command_garbage_does_not_grow_with_the_input(archive, tmp_path):
    """What a command leaves for the cyclic collector is the same on an input
    about ten times larger: the program may run without the collector."""
    from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise

    spec = tuple(DisciplineSpec(code, n_structures=12, products_min=4, products_max=20) for code in ("BIO", "MCS"))
    exercise = generate_exercise(SynthConfig(seed=1, disciplines=spec))
    assert len(exercise) >= 10 * len(PRODUCTS_CSV.splitlines()[1:])
    large = tmp_path / "large"
    large.mkdir()
    (large / "products.csv").write_text(serialize_products(exercise), encoding="utf-8")
    assert main(["ingest", "--products", str(large / "products.csv"), "--out", str(large / "dataset.json")]) == 0
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in (
        ["ingest", "--products", "{dir}/products.csv"],
        ["report", "--dataset", "{dir}/dataset.json", "--all", "--min-products", "2"],
        ["concordance", "--dataset", "{dir}/dataset.json", "--discipline", "BIO"],
        ["rank", "--dataset", "{dir}/dataset.json", "--discipline", "BIO", "--min-products", "1"],
    ):
        garbage = []
        for directory in (archive.parent, large):
            args = [a.format(dir=directory) for a in argv] + ["--out", str(tmp_path / "out")]
            child = subprocess.run([sys.executable, "-c", GARBAGE_PROBE, *args], env=env, capture_output=True, text=True)
            assert child.returncode == 0, child.stderr
            result = json.loads(child.stdout.splitlines()[-1])
            assert result["code"] == 0, child.stderr
            garbage.append(result["garbage"])
        assert garbage[0] == garbage[1], argv[0]


def test_main_leaves_the_collector_as_it_found_it(archive, tmp_path, capsys):
    """``main`` runs in its caller's process: no command freezes or pauses
    the collector there."""
    for argv in (
        ["ingest", "--products", str(tmp_path / "products.csv"), "--out", str(tmp_path / "a.json")],
        ["report", "--dataset", str(archive), "--all"],
        ["concordance", "--dataset", str(archive), "--discipline", "BIO", "--variable", "cites"],
    ):
        assert main(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (True, 0)
