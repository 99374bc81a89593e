"""CLI subcommands: exit codes, file outputs, format switching, determinism."""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import tracemalloc

import pytest

from vtrkit import cli
from vtrkit.cli import main
from vtrkit.model import load_archive, parse_products_file, serialize_products, write_archive

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
        assert doc["format"] == "vtrkit-dataset/2"
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
        assert dataclasses.replace(loaded.provenance, ingested_at="") == dataclasses.replace(
            dataset.provenance, ingested_at=""
        )
        expected = write_archive(dataclasses.replace(dataset, provenance=loaded.provenance))
        assert streamed == expected.encode("utf-8")

    def test_ingest_peak_memory_is_bounded(self, tmp_path):
        """Ingest reads the CSV row by row and writes the archive line by line."""
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
        doc = json.loads(archive.read_text())
        doc["products"][0]["citations"] = "9"
        archive.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", "--dataset", str(archive), "--all"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_archive"

    def test_archive_of_only_its_format_exits_1_with_error_record(self, tmp_path, capsys):
        """Such an archive used to load as an empty dataset and report nothing."""
        archive = tmp_path / "dataset.json"
        archive.write_text('{"format": "vtrkit-dataset/1"}', encoding="utf-8")
        assert main(["report", "--dataset", str(archive), "--all"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_archive"

    def test_unexpected_exception_is_internal_error(self, archive, capsys, monkeypatch):
        def broken(text):
            raise RuntimeError("boom")

        monkeypatch.setattr("vtrkit.cli.load_archive", broken)
        assert main(["profile", "--dataset", str(archive)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "internal_error", "message": "RuntimeError: boom"}

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
def test_the_program_freezes_the_collector_once_loaded(archive, capsys, monkeypatch, argv):
    """Run as a program, a command that has loaded its dataset moves it out of
    reach of later collections (``gc.freeze``)."""
    seen = []
    write = cli._write_lines
    monkeypatch.setattr(cli, "_write_lines", lambda *args: (seen.append(gc.get_freeze_count()), write(*args)))
    monkeypatch.setattr(cli, "_freeze_loaded", False)  # restored after run() sets it
    monkeypatch.setattr(sys, "argv", ["vtrkit", argv[0], "--dataset", str(archive), *argv[1:]])
    try:
        assert cli.run() == 0
        assert seen and seen[0] > 0
    finally:
        gc.unfreeze()


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
