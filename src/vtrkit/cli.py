"""Command-line front end.

Subcommands: ingest, validate, profile, breakdown, rank, compare-ranks,
concordance, probability, synth, report.  Exit codes: 0 success, 1 validation,
pipeline or internal errors, 2 usage errors.  A failure of exit code 1 prints
machine-readable JSON to stderr: an error record, or the validation report of
an ``ingest`` that rejects a row.  A usage error prints argparse's usage text
there instead.

At module level this imports only ``model``; each command imports the modules
it runs inside its own function, so ``ingest`` loads no statistics, a single
table loads no report builder, and no query on an archive loads the CSV code
of ``ingest``.  A command imports ``tables`` for md and csv alone: as JSON,
its result goes through ``jsonout`` (``_render``).  ``run``, the program, is
the only code that touches the garbage collector: a command makes no cyclic
garbage that grows with its data, so the program runs it with the collector
off.  ``main``, which callers may run in their own process, leaves the
collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .model import PipelineError, archive_lines, load_archive, read_text_file

VARIABLE_BY_FLAG = {"cites": "citations", "if": "journal_if"}
METRIC_BY_FLAG = {"peer": "peer_all", "peer-tr": "peer_tr", "cites": "cites", "if": "impact"}


def _write_lines(lines, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.writelines(lines)
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.writelines(lines)


def _write_out(text: str, out: str | None) -> None:
    _write_lines((text,), out)


def _load_dataset(path: str, discipline: str | None = None):
    """The archive at ``path``; given ``discipline``, for a command that reads
    only that area, the archive's rows of that area alone are decoded."""
    # line ends are read as written (newline=""), so a seal covers them too
    return load_archive(read_text_file(path, newline=""), discipline)


def _min_products(args) -> int:
    """``--min-products``, which may not be negative."""
    if args.min_products < 0:
        raise PipelineError("bad_min_products", f"--min-products must be >= 0, got {args.min_products}")
    return args.min_products


def _render(fmt: str, table: str, items, payload=None) -> str:
    """``items`` as the md or csv table ``tables.<table>``, or as JSON the
    payload (default: the items) through ``jsonout``, which loads no ``tables``."""
    if fmt == "json":
        from .jsonout import as_json, json_text
        return json_text(as_json(list(items) if payload is None else payload))
    from . import tables
    return tables.render(getattr(tables, table), items, fmt)


def _render_validation(report, fmt: str) -> str:  # report: an audit.ValidationReport
    issues = [("warning", i) for i in report.warnings]  # validate_dataset records no errors
    text = _render(fmt, "ISSUES", issues, payload=report)
    if fmt != "md":
        return text
    return f"accepted products: {report.accepted_count}\n" + (text if issues else "no issues\n")


def cmd_ingest(args) -> int:
    from .ingest import parse_products_file
    dataset, report = parse_products_file(args.products)
    if report.errors or report.warnings:
        sys.stderr.writelines(report.json_parts())
    if dataset is None:
        return 1
    _write_lines(archive_lines(dataset), args.out)
    return 0


def cmd_validate(args) -> int:
    from .audit import SelectionPolicy, validate_dataset
    dataset = _load_dataset(args.dataset)
    staff = None
    if args.staff:
        from .ingest import parse_staff  # the staff table is CSV
        staff = parse_staff(read_text_file(args.staff))
    policy = SelectionPolicy(staff=staff, cap_fraction=args.cap)
    report = validate_dataset(dataset, policy)
    _write_out(_render_validation(report, args.format), args.out)
    return 0


def cmd_profile(args) -> int:
    from .indicators import discipline_profile
    dataset = _load_dataset(args.dataset, args.discipline)
    disciplines = [args.discipline] if args.discipline is not None else dataset.disciplines
    profiles = [discipline_profile(dataset, d) for d in disciplines]
    _write_out(_render(args.format, "PROFILE", profiles), args.out)
    return 0


def cmd_breakdown(args) -> int:
    from .indicators import rating_breakdown
    dataset = _load_dataset(args.dataset, args.discipline)
    rows = rating_breakdown(dataset, args.discipline)
    _write_out(_render(args.format, "BREAKDOWN", rows), args.out)
    return 0


def cmd_rank(args) -> int:
    from .scoring import compile_ranking, structure_ratings
    min_products = _min_products(args)
    dataset = _load_dataset(args.dataset, args.discipline)
    ratings = structure_ratings(dataset, args.discipline)
    ranking = compile_ranking(ratings, METRIC_BY_FLAG[args.metric], min_products)
    if args.format == "md":
        from .tables import ranking_md
        text = ranking_md(ranking)
    else:
        text = _render(args.format, "RANKING", ranking.entries, payload=ranking)
    _write_out(text, args.out)
    return 0


def cmd_compare_ranks(args) -> int:
    from .scoring import compile_ranking, rank_comparison, structure_ratings
    min_products = _min_products(args)
    dataset = _load_dataset(args.dataset, args.discipline)
    ratings = structure_ratings(dataset, args.discipline)
    ranking_a = compile_ranking(ratings, METRIC_BY_FLAG[args.metric], min_products)
    ranking_b = compile_ranking(ratings, METRIC_BY_FLAG[args.against], min_products)
    comparison = rank_comparison(ranking_a, ranking_b)
    if args.plot_data:
        from .tables import plot_data_text
        _write_out(plot_data_text(comparison), args.plot_data)
    if args.format == "md":
        from .tables import comparison_md
        text = comparison_md(comparison)
        if comparison.dropped:
            text += f"- present in only one ranking: {', '.join(comparison.dropped)}\n"
    else:
        text = _render(args.format, "COMPARISON", comparison.entries, payload=comparison)
    _write_out(text, args.out)
    return 0


def cmd_concordance(args) -> int:
    from .battery import build_battery, render_battery
    dataset = _load_dataset(args.dataset, args.discipline)
    battery = build_battery(dataset.area(args.discipline), VARIABLE_BY_FLAG[args.variable], args.coding)
    _write_out(render_battery(battery, args.format, args.discipline), args.out)
    return 0


def cmd_probability(args) -> int:
    from .concordance import RatingSample
    dataset = _load_dataset(args.dataset, args.discipline)
    pairs = RatingSample(dataset.area(args.discipline), VARIABLE_BY_FLAG[args.variable]).probabilities()
    _write_out(_render(args.format, "PROBABILITIES", pairs), args.out)
    return 0


def cmd_synth(args) -> int:
    from .ingest import serialize_products
    from .synth import SynthConfig, generate_exercise, load_synth_config
    config = load_synth_config(read_text_file(args.config)) if args.config else SynthConfig()
    if args.seed is not None:
        config = config._replace(seed=args.seed)  # the constructor checks it again
    dataset = generate_exercise(config)
    _write_out(serialize_products(dataset), args.out)
    return 0


def cmd_report(args) -> int:
    """The report on ``--discipline`` alone, which decodes only its rows, or on every area with ``--all``."""
    from . import report as rpt
    min_products = _min_products(args)
    disciplines = None if args.all or args.discipline is None else [args.discipline]
    dataset = _load_dataset(args.dataset, disciplines[0] if disciplines else None)
    bundle = rpt.build_report(dataset, disciplines, min_products=min_products, coding=args.coding)
    renderers = {"md": rpt.render_report_md, "csv": rpt.render_report_csv, "json": rpt.render_report_json}
    _write_out(renderers[args.format](bundle), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtrkit",
        description="Research-assessment analytics: peer ratings, bibliometric indicators, concordance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", required=True, help="canonical dataset archive (JSON)")
        p.add_argument("--format", choices=("md", "csv", "json"), default="md")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("ingest", help="parse a products file and write the canonical archive")
    p.add_argument("--products", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="re-check invariants and audit submission caps")
    common(p)
    p.add_argument("--staff", default=None, help="optional staff table (structure_id,kind,avg_staff)")
    p.add_argument("--cap", type=float, default=0.5, help="cap as a fraction of FTE researchers")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("profile", help="discipline profile rows")
    common(p)
    p.add_argument("--discipline", default=None, help="one area (default: all)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("breakdown", help="per-rating breakdown for one discipline")
    common(p)
    p.add_argument("--discipline", required=True)
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("rank", help="structure ranking for one discipline")
    common(p)
    p.add_argument("--discipline", required=True)
    p.add_argument("--metric", choices=sorted(METRIC_BY_FLAG), default="peer-tr")
    p.add_argument("--min-products", type=int, default=10)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("compare-ranks", help="compare two structure rankings")
    common(p)
    p.add_argument("--discipline", required=True)
    p.add_argument("--metric", choices=sorted(METRIC_BY_FLAG), default="peer-tr")
    p.add_argument("--against", choices=sorted(METRIC_BY_FLAG), default="cites")
    p.add_argument("--min-products", type=int, default=10)
    p.add_argument("--plot-data", default=None, help="write (rank, rank) pairs to this CSV path")
    p.set_defaults(func=cmd_compare_ranks)

    p = sub.add_parser("concordance", help="contingency + chi-square + Spearman + probabilities")
    common(p)
    p.add_argument("--discipline", required=True)
    p.add_argument("--variable", choices=sorted(VARIABLE_BY_FLAG), default="cites")
    p.add_argument("--coding", choices=("quartile", "raw"), default="quartile")
    p.set_defaults(func=cmd_concordance)

    p = sub.add_parser("probability", help="adjacent-rating pairwise probabilities")
    common(p)
    p.add_argument("--discipline", required=True)
    p.add_argument("--variable", choices=sorted(VARIABLE_BY_FLAG), default="cites")
    p.set_defaults(func=cmd_probability)

    p = sub.add_parser("synth", help="generate a synthetic exercise in the products file format")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON generator config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="full analysis report")
    common(p)
    p.add_argument("--discipline", default=None)
    p.add_argument("--all", action="store_true", help="cover every discipline present")
    p.add_argument("--min-products", type=int, default=10)
    p.add_argument("--coding", choices=("quartile", "raw"), default="quartile")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        error, message = exc.code, str(exc)
    except OSError as exc:
        error, message = "io_error", str(exc)
    except Exception as exc:  # a fault in vtrkit itself: still one JSON record, never a traceback
        error, message = "internal_error", f"{type(exc).__name__}: {exc}"
    sys.stderr.write(json.dumps({"error": error, "message": message}, sort_keys=True) + "\n")
    return 1


def run() -> int:
    """The ``vtrkit`` program: ``main`` on ``sys.argv`` with cyclic garbage
    collection off, since a command's only cyclic garbage is argparse's few
    hundred objects.  Whatever is alive when it returns is then frozen, so the
    collection at interpreter exit need not traverse the dataset."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
