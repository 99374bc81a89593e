"""Command-line front end.

Subcommands: ingest, validate, profile, breakdown, rank, compare-ranks,
concordance, probability, synth, report.  Exit codes: 0 success, 1 validation,
pipeline or internal errors, 2 usage errors.  Every failure prints a
machine-readable JSON error record to stderr.

At module level this imports only ``model``; each command imports the modules
it runs inside its own function, so ``ingest`` loads no statistics and a
single table loads no report builder.  Run as a program (``run``), a command
that holds its dataset freezes the garbage collector's view of it
(``gc.freeze``): the products live until the process ends, so later
collections, the one at exit included, need not traverse them.  ``main``,
which callers may run in their own process, never freezes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .model import (
    PipelineError,
    SelectionPolicy,
    ValidationReport,
    archive_lines,
    load_archive,
    load_archive_area,
    parse_products_file,
    parse_staff,
    read_text_file,
    serialize_products,
    validate_dataset,
)

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


_freeze_loaded = False  # set by ``run``, whose process ends with the command


def _frozen(dataset):
    if _freeze_loaded:
        gc.freeze()  # everything alive now, the dataset included, leaves the collections
    return dataset


def _load_dataset(path: str):
    # line ends are read as written (newline=""), so a seal covers them too
    return _frozen(load_archive(read_text_file(path, newline="")))


def _load_area(path: str, discipline: str):
    """The archive at ``path`` for a command that reads only ``discipline``:
    a sealed archive decodes that area's records alone."""
    return _frozen(load_archive_area(read_text_file(path, newline=""), discipline))


def _report_to_stderr(report: ValidationReport) -> None:
    if report.errors or report.warnings:
        sys.stderr.write(json.dumps(report.as_dict(), sort_keys=True) + "\n")


def _render_validation(report: ValidationReport, fmt: str) -> str:
    from .tables import ISSUES, render
    issues = [("error", i) for i in report.errors] + [("warning", i) for i in report.warnings]
    text = render(ISSUES, issues, fmt, payload=report)
    if fmt != "md":
        return text
    return f"accepted products: {report.accepted_count}\n" + (text if issues else "no issues\n")


def cmd_ingest(args) -> int:
    dataset, report = _frozen(parse_products_file(args.products))
    _report_to_stderr(report)
    if dataset is None:
        return 1
    _write_lines(archive_lines(dataset), args.out)
    return 0


def cmd_validate(args) -> int:
    dataset = _load_dataset(args.dataset)
    staff = None
    if args.staff:
        staff = parse_staff(read_text_file(args.staff))
    policy = SelectionPolicy(staff=staff, cap_fraction=args.cap)
    report = validate_dataset(dataset, policy)
    _write_out(_render_validation(report, args.format), args.out)
    return 0 if report.ok else 1


def cmd_profile(args) -> int:
    from .indicators import discipline_profile
    from .tables import PROFILE, render
    if args.discipline:
        dataset, disciplines = _load_area(args.dataset, args.discipline), [args.discipline]
    else:
        dataset = _load_dataset(args.dataset)
        disciplines = dataset.disciplines
    profiles = [discipline_profile(dataset, d) for d in disciplines]
    _write_out(render(PROFILE, profiles, args.format), args.out)
    return 0


def cmd_breakdown(args) -> int:
    from .indicators import rating_breakdown
    from .tables import BREAKDOWN, render
    dataset = _load_area(args.dataset, args.discipline)
    rows = rating_breakdown(dataset, args.discipline)
    _write_out(render(BREAKDOWN, rows, args.format), args.out)
    return 0


def cmd_rank(args) -> int:
    from .scoring import compile_ranking, structure_ratings
    from .tables import RANKING, ranking_md, render
    dataset = _load_area(args.dataset, args.discipline)
    ratings = structure_ratings(dataset, args.discipline)
    ranking = compile_ranking(ratings, METRIC_BY_FLAG[args.metric], args.min_products)
    if args.format == "md":
        text = ranking_md(ranking)
    else:
        text = render(RANKING, ranking.entries, args.format, payload=ranking)
    _write_out(text, args.out)
    return 0


def cmd_compare_ranks(args) -> int:
    from .scoring import compile_ranking, rank_comparison, structure_ratings
    from .tables import COMPARISON, comparison_md, plot_data_text, render
    dataset = _load_area(args.dataset, args.discipline)
    ratings = structure_ratings(dataset, args.discipline)
    ranking_a = compile_ranking(ratings, METRIC_BY_FLAG[args.metric], args.min_products)
    ranking_b = compile_ranking(ratings, METRIC_BY_FLAG[args.against], args.min_products)
    comparison = rank_comparison(ranking_a, ranking_b)
    if args.plot_data:
        _write_out(plot_data_text(comparison), args.plot_data)
    if args.format == "md":
        text = comparison_md(comparison)
        if comparison.dropped:
            text += f"- present in only one ranking: {', '.join(comparison.dropped)}\n"
    else:
        text = render(COMPARISON, comparison.entries, args.format, payload=comparison)
    _write_out(text, args.out)
    return 0


def cmd_concordance(args) -> int:
    from .battery import build_battery, render_battery
    dataset = _load_area(args.dataset, args.discipline)
    battery = build_battery(dataset.area(args.discipline), VARIABLE_BY_FLAG[args.variable], args.coding)
    _write_out(render_battery(battery, args.format, args.discipline), args.out)
    return 0


def cmd_probability(args) -> int:
    from .concordance import adjacent_rating_probabilities
    from .tables import PROBABILITIES, render
    dataset = _load_area(args.dataset, args.discipline)
    products = dataset.products_in(args.discipline)
    pairs = adjacent_rating_probabilities(products, VARIABLE_BY_FLAG[args.variable])
    _write_out(render(PROBABILITIES, pairs, args.format), args.out)
    return 0


def cmd_synth(args) -> int:
    import dataclasses
    from .synth import SynthConfig, generate_exercise, load_synth_config
    if args.config:
        config = load_synth_config(read_text_file(args.config))
    else:
        config = SynthConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    dataset = generate_exercise(config)
    _write_out(serialize_products(dataset), args.out)
    return 0


def cmd_report(args) -> int:
    from . import report as rpt
    dataset = _load_dataset(args.dataset)
    disciplines = None if args.all or not args.discipline else [args.discipline]
    bundle = rpt.build_report(dataset, disciplines, min_products=args.min_products, coding=args.coding)
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
    """The ``vtrkit`` program: ``main`` on ``sys.argv``, with each command
    freezing the collector once it holds its dataset."""
    global _freeze_loaded
    _freeze_loaded = True
    return main()


if __name__ == "__main__":
    sys.exit(run())
