"""Independent recomputation of what the benchmark checks.

Reads the products CSV with its own reader and recomputes each checked
statistic with plain Python, numpy and scipy.  Nothing here calls vtrkit:
the rating weights and scale are restated from the method description.
Every ``check_*`` function raises ``CheckFailed`` on the first mismatch.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
from scipy import stats

RATINGS = ("E", "G", "A", "L")
SCALE = {"E": 4, "G": 3, "A": 2, "L": 1}
#: Committee weights, as exact decimals.
WEIGHTS = {"E": Fraction(1), "G": Fraction(4, 5), "A": Fraction(3, 5), "L": Fraction(1, 5)}
VARIABLES = ("citations", "journal_if")
FLAG = {"citations": "cites", "journal_if": "if"}
MIN_PRODUCTS = 10  # the CLI's default ranking threshold
ALPHA = 0.05


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(got, want, what: str, rel: float = 1e-9, abs_: float = 1e-12) -> None:
    if want is None or got is None:
        expect(got is None and want is None, f"{what}: got {got!r}, want {want!r}")
        return
    expect(math.isclose(got, want, rel_tol=rel, abs_tol=abs_), f"{what}: got {got!r}, want {want!r}")


# --- inputs ---

def read_products(path) -> list[dict]:
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        for r in csv.DictReader(f):
            rows.append(
                {
                    "product_id": r["product_id"],
                    "structure_id": r["structure_id"],
                    "discipline": r["discipline"],
                    "year": int(r["year"]),
                    "product_type": r["product_type"],
                    "peer_rating": r["peer_rating"],
                    "tr_indexed": {"true": True, "false": False}[r["tr_indexed"]],
                    "citations": int(r["citations"]) if r["citations"] else None,
                    "journal_if": float(r["journal_if"]) if r["journal_if"] else None,
                    "n_authors": int(r["n_authors"]),
                    "n_internal_authors": int(r["n_internal_authors"]),
                }
            )
    return rows


def rows_of_products(products) -> list[dict]:
    """Rows from in-memory products, for trials that never touch a file."""
    return [
        {
            "structure_id": p.structure_id,
            "peer_rating": p.peer_rating.token,
            "tr_indexed": p.tr_indexed,
            "citations": p.citations,
            "journal_if": p.journal_if,
        }
        for p in products
    ]


def by_area(rows) -> dict[str, list[dict]]:
    areas: dict[str, list[dict]] = defaultdict(list)
    for r in rows:
        areas[r["discipline"]].append(r)
    return dict(areas)


# --- recomputation ---

def tr_values(rows, variable) -> list[tuple[str, float]]:
    return [(r["peer_rating"], float(r[variable])) for r in rows if r["tr_indexed"] and r[variable] is not None]


def h_index(citations) -> int:
    ranked = np.sort(np.asarray(citations, dtype=np.int64))[::-1]
    return int(np.sum(ranked >= np.arange(1, len(ranked) + 1)))


def quartiles(pairs):
    """Cutpoints by linear interpolation at (n-1)p, bins with ties to the
    lower bin, and the rating x quartile count table."""
    values = np.array([v for _, v in pairs])
    cuts = np.quantile(values, [0.25, 0.5, 0.75], method="linear")
    bins = np.searchsorted(cuts, values, side="left")  # v <= cut stays in the lower bin
    counts = np.zeros((4, 4), dtype=np.int64)
    for (rating, _), b in zip(pairs, bins):
        counts[RATINGS.index(rating), b] += 1
    return cuts, bins + 1, counts


def chi_square(counts):
    table = counts[counts.sum(axis=1) > 0]
    table = table[:, table.sum(axis=0) > 0]
    result = stats.chi2_contingency(table, correction=False)
    return float(result.statistic), int(result.dof), float(result.pvalue)


def spearman(pairs, coded):
    result = stats.spearmanr([SCALE[r] for r, _ in pairs], coded)
    return float(result.statistic), float(result.pvalue), len(pairs)


def probabilities(pairs):
    """Exact (p_greater, p_less, p_equal, pair_count) per adjacent rating pair
    by counting every pair; None when a side is empty."""
    groups = {r: np.array([v for rating, v in pairs if rating == r]) for r in RATINGS}
    out = {}
    for hi, lo in zip(RATINGS, RATINGS[1:]):
        x, y = groups[hi], groups[lo]
        if not len(x) or not len(y):
            out[f"{hi}~{lo}"] = None
            continue
        greater = int((x[:, None] > y[None, :]).sum())
        equal = int((x[:, None] == y[None, :]).sum())
        total = len(x) * len(y)
        out[f"{hi}~{lo}"] = (greater / total, (total - greater - equal) / total, equal / total, total)
    return out


def peer_tr_scores(rows) -> tuple[dict[str, Fraction], list[str]]:
    """Exact peer-TR means of structures with enough products, and the
    sorted list of those without TR articles."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for r in rows:
        groups[r["structure_id"]].append(r)
    scores, excluded = {}, []
    for structure, group in groups.items():
        if len(group) < MIN_PRODUCTS:
            continue
        tr = [WEIGHTS[r["peer_rating"]] for r in group if r["tr_indexed"]]
        if tr:
            scores[structure] = sum(tr) / len(tr)
        else:
            excluded.append(structure)
    return scores, sorted(excluded)


# --- checks against the report's JSON ---

def check_profile(section, rows) -> None:
    prof = section["profile"]
    tr = [r for r in rows if r["tr_indexed"]]
    cites = [r["citations"] for r in tr if r["citations"] is not None]
    impact = [r["journal_if"] for r in tr if r["journal_if"] is not None]
    expect(prof["size"] == len(rows), f"size {prof['size']} != {len(rows)}")
    expect_close(prof["coverage"], len(tr) / len(rows), "coverage")
    expect_close(prof["mean_citations"], float(np.mean(cites)) if cites else None, "mean_citations")
    expect_close(prof["mean_if"], float(np.mean(impact)) if impact else None, "mean_if")
    expect(prof["h"] == h_index(cites), f"h {prof['h']} != {h_index(cites)}")


def _battery(section, variable):
    for b in section["batteries"]:
        if b["variable"] == variable:
            return b
    raise CheckFailed(f"no battery for {variable}")


def check_contingency(section, rows, variable) -> None:
    cont = _battery(section, variable)["contingency"]
    cuts, _, counts = quartiles(tr_values(rows, variable))
    for i, (got, want) in enumerate(zip(cont["cutpoints"], cuts)):
        expect_close(got, float(want), f"cutpoint {i + 1}", rel=1e-12)
    expect(cont["counts"] == counts.tolist(), f"counts {cont['counts']} != {counts.tolist()}")


def check_chi_square(section, rows, variable) -> None:
    got = _battery(section, variable)["chi_square"]
    _, _, counts = quartiles(tr_values(rows, variable))
    statistic, df, p = chi_square(counts)
    expect_close(got["statistic"], statistic, "chi-square statistic")
    expect(got["df"] == df, f"df {got['df']} != {df}")
    expect_close(got["p_value"], p, "chi-square p", rel=0, abs_=1e-6)


def check_spearman(section, rows, variable) -> None:
    got = _battery(section, variable)["product_spearman"]
    pairs = tr_values(rows, variable)
    _, coded, _ = quartiles(pairs)
    coefficient, p, n = spearman(pairs, coded)
    expect_close(got["coefficient"], coefficient, "Spearman coefficient", rel=0, abs_=1e-9)
    expect_close(got["p_value"], p, "Spearman p", rel=0, abs_=1e-6)
    expect(got["n"] == n, f"n {got['n']} != {n}")


def check_probabilities(section, rows, variable) -> None:
    want = probabilities(tr_values(rows, variable))
    got = {p["pair"]: p for p in _battery(section, variable)["probabilities"]}
    expect(sorted(got) == sorted(want), f"pairs {sorted(got)} != {sorted(want)}")
    for label, triple in want.items():
        entry = got[label]
        if triple is None:
            expect("p_greater" not in entry, f"{label}: triple reported for an empty group")
            continue
        for key, value in zip(("p_greater", "p_less", "p_equal"), triple):
            expect_close(entry[key], value, f"{label} {key}", rel=0, abs_=1e-15)
        expect(entry["pair_count"] == triple[3], f"{label} pair_count {entry['pair_count']} != {triple[3]}")


def check_probability_sums(section) -> None:
    for battery in section["batteries"]:
        for p in battery["probabilities"]:
            if "p_greater" in p:
                total = p["p_greater"] + p["p_less"] + p["p_equal"]
                expect(abs(total - 1.0) <= 1e-12, f"{battery['variable']} {p['pair']} sums to {total!r}")


def check_ranking(section, rows) -> None:
    """Same structures, scores and exclusions; order non-increasing in the
    exact score, and equal reported scores in structure-id order."""
    ranking = section["ranking"]
    scores, excluded = peer_tr_scores(rows)
    if not scores:
        expect(ranking is None, "ranking reported although no structure qualifies")
        return
    entries = ranking["entries"]
    ids = [e["structure_id"] for e in entries]
    expect(sorted(ids) == sorted(scores), f"ranked structures {sorted(ids)} != {sorted(scores)}")
    expect(ranking["excluded"] == excluded, f"excluded {ranking['excluded']} != {excluded}")
    for e in entries:
        expect_close(e["score"], float(scores[e["structure_id"]]), f"score of {e['structure_id']}", rel=1e-12)
    for (a, b), (ea, eb) in zip(zip(ids, ids[1:]), zip(entries, entries[1:])):
        expect(scores[a] >= scores[b], f"{a} ({scores[a]}) ranked above {b} ({scores[b]})")
        expect(ea["score"] != eb["score"] or a < b, f"tied {a} ranked above {b}")


def area_checks(section, rows):
    """(name, callable) pairs: one operation each."""
    checks = [
        ("profile", lambda: check_profile(section, rows)),
        ("ranking", lambda: check_ranking(section, rows)),
        ("probability_sums", lambda: check_probability_sums(section)),
    ]
    for variable in VARIABLES:
        for name, fn in (
            ("contingency", check_contingency),
            ("chi_square", check_chi_square),
            ("spearman", check_spearman),
            ("probabilities", check_probabilities),
        ):
            checks.append((f"{name}.{FLAG[variable]}", lambda fn=fn, variable=variable: fn(section, rows, variable)))
    return checks


def query_section(section, kind: tuple[str, ...]):
    """The part of the full report a single-area query must reproduce."""
    command = kind[0]
    variable = {"cites": "citations", "if": "journal_if"}.get(kind[-1])
    if command == "profile":
        return [section["profile"]]
    if command == "breakdown":
        return section["breakdown"]
    if command == "rank":
        return section["ranking"]
    if command == "compare-ranks":
        return section["comparison"]
    if command == "concordance":
        return _battery(section, variable)
    if command == "probability":
        return _battery(section, variable)["probabilities"]
    raise CheckFailed(f"unknown query {command}")


def check_query(section, area: str, kind, stdout: bytes) -> None:
    got = json.loads(stdout)
    if kind[0] == "concordance":
        expect(got.pop("discipline", None) == area, "concordance JSON names another area")
    expect(got == query_section(section, kind), f"{' '.join(kind)} on {area} differs from the report")


def check_archive(dataset, rows) -> None:
    """The loaded archive holds exactly the CSV's products."""
    loaded = [
        {
            "product_id": p.product_id,
            "structure_id": p.structure_id,
            "discipline": p.discipline,
            "year": p.year,
            "product_type": p.product_type.value,
            "peer_rating": p.peer_rating.token,
            "tr_indexed": p.tr_indexed,
            "citations": p.citations,
            "journal_if": p.journal_if,
            "n_authors": p.n_authors,
            "n_internal_authors": p.n_internal_authors,
        }
        for p in dataset.products
    ]

    def key(r):
        return (r["discipline"], r["structure_id"], r["product_id"])

    expect(len(loaded) == len(rows), f"{len(loaded)} products loaded, {len(rows)} in the CSV")
    expect(sorted(loaded, key=key) == sorted(rows, key=key), "loaded products differ from the CSV rows")


def check_ingest_record(record, rows, known_areas) -> None:
    """The ingest report: nothing rejected, and one unknown_discipline
    warning for each row whose area is not a known one."""
    unknown = sum(r["discipline"] not in known_areas for r in rows)
    if record is None:
        expect(unknown == 0, f"no ingest warnings although {unknown} rows have unknown areas")
        return
    expect(record["errors"] == [], f"{len(record['errors'])} rows rejected")
    expect(record["accepted_count"] == len(rows), f"accepted {record['accepted_count']} of {len(rows)}")
    rules = {w["rule"] for w in record["warnings"]}
    expect(len(record["warnings"]) == unknown, f"{len(record['warnings'])} warnings, {unknown} unknown-area rows")
    expect(rules <= {"unknown_discipline"}, f"unexpected warnings {sorted(rules)}")


# --- trials ---

def check_trial(trial) -> None:
    """chi-square and Spearman of a trial agree with scipy within 1e-6."""
    rows = rows_of_products(trial.products)
    for variable in VARIABLES:
        pairs = tr_values(rows, variable)
        _, coded, counts = quartiles(pairs)
        statistic, df, p = chi_square(counts)
        coefficient, sp_p, n = spearman(pairs, coded)
        got_stat, got_df, got_p, got_coef, got_sp_p, got_n = trial.stats[variable]
        expect_close(got_stat, statistic, f"{variable} chi-square statistic", rel=0, abs_=1e-6)
        expect(got_df == df and got_n == n, f"{variable} df/n ({got_df}, {got_n}) != ({df}, {n})")
        expect_close(got_p, p, f"{variable} chi-square p", rel=0, abs_=1e-6)
        expect_close(got_coef, coefficient, f"{variable} Spearman coefficient", rel=0, abs_=1e-6)
        expect_close(got_sp_p, sp_p, f"{variable} Spearman p", rel=0, abs_=1e-6)


def rejection_band(n: int) -> tuple[int, int]:
    """Rejection counts out of n null trials that a test of size alpha
    reaches with probability above 1 - 2e-5 (10 to 55 of 600)."""
    lo = int(stats.binom.ppf(1e-5, n, ALPHA))
    hi = int(stats.binom.isf(1e-5, n, ALPHA))
    return lo, hi


def check_null_rejections(trials, stat_index: int) -> None:
    null = [t for t in trials if t.rho == 0.0]
    rejected = sum(t.stats["citations"][stat_index] < ALPHA for t in null)
    lo, hi = rejection_band(len(null))
    expect(lo <= rejected <= hi, f"{rejected}/{len(null)} null rejections outside [{lo}, {hi}]")


def check_positive_spearman(trials) -> None:
    correlated = [t for t in trials if t.rho > 0.0]
    for variable in VARIABLES:
        positive = sum(t.stats[variable][3] > 0 for t in correlated)
        expect(positive >= 0.99 * len(correlated), f"{variable}: {positive}/{len(correlated)} positive")
