#!/usr/bin/env python3
"""vtrkit benchmark: run one workload and print its result as the last line.

    python3 bench/run.py --workload exercise-26k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times the CLI as child processes
(``python -m vtrkit.cli`` against ``src/``) and in-process trials, and prints
the end-to-end metrics.  With ``--trace 1`` it runs the same layers
in-process under the span recorder, alternating traced and untraced passes,
and prints the per-layer metrics with the tracing overhead.  Either way it
checks the outputs against independent computations (``oracle.py``) and
counts every CLI call, trial and check as one attempted operation.  See
``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import NullRecorder, Recorder, write_jsonl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"
PRODUCTS_NAME = "products.csv"
#: ``calibrate()`` on the reference host (2 vCPU Xeon at 2.1 GHz, Python
#: 3.11.7) in its fast state; scaled times are seconds at that speed.
NOMINAL_CALIBRATION_S = 0.0070

QUERIES_PER_ROUND = 2
#: Trials whose products are kept and re-checked against scipy.
TRIAL_SAMPLE = 10
#: Trials per latent rho that the Monte Carlo property checks use.
STUDY_TRIALS = 600

LAYER_TIMES = (
    "synth.generate",
    "model.parse",
    "model.write_archive",
    "model.load_archive",
    "model.products_in",
    "model.validate",
    "model.serialize",
    "indicators.profile",
    "indicators.breakdown",
    "scoring.structure_ratings",
    "scoring.ranking",
    "concordance.contingency",
    "concordance.chi_square",
    "concordance.spearman",
    "concordance.probabilities",
    "numerics.average_ranks",
    "numerics.tail",
    "report.build",
    "report.render_md",
    "report.render_json",
    "report.render_csv",
    "cli.startup",
)
LAYER_COUNTS = {
    "products": ("synth.products", "count"),
    "archive_bytes": ("model.archive_bytes", "bytes"),
    "warnings": ("model.warnings", "count"),
    "md_bytes": ("report.md_bytes", "bytes"),
}


class Tally:
    """Attempted and failed operations; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def check(self, name: str, fn):
        """One checked operation; returns what ``fn`` returns, None if it fails."""
        try:
            out = fn()
        except Exception as exc:  # any error inside a check fails that check, not the run
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, True)
        return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Cli:
    """Runs ``python -m vtrkit.cli``; a nonzero exit is a failed operation."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.env = child_env()

    def run(self, *args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, "-m", "vtrkit.cli", *args], cwd=ROOT, env=self.env, capture_output=True
        )
        # a failing command leaves its JSON error record as the last stderr line
        record = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] if proc.returncode else ""
        self.tally.record(args[0], proc.returncode == 0, f"exit {proc.returncode} {record}")
        return proc


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter work (the fastest of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rows = [{"id": f"P-{i:05d}", "v": i * 0.5, "k": i % 7} for i in range(3000)]
        rows.sort(key=lambda r: (r["k"], r["id"]))
        json.loads(json.dumps(rows))
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Times operations and scales each to the nominal host speed.

    The shared host drifts by up to ~45% in speed over seconds to minutes,
    for every process alike.  Each operation is bracketed by ``calibrate``
    and its time multiplied by ``NOMINAL_CALIBRATION_S`` over the mean of the
    two calibrations, which divides most of the drift out and leaves the
    program's own cost.  Raw times are kept as well.
    """

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.speed = 1.0  # factor of the last timed operation

    def time(self, name: str, fn):
        before = calibrate()
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        self.speed = NOMINAL_CALIBRATION_S / ((before + calibrate()) / 2)
        self.raw[name].append(elapsed)
        self.scaled[name].append(elapsed * self.speed)
        return out


def rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def peak_rss_mib() -> float:
    """Highest resident set of this process and of any child waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def keep_going(started: float, durations: list[float], seconds: float) -> bool:
    """Start another whole round only if it should end within the budget."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.fmean(durations) <= seconds


def trial_op(w, wl, seed: int, index: int, rec, tally: Tally, trials: dict, numerics: bool = False) -> None:
    try:
        trials[index] = w.run_trial(wl, seed, index, rec, numerics=numerics, keep=index < TRIAL_SAMPLE)
    except w.PipelineError as exc:
        tally.record("trial", False, f"trial {index}: {exc.code}: {exc}")
    else:
        tally.record("trial", True)


def measure(w, wl, seed: int, seconds: float, work: Path, tally: Tally):
    """End-to-end run: returns (metrics, state for the checks)."""
    null = NullRecorder()
    products, archive, md = work / PRODUCTS_NAME, work / "dataset.json", work / "report.md"
    clock = Clock()

    def set_up() -> None:
        with open(products, "w", encoding="utf-8", newline="") as f:
            f.write(w.make_inputs(wl, seed, null))
        w.run_trial(wl, seed, 0, null)  # warm-up trial

    for _ in range(wl.setup_repeats):
        clock.time("setup", set_up)

    cli = Cli(tally)
    trials: dict = {}
    md_digests, queries = set(), []
    areas = [spec.code for spec in wl.areas]
    rounds: list[float] = []

    def trial_batch() -> None:
        for _ in range(wl.trials_per_round):
            trial_op(w, wl, seed, len(trials), null, tally, trials)

    started = time.perf_counter()
    while keep_going(started, rounds, seconds):
        round_start = time.perf_counter()
        clock.time("trials", trial_batch)
        ingest = clock.time("ingest", lambda: cli.run("ingest", "--products", rel(products), "--out", rel(archive)))
        proc = clock.time("report", lambda: cli.run("report", "--dataset", rel(archive), "--all", "--out", rel(md)))
        if proc.returncode == 0:
            md_digests.add(hashlib.sha256(md.read_bytes()).hexdigest())
        area = areas[(seed + len(rounds)) % len(areas)]
        for _ in range(QUERIES_PER_ROUND):
            kind = w.QUERY_KINDS[len(queries) % len(w.QUERY_KINDS)]
            args = (*kind, "--dataset", rel(archive), "--discipline", area, "--format", "json")
            proc = clock.time("query", lambda: cli.run(*args))
            queries.append((area, kind, proc.stdout if proc.returncode == 0 else None))
        rounds.append(time.perf_counter() - round_start)

    n_trials = len(rounds) * wl.trials_per_round
    print(
        f"{len(rounds)} rounds, {n_trials} trials; raw medians: "
        + ", ".join(f"{k} {statistics.median(v):.4f} s" for k, v in clock.raw.items()),
        file=sys.stderr,
    )
    scaled = clock.scaled
    metrics = {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "ingest_s": (statistics.median(scaled["ingest"]), "s"),
        "report_s": (statistics.median(scaled["report"]), "s"),
        "query_p50_s": (statistics.median(scaled["query"]), "s"),
        "trials_per_s": (n_trials / math.fsum(scaled["trials"]), "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }

    # Checks.  A second markdown report, when the run had a single round,
    # gives the byte-identity check something to compare.
    if len(rounds) < 2:
        proc = cli.run("report", "--dataset", rel(archive), "--all", "--out", rel(md))
        if proc.returncode == 0:
            md_digests.add(hashlib.sha256(md.read_bytes()).hexdigest())
    proc = cli.run("report", "--dataset", rel(archive), "--all", "--format", "json")
    return metrics, {
        "products": products,
        "report": tally.check("report_json", lambda: json.loads(proc.stdout)),
        "md_digests": md_digests,
        "queries": queries,
        "ingest_record": tally.check(
            "ingest_stderr", lambda: json.loads(ingest.stderr) if ingest.stderr.strip() else None
        ),
        "dataset": tally.check("archive_load", lambda: w.load_archive(archive.read_text(encoding="utf-8"))),
        "trials": trials,
    }


def traced(w, wl, seed: int, seconds: float, work: Path, tally: Tally):
    """Per-layer run: returns (metrics, state for the checks)."""
    products = work / PRODUCTS_NAME
    with open(products, "w", encoding="utf-8", newline="") as f:
        f.write(w.make_inputs(wl, seed, NullRecorder()))
    env = child_env()
    trials: dict = {}
    md_digests = set()
    recorders, pairs = [], []
    state: dict = {}

    def one_pass(rec, first_trial: int) -> None:
        with rec.span("pass"):
            md, js, dataset, ingest = w.pipeline_pass(wl, seed, rel(products), rec)
            for index in range(first_trial, first_trial + wl.trials_per_round):
                trial_op(w, wl, seed, index, rec, tally, trials, numerics=True)
            with rec.span("cli.startup"):
                proc = subprocess.run([sys.executable, "-c", "import vtrkit.cli"], env=env, capture_output=True)
        tally.record("cli.startup", proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-300:])
        md_digests.add(hashlib.sha256(md.encode("utf-8")).hexdigest())
        state.update(js=js, dataset=dataset, ingest=ingest)

    clock = Clock()
    started = time.perf_counter()
    while keep_going(started, pairs, seconds):
        pair_start = time.perf_counter()
        first_trial = len(pairs) * wl.trials_per_round
        # alternate which twin goes first, so drift does not bias the overhead
        for tracing in (False, True) if len(pairs) % 2 == 0 else (True, False):
            rec = Recorder() if tracing else NullRecorder()
            clock.time(f"pass.traced={tracing}", lambda: one_pass(rec, first_trial))
            if tracing:
                recorders.append((rec, clock.speed))
        pairs.append(time.perf_counter() - pair_start)

    TRACES.mkdir(exist_ok=True)
    write_jsonl(TRACES / f"spans-{wl.name}-seed{seed}.jsonl", [rec for rec, _ in recorders])

    # layer self times are scaled by their pass's speed, as end-to-end times are
    self_times = [{k: v * speed for k, v in rec.self_times().items()} for rec, speed in recorders]
    counts = [rec.count_totals() for rec, _ in recorders]
    metrics = {
        f"{name}_s": (statistics.median(t.get(name, 0.0) for t in self_times), "s") for name in LAYER_TIMES
    }
    for key, (name, unit) in LAYER_COUNTS.items():
        metrics[name] = (statistics.median(c.get(key, 0) for c in counts), unit)
    overheads = [t - u for t, u in zip(clock.scaled["pass.traced=True"], clock.scaled["pass.traced=False"])]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    metrics["trace.spans"] = (statistics.median(len(rec.spans) for rec, _ in recorders), "count")

    ingest = state["ingest"]
    return metrics, {
        "products": products,
        "report": json.loads(state["js"]),
        "md_digests": md_digests,
        "queries": [],
        "ingest_record": ingest.as_dict() if ingest.errors or ingest.warnings else None,
        "dataset": state["dataset"],
        "trials": trials,
    }


def run_checks(w, wl, seed: int, state: dict, tally: Tally) -> None:
    import oracle  # numpy and scipy load only now, after the measured part

    rows = oracle.read_products(state["products"])
    areas = oracle.by_area(rows)
    tally.check("ingest_record", lambda: oracle.check_ingest_record(state["ingest_record"], rows, w.KNOWN_AREAS))
    tally.check("archive_products", lambda: oracle.check_archive(state["dataset"], rows))
    tally.check("report_md_identical", lambda: oracle.expect(len(state["md_digests"]) == 1, f"{len(state['md_digests'])} distinct reports"))

    report = state["report"]
    if report is not None:
        tally.check("report_areas", lambda: oracle.expect(sorted(report["disciplines"]) == sorted(areas), "report areas differ from the CSV's"))
        for area, section in report["disciplines"].items():
            for name, fn in oracle.area_checks(section, areas.get(area, [])):
                tally.check(f"{name} {area}", fn)
        for area, kind, stdout in state["queries"]:
            if stdout is not None:
                tally.check(f"query {' '.join(kind)} {area}", lambda: oracle.check_query(report["disciplines"][area], area, kind, stdout))

    trials = state["trials"]
    for index in range(min(TRIAL_SAMPLE, len(trials))):
        if index in trials:
            tally.check(f"trial {index}", lambda: oracle.check_trial(trials[index]))
    if 0.0 in wl.trial_rhos:  # the Monte Carlo study
        for index in range(2 * STUDY_TRIALS):
            if index not in trials:
                trial_op(w, wl, seed, index, NullRecorder(), tally, trials)
        study = [trials[i] for i in range(2 * STUDY_TRIALS) if i in trials]
        tally.check("null_rejections chi_square", lambda: oracle.check_null_rejections(study, 2))
        tally.check("null_rejections spearman", lambda: oracle.check_null_rejections(study, 4))
        tally.check("positive_spearman", lambda: oracle.check_positive_spearman(study))


def other_live_run(own: Path) -> Path | None:
    """The work directory of another run of this checkout whose process is
    still alive.  Directories of runs that have ended are removed."""
    for path in WORK.glob("*-pid*"):
        if path == own:
            continue
        try:
            os.kill(int(path.name.rsplit("-pid", 1)[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
            continue
        except PermissionError:
            pass  # alive, owned by another user
        return path
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vtrkit" / "cli.py").is_file():
        print(f"error: vtrkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w

    wl = w.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    other = other_live_run(work)
    if other is not None:
        shutil.rmtree(work, ignore_errors=True)
        print(f"error: another run is still alive ({rel(other)}); runs of one checkout must not overlap", file=sys.stderr)
        return 2
    # Pin the run, and the children it starts, to one CPU, so that the
    # calibration and the operation it brackets see the same core.  Runs are
    # sequential (checked above), so no other run shares that CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    try:
        run = traced if args.trace else measure
        metrics, state = run(w, wl, args.seed, args.seconds, work, tally)
        run_checks(w, wl, args.seed, state, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # not empty: a run that started meanwhile

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
