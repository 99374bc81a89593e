#!/usr/bin/env python3
"""Reference stage table: in-process time of each pipeline stage at three sizes.

    python3 bench/stages.py

Each tier is generated with the 10 known areas and ``n`` structures per area
(4-40 products each), seed 0, and run once through ``workloads.pipeline_pass``
under the span recorder in a fresh child process, so every tier's peak RSS is
its own.  The 264k tier takes ~45 s and ~630 MiB.  Prints a markdown table of
the stages' self times.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: Structures per area of each tier: ~2.6k, ~26k and ~264k products.
TIERS = (12, 120, 1200)
STAGES = (
    ("synth", "synth.generate"),
    ("serialize CSV", "model.serialize"),
    ("parse CSV", "model.parse"),
    ("write archive", "model.write_archive"),
    ("load archive", "model.load_archive"),
    ("build_report", "report.build"),
    ("render md", "report.render_md"),
    ("render json", "report.render_json"),
)


def one_tier(n_structures: int) -> dict:
    sys.path.insert(0, str(SRC))
    from spans import Recorder
    from vtrkit import DisciplineSpec

    from workloads import KNOWN_AREAS, Workload, pipeline_pass

    areas = tuple(DisciplineSpec(code, n_structures, 4, 40) for code in KNOWN_AREAS)
    tier = Workload(f"tier-{n_structures}", areas, areas[0], (0.5,), trials_per_round=0, setup_repeats=1)
    rec = Recorder()
    pipeline_pass(tier, 0, "products.csv", rec)
    return {
        "products": rec.count_totals()["products"],
        "seconds": rec.self_times(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(one_tier(int(sys.argv[2]))))
        return 0

    results = []
    for n in TIERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(n)], capture_output=True, text=True, check=True
        )
        results.append(json.loads(proc.stdout))
    header = [f"{r['products'] / 1000:.1f}k" for r in results]
    print("| stage | " + " | ".join(header) + " |")
    print("| --- |" + " --- |" * len(results))
    for label, span in STAGES:
        print(f"| {label} | " + " | ".join(f"{r['seconds'][span]:.2f}" for r in results) + " |")
    print("| peak RSS (MiB) | " + " | ".join(f"{r['peak_rss_mib']:.0f}" for r in results) + " |")
    print(f"\nPython {sys.version.split()[0]}, nproc {os.cpu_count()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
