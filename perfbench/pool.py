#!/usr/bin/env python3
"""Pool per-scene times over a set of runs.

    python3 perfbench/pool.py corpus128 [frame256 ...]

Each untraced run leaves its per-scene samples (`run_scene` times, or LOO
fold times on `models_loo`) in `.bench_work/scenes-<workload>-<seed>.json`.
One run holds 40 samples on `corpus128` and 16 on `frame256`, too few to
put ten beyond the 90th percentile; pooled over ten seeds they are enough.
Percentiles are the same Harrell-Davis estimates as in `run.py`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import percentile

WORK = Path(__file__).resolve().parent.parent / ".bench_work"


def pooled(workload: str) -> dict:
    files = sorted(WORK.glob(f"scenes-{workload}-*.json"))
    samples = [t for f in files for t in json.loads(f.read_text())]
    if len(samples) < 2:
        raise SystemExit(f"{workload}: fewer than two samples under {WORK}")
    p90 = percentile(samples, 90)
    return {
        "runs": len(files),
        "samples": len(samples),
        "beyond_p90": sum(1 for t in samples if t > p90),
        "scene_s_p50": percentile(samples, 50),
        "scene_s_p90": p90,
    }


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for workload in argv:
        print(json.dumps({"workload": workload, **pooled(workload)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
