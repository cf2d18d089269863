"""Benchmark for kbens: ``fit``, ``query``, ``report`` and ``aggregate`` run
in-process through ``kbens.cli.main(argv)`` on seeded workloads.

    python3 bench/run.py --workload friends --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics.  The run's time is split over
WORKERS worker processes (``bench/worker.py``) started one after another;
each sets the workload up again, times that, and continues the workload's
cycle of steps where the previous one stopped.  Every cycle repeats the same
work; every command is timed between two calibrations of the host's speed
(``workloads.calibrated``), and a metric keeps each piece of work's median
calibrated time over the run.
``--trace 1`` runs one traced worker and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries sample
counts, the environment and any failures.  Metric definitions are in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKERS = 3
# Every worker must end before the run's 180-s limit.
DEADLINE_S = 170.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; nan without samples."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def refit_checks(results: list[dict]) -> tuple[int, list[str]]:
    """Fits of the same store and seed anywhere in the run must write the
    same ensemble bytes.  Returns the number of checks and the failures."""
    digests: dict[str, set[str]] = {}
    fits: dict[str, int] = {}
    for result in results:
        for key, values in result["digests"].items():
            digests.setdefault(key, set()).update(values)
            fits[key] = fits.get(key, 0) + len(values)
    repeated = [key for key, n in fits.items() if n > 1]
    return len(repeated), [f"refit {key} gave {len(digests[key])} ensembles"
                           for key in repeated if len(digests[key]) > 1]


def end_to_end_metrics(results: list[dict], raw: bool = False) -> tuple[dict, dict]:
    """The end-to-end metrics from the workers' calibrated samples, or from
    their wall times with ``raw``.  Each key (the same store, seed or query)
    keeps its median time over the run; a metric over several keys is the
    median of those."""
    prefix = "raw_" if raw else ""
    pooled: dict[str, dict[str, list[float]]] = {}
    for r in results:
        for name, keyed in r[prefix + "samples"].items():
            for key, values in keyed.items():
                pooled.setdefault(name, {}).setdefault(key, []).extend(values)
    typical = {name: {key: median(values) for key, values in keyed.items()}
               for name, keyed in pooled.items()}
    fits = typical.get("fit_s", {})
    queries = list(typical.get("query_ms", {}).values())
    reports = typical.get("report_s", {})
    rows = {key: n for r in results for key, n in r["report_rows"].items()}
    report_s = sum(reports.values())
    metrics = {
        "setup_s": (median(t for r in results for t in r[prefix + "setup_s"]), "s"),
        "fit_s": (median(fits.values()), "s"),
        "fit_total_s": (sum(fits.values()) if fits else float("nan"), "s"),
        "reject_s": (median(typical.get("reject_s", {}).values()), "s"),
        "query_ms_p50": (median(queries), "ms"),
        "query_ms_p90": (percentile(queries, 90), "ms"),
        "report_rows_per_s": (sum(rows[key] for key in reports) / report_s if report_s else float("nan"), "rows/s"),
        "aggregate_s": (median(typical.get("aggregate_s", {}).values()), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MiB"),
    }
    samples = {name: {"keys": len(keyed), "samples": sum(map(len, keyed.values()))}
               for name, keyed in pooled.items()}
    samples.update(setup_s=sum(len(r["setup_s"]) for r in results), workers=len(results),
                   steps=results[-1]["next_step"], walked_s=sum(r["walked_s"] for r in results))
    return metrics, samples


def run_worker(args, workdir: Path, deadline: float, *options: str) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir), "--trace", str(args.trace),
            *options]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("friends", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kbens" / "cli.py").is_file():
        print(f"bench: no kbens sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    results: list[dict] = []
    try:
        if args.trace:
            result = run_worker(args, workdir, deadline, "--seconds", repr(args.seconds))
            results.append(result)
            metrics = {name: tuple(pair) for name, pair in result["metrics"].items()}
            samples = result["samples"]
            checks, refit_failures = 0, []
            wall_metrics = {}
        else:
            for index in range(WORKERS):
                # A worker's share is what is left of the shares so far; the
                # last one also completes the first cycle and the first step
                # of the second, which repeats a fit for the refit check.
                walked = sum(r["walked_s"] for r in results)
                options = ["--seconds", repr(args.seconds * (index + 1) / WORKERS - walked),
                           "--start", str(results[-1]["next_step"] if results else 0),
                           "--step-seconds", json.dumps(results[-1]["step_s"] if results else {})]
                if index == WORKERS - 1:
                    options += ["--min-steps", str(results[0]["cycle_length"] + 1)]
                results.append(run_worker(args, workdir, deadline, *options))
            metrics, samples = end_to_end_metrics(results)
            wall_metrics, _ = end_to_end_metrics(results, raw=True)
            checks, refit_failures = refit_checks(results)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = checks + sum(r["attempted"] for r in results)
    failures = refit_failures + [f for r in results for f in r["failures"]]
    wrong = len(refit_failures) + sum(r["wrong"] for r in results)
    counts: dict[str, int] = {}
    for r in results:
        for name, n in r["counts"].items():
            counts[name] = counts.get(name, 0) + n
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "environment": results[0]["environment"],
        "samples": samples,
        "wall_metrics": {name: value for name, (value, _) in wall_metrics.items()},
        "counts": counts,
        "error_rate": len(failures) / max(1, attempted),
        "wrong_answers": wrong,
        "failures": failures[:20],
    }, sort_keys=True))
    unmeasured = sorted(name for name, (value, _) in metrics.items() if not math.isfinite(value))
    if unmeasured:
        # A failed fit can leave later commands nothing to run on; the line
        # above still reports the failures and the error rate.
        print(f"bench: no samples for {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
