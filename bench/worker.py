"""One worker process of a benchmark run: sets a workload up, walks its cycle
of steps for a share of the run's time, and prints its raw samples as one
JSON line.  ``bench/run.py`` starts the workers one after another and
derives the metrics; a traced worker prints the per-layer metrics itself.

    python3 bench/worker.py --workload friends --seed 1 --seconds 10 \\
        --workdir .bench_work/friends-x --start 0 --min-steps 0 --trace 0
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: the BLAS here would otherwise start one
# thread per core for every matrix product.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from spans import Tracer, traced  # noqa: E402
from workloads import WORKLOADS, Runner, calibrated  # noqa: E402

# Set-up is repeated for at least this long, and at least SETUP_REPEATS
# times, in every worker; the run reports the median of all of them.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.3


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, runner: Runner) -> tuple[list[float], list[float]]:
    """Calibrated and wall times of repeated set-ups."""
    scaled: list[float] = []
    raw: list[float] = []
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_SECONDS:
        _, elapsed, calibrated_s = calibrated(lambda: workload.setup(runner))
        raw.append(elapsed)
        scaled.append(calibrated_s)
    return scaled, raw


def walk(workload, runner: Runner, start: int, seconds: float, min_steps: int,
         step_s: dict[int, float]) -> dict:
    """Set up, prepare, then run steps from the global step index ``start``.  Stop
    before a step that would not end within ``seconds``, judged by how long
    that step took last time (``step_s``, by index in the cycle), once at
    least one step and the run's first ``min_steps`` steps are done.
    Returns the raw result that ``run.end_to_end_metrics`` reads."""
    setups, raw_setups = timed_setups(workload, runner)
    length = workload.cycle_length
    step_s = dict(step_s)
    step = start
    started = time.perf_counter()
    workload.prepare(runner)
    while True:
        index = step % length
        step_started = time.perf_counter()
        workload.step(runner, index)
        step_s[index] = time.perf_counter() - step_started
        step += 1
        walked = time.perf_counter() - started
        if step >= min_steps and walked + step_s.get(step % length, 0.0) > seconds:
            break
    return {
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "samples": runner.samples,
        "raw_samples": runner.raw_samples,
        "report_rows": runner.report_rows,
        "digests": runner.digests,
        "cycle_length": length,
        "next_step": step,
        "walked_s": walked,
        "step_s": step_s,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "wrong": runner.wrong,
        "counts": runner.counts,
        "peak_rss_mb": peak_rss_mb(),
    }


LAYERS = ("kb", "trainer", "ensemble", "aggregate", "cli")


def accounted_ratio(spans: list, cli_s: float) -> float:
    """Summed self time of the spans that belong to a reported layer, over
    the traced CLI time.  Below 1 when a span belongs to no reported layer."""
    accounted = sum(sp.self_time for sp in spans if sp.name.split(".")[0] in LAYERS)
    return accounted / cli_s if cli_s else float("nan")


def per_layer(workload, runner: Runner, spans_path: Path) -> tuple[dict, dict]:
    """Set up and prepare under the tracer, run one cycle untraced and the
    same cycle traced; returns the per-layer metrics and the sample counts."""
    tracer = Tracer()
    with traced(tracer):
        workload.setup(runner)
        setup_spans = len(tracer.spans)
        workload.prepare(runner)
    length = workload.cycle_length
    started = time.perf_counter()
    for index in range(length):
        workload.step(runner, index)
    untraced = time.perf_counter() - started
    with traced(tracer):
        started = time.perf_counter()
        for index in range(length):
            workload.step(runner, index)
        traced_s = time.perf_counter() - started
    tracer.write(spans_path)

    def total(name: str, self_time: bool = False) -> float:
        return sum(sp.self_time if self_time else sp.duration for sp in tracer.named(name))

    def mean(name: str, scale: float, self_time: bool = False) -> float:
        calls = len(tracer.named(name))
        return total(name, self_time) / calls * scale if calls else float("nan")

    def ratio(a: float, b: float) -> float:
        return a / b if b else float("nan")

    pass_spans = tracer.spans[setup_spans:]

    def layer_self(layer: str) -> float:
        return sum(sp.self_time for sp in pass_spans if sp.name.split(".")[0] == layer)

    c = tracer.counts
    cli_s = sum(sp.duration for sp in pass_spans if sp.name == "cli.main")
    fits = tracer.named("ensemble.fit_ensemble")
    attempted = sum(
        1 for sp in tracer.spans if sp.name == "trainer.train"
        and sp.parent >= 0 and tracer.spans[sp.parent].name == "ensemble.fit_ensemble"
    )
    train_calls = len(tracer.named("trainer.train"))
    aggregates = len(tracer.named("aggregate.build_aggregate"))
    metrics = {
        "kb.parse_ms": (mean("kb.parse_kb", 1e3), "ms"),
        "trainer.oracle_ms": (total("trainer.satisfiability_oracle") * 1e3, "ms"),
        "trainer.init_ms": (mean("trainer.init_embedding", 1e3, self_time=True), "ms"),
        "trainer.train_calls": (train_calls, "count"),
        "trainer.epochs": (c["trainer.epochs"], "count"),
        "trainer.epoch_us": (ratio(total("trainer.train", self_time=True) * 1e6, c["trainer.epochs"]), "us"),
        "trainer.converged_ratio": (ratio(c["trainer.converged"], train_calls), "ratio"),
        "trainer.dim_search_s": (mean("trainer.min_dimension_search", 1.0), "s"),
        "ensemble.fit_s": (mean("ensemble.fit_ensemble", 1.0), "s"),
        "ensemble.seeds_attempted": (attempted, "count"),
        "ensemble.seeds_kept_ratio": (ratio(c["ensemble.members_kept"], attempted), "ratio"),
        "ensemble.to_json_ms": (mean("ensemble.to_json", 1e3), "ms"),
        "ensemble.from_json_ms": (mean("ensemble.from_json", 1e3), "ms"),
        "ensemble.json_bytes": (ratio(c["ensemble.json_bytes"], len(tracer.named("ensemble.to_json"))), "bytes"),
        "ensemble.validate_ms": (mean("ensemble.validate", 1e3), "ms"),
        "ensemble.query_truth_us": (mean("ensemble.query_truth", 1e6), "us"),
        "embedding.satisfies_calls": (c["embedding.satisfies"], "count"),
        "ensemble.report_s": (mean("ensemble.knowledge_report", 1.0), "s"),
        "ensemble.report_rows": (c["ensemble.report_rows"], "count"),
        "aggregate.build_s": (mean("aggregate.build_aggregate", 1.0), "s"),
        "aggregate.align_calls": (len(tracer.named("aggregate.align")), "count"),
        "aggregate.align_us": (mean("aggregate.align", 1e6), "us"),
        "aggregate.retained": (ratio(c["aggregate.retained"], aggregates), "count"),
        "aggregate.serialize_ms": (
            ratio((total("aggregate.to_json") + total("aggregate.clouds_tsv")) * 1e3, aggregates), "ms"
        ),
        "cli.self_ms": (mean("cli.main", 1e3, self_time=True), "ms"),
        "kb.self_s": (layer_self("kb"), "s"),
        "trainer.self_s": (layer_self("trainer"), "s"),
        "ensemble.self_s": (layer_self("ensemble"), "s"),
        "aggregate.self_s": (layer_self("aggregate"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trace.cli_s": (cli_s, "s"),
        "trace.accounted_ratio": (accounted_ratio(pass_spans, cli_s), "ratio"),
        "trace.overhead_s": (traced_s - untraced, "s"),
        "trace.overhead_ratio": (ratio(traced_s - untraced, untraced), "ratio"),
    }
    samples = {"spans": len(tracer.spans), "ensembles_fitted": len(fits),
               "untraced_cycle_s": untraced, "traced_cycle_s": traced_s}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--min-steps", type=int, default=0)
    parser.add_argument("--step-seconds", type=json.loads, default={})
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(args.workdir)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, samples = per_layer(
            workload, runner, args.workdir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        )
        result = {"metrics": metrics, "samples": samples, "attempted": runner.attempted,
                  "failures": runner.failures, "wrong": runner.wrong, "counts": runner.counts}
    else:
        step_s = {int(index): seconds for index, seconds in args.step_seconds.items()}
        result = walk(workload, runner, args.start, args.seconds, args.min_steps, step_s)
    result["environment"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
