"""Self-test of the benchmark harness: each workload at a tiny size emits
every metric named in BENCHMARK.json with its unit, and the output checks
run and catch a wrong answer or a failed fit.

    python3 -m pytest -q bench
"""

import json
import math
import subprocess
import sys

import pytest

import run
import worker
import workloads
from kbens import cli
from kbens.trainer import NoConvergentDimensionError
from kbens.verdict import TernaryVerdict, Truth
from spans import Span

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "friends": lambda seed: workloads.Friends(seed, seeds_per_cycle=2),
    "wide": lambda seed: workloads.Wide(seed, clusters=2, queries=8),
}


def assert_metrics(metrics: dict, spec: list) -> None:
    assert {m["name"] for m in spec} == set(metrics)
    for m in spec:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert math.isfinite(value), m["name"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_emits_every_metric(name, tmp_path):
    runner = workloads.Runner(tmp_path)
    workload = TINY[name](5)
    result = worker.walk(workload, runner, 0, 0.0, workload.cycle_length + 1, {})
    # The worker's result goes through JSON on its way to the parent.
    result = json.loads(json.dumps(result))
    metrics, samples = run.end_to_end_metrics([result])
    assert samples["steps"] == workload.cycle_length + 1
    assert_metrics(metrics, SPEC["end_to_end"])
    for key in ("fit_s", "reject_s", "query_ms", "report_s", "aggregate_s"):
        assert samples[key]["samples"] >= 1, key
    checks, refit_failures = run.refit_checks([result])
    assert checks >= 1 and refit_failures == []
    assert runner.attempted > 0 and runner.failures == []

    runner = workloads.Runner(tmp_path)
    metrics, _ = worker.per_layer(TINY[name](5), runner, tmp_path / "spans.jsonl")
    assert_metrics(metrics, SPEC["per_layer"])
    assert metrics["trace.accounted_ratio"][0] == pytest.approx(1.0)
    assert runner.failures == []


def test_unreported_layer_lowers_accounted_ratio():
    root, child = Span("cli.main", -1, 0.0), Span("embedding.satisfies", 0, 1.0)
    root.end, child.end = 4.0, 2.0
    root.children_s = child.duration
    assert worker.accounted_ratio([root, child], cli_s=4.0) == pytest.approx(0.75)


def test_wrong_answer_is_counted(tmp_path, monkeypatch):
    runner = workloads.Runner(tmp_path)
    friends = TINY["friends"](5)
    friends.setup(runner)
    ens = runner.path("friends.json")
    assert runner.fit(friends.kb, ens, 5)
    query = [q for q, _ in workloads.stores.FRIENDS_ASSERTED]
    runner.queries(ens, "friends 5", query)
    assert runner.failures == []
    monkeypatch.setattr(
        cli, "query_truth", lambda *a, **k: TernaryVerdict(Truth.UNKNOWN, 0.5, 32)
    )
    runner.queries(ens, "friends 5", query)
    assert len(runner.failures) == runner.wrong == len(query)


def test_failed_fit_is_a_failure_not_a_wrong_answer(tmp_path, monkeypatch):
    def no_dimension(*args, **kwargs):
        raise NoConvergentDimensionError("no dimension converged")

    runner = workloads.Runner(tmp_path)
    friends = TINY["friends"](5)
    friends.setup(runner)
    monkeypatch.setattr(cli, "min_dimension_search", no_dimension)
    assert not runner.fit(friends.kb, runner.path("friends.json"), 5)
    assert len(runner.failures) == 1 and runner.wrong == 0
    assert runner.digests == {}


def test_each_key_keeps_its_median_time():
    result = {
        "setup_s": [0.3, 0.1, 0.2], "report_rows": {"a": 10}, "peak_rss_mb": 40.0,
        "next_step": 4, "walked_s": 1.0,
        "samples": {"fit_s": {"a 1": [3.0, 1.0, 1.5], "b 2": [2.0]},
                    "report_s": {"a": [0.5, 0.25]}},
        "raw_setup_s": [0.6], "raw_samples": {"fit_s": {"a 1": [6.0]}},
    }
    metrics, samples = run.end_to_end_metrics([result])
    assert metrics["setup_s"][0] == 0.2
    assert metrics["fit_s"][0] == 1.75 and metrics["fit_total_s"][0] == 3.5
    assert metrics["report_rows_per_s"][0] == pytest.approx(10 / 0.375)
    assert samples["fit_s"] == {"keys": 2, "samples": 4}
    raw, _ = run.end_to_end_metrics([result], raw=True)
    assert raw["setup_s"][0] == 0.6 and raw["fit_s"][0] == 6.0


def test_calibration_scales_to_the_reference_speed():
    _, elapsed, scaled = workloads.calibrated(workloads.calibration_s)
    # The timed function is the calibration loop itself, so its scaled time
    # is close to the reference.
    assert elapsed > 0
    assert scaled == pytest.approx(workloads.CALIBRATION_REFERENCE_S, rel=0.5)


def test_refits_with_different_bytes_are_caught():
    results = [{"digests": {"a.kb 1": ["x"]}}, {"digests": {"a.kb 1": ["y"], "b.kb 2": ["z"]}}]
    checks, failures = run.refit_checks(results)
    assert checks == 1 and len(failures) == 1


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in run.BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "friends", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
