"""The two workloads: set-up from the workload seed, then a cycle of steps,
each step a few ``kbens`` commands run in-process through
``kbens.cli.main(argv)``.

A run walks the cycle from its first step, over and over, until its time is
used up; the sequential worker processes of one run continue the walk where
the previous one stopped.  A traced run runs one whole cycle untraced and
the same cycle again under the tracer.  Every command's outcome is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

import stores
from kbens import cli
from kbens.kb import KnowledgeBase, Query

EXIT_OK = 0
EXIT_COMPUTE = 2

# Base seeds per friends cycle; each seed is one step: a fit, the four
# README queries, a report and an aggregate.  The cycle ends with one
# forced-unsatisfiable fit.  Every cycle of a run repeats the same seeds, so
# that each piece of work is timed many times over the run.
FRIENDS_SEEDS_PER_CYCLE = 8
# Epoch budget of a fit of a forced-unsatisfiable store.  The search still
# tries every dimension with every retry before it gives up, each for 100
# epochs instead of the default 5,000, so that a rejection takes a tenth of
# a second rather than several seconds and a run repeats it many times.
REJECT_MAX_EPOCHS = 100
# The wide store is a fixed draw: its store and fit seeds do not depend on
# the workload seed, which draws only its queries.  Fit time depends on the
# store far more than on timing noise (7 to 127 s per default fit of 70
# entities across store seeds), so a fresh draw per seed would make every
# fit metric unsteady.
WIDE_STORE_SEED = 2
WIDE_FIT_SEED = 2
WIDE_CLUSTERS = 8
WIDE_QUERIES = 120
# A default fit of the wide store takes several seconds, far longer than
# the host holds one speed, so it runs once per run, untimed, to make the
# ensemble the queries, reports and aggregates read.  The timed wide fits
# train one member each at a fixed dimension, from WIDE_FITS_PER_CYCLE seeds.
WIDE_MEMBER_DIM = 2
WIDE_FITS_PER_CYCLE = 4


# The host's speed drifts by a third and more over minutes (see README.md),
# which no statistic within one run removes.  So every timed command runs
# between two calibrations: a fixed loop of small numpy operations and dict
# updates, the mix a kbens command is made of.  A command's time is scaled
# by CALIBRATION_REFERENCE_S over the mean of the two calibration times: it
# is the command's wall time on a host at which the loop takes 1.5 ms.
CALIBRATION_REFERENCE_S = 0.0015
_CALIBRATION_LOOPS = 300
_CALIBRATION_VECTOR = np.arange(64.0)


def calibration_s() -> float:
    """Wall time of the calibration loop, about 1.5 to 3 ms."""
    total = 0.0
    started = time.perf_counter()
    for i in range(_CALIBRATION_LOOPS):
        v = _CALIBRATION_VECTOR * 0.5 + 1.0
        total += float(np.sqrt(np.sum(v * v)))
        counts = {"i": i}
        total += counts["i"]
    return time.perf_counter() - started


def calibrated(fn: Callable[[], object]) -> tuple[object, float, float]:
    """Run ``fn`` between two calibrations; returns its result, its wall
    time and that time scaled to the reference host speed."""
    before = calibration_s()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    after = calibration_s()
    return result, elapsed, elapsed * 2.0 * CALIBRATION_REFERENCE_S / (before + after)


def reference_verdict(doc: dict, q: Query) -> str:
    """The unanimity rule recomputed from the ensemble JSON with numpy:
    a member satisfies q when ||s - o - r|| <= tau_pos."""
    s = np.array([m["entities"][q.subject] for m in doc["members"]], dtype=float)
    o = np.array([m["entities"][q.object] for m in doc["members"]], dtype=float)
    r = np.array([m["relations"][q.relation] for m in doc["members"]], dtype=float)
    tau = np.array([m["config"]["tau_pos"] for m in doc["members"]], dtype=float)
    eps = s - o - r
    count = int(np.sum(np.sqrt(np.sum(eps * eps, axis=1)) <= tau))
    fraction = count / len(doc["members"])
    value = "TRUE" if count == len(doc["members"]) else "FALSE" if count == 0 else "UNKNOWN"
    return f"{value}\t{fraction:.6f}"


class Runner:
    """Runs CLI commands in-process, keeps timing samples, and counts the
    operations attempted and failed.

    Every sample is filed under a key naming the work it timed (store,
    seed, query), because a cycle repeats the same work: the run keeps each
    key's median time.  ``samples`` holds calibrated times, ``raw_samples``
    the wall times they were scaled from.  A failed operation is one that
    exits with another code than the one expected; a wrong answer is one
    that exits as expected (or fits an unsatisfiable store) but whose output
    fails its check.  Both count in ``failures``; only wrong answers make a run
    incorrect."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # metric -> key -> seconds (milliseconds for queries)
        self.samples: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.raw_samples: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self._scale = 1.0
        self.report_rows: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong = 0
        # key -> ensemble digest of every successful fit, so that fits of
        # the same store and seed can be compared within the run.
        self.digests: dict[str, list[str]] = defaultdict(list)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one command; returns its exit code, stdout and wall time.
        ``sample`` files that time with the command's calibration."""
        out = io.StringIO()

        def main() -> int:
            try:
                return cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                out.write(f"{type(exc).__name__}: {exc}")
                return -1

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, elapsed, scaled = calibrated(main)
        self._scale = scaled / elapsed if elapsed else 1.0
        return code, out.getvalue(), elapsed

    def sample(self, metric: str, key: str, elapsed: float) -> None:
        """File the wall time of the last command, and its calibrated time."""
        self.raw_samples[metric][key].append(elapsed)
        self.samples[metric][key].append(elapsed * self._scale)

    def outcome(self, what: str, code: int, expected: int = EXIT_OK, output_ok: bool = True) -> bool:
        """Count one checked operation; returns whether it passed."""
        self.attempted += 1
        if code == expected and output_ok:
            return True
        self.failures.append(f"{what} (exit {code})")
        if code == expected or (expected == EXIT_COMPUTE and code == EXIT_OK):
            self.wrong += 1
        return False

    def fit(self, kb: str, out: str, seed: int, options: tuple[str, ...] = (),
            metric: str = "fit_s") -> bool:
        key = " ".join((Path(kb).name, str(seed)) + options)
        code, _, elapsed = self.cli(["fit", kb, "-o", out, "--seed", str(seed), "--jobs", "1", *options])
        self.sample(metric, key, elapsed)
        if code == EXIT_OK:
            self.digests[key].append(hashlib.sha256(Path(out).read_bytes()).hexdigest())
        return self.outcome(f"fit {key}", code)

    def reject(self, kb: str, seed: int) -> None:
        key = f"{Path(kb).name} {seed}"
        code, _, elapsed = self.cli(["fit", kb, "-o", self.path("reject.json"), "--seed", str(seed),
                                     "--jobs", "1", "--max-epochs", str(REJECT_MAX_EPOCHS)])
        self.outcome(f"unsatisfiable {key}", code, expected=EXIT_COMPUTE)
        self.sample("reject_s", key, elapsed)

    def queries(self, ens: str, key: str, queries: list[Query]) -> list[str]:
        doc = json.loads(Path(ens).read_text(encoding="utf-8"))
        answers = []
        for q in queries:
            code, out, elapsed = self.cli(["query", ens, q.relation, q.subject, q.object])
            answer = out.strip()
            expected = reference_verdict(doc, q)
            self.outcome(f"query {key} {q} answered {answer!r}, reference {expected!r}",
                         code, output_ok=answer == expected)
            self.sample("query_ms", f"{key} {q.relation} {q.subject} {q.object}", elapsed * 1e3)
            answers.append(answer.split("\t")[0])
        return answers

    def report(self, ens: str, key: str, kb: str) -> None:
        code, out, elapsed = self.cli(["report", ens, kb])
        lines = out.splitlines()
        header = dict(
            field.split("=") for field in lines[1].lstrip("# ").split()
        ) if code == EXIT_OK and len(lines) > 1 else {}
        rows = sum(1 for line in lines if line and not line.startswith("#"))
        consistent = bool(header) and int(header["consistent"]) >= int(header["asserted"])
        if self.outcome(f"report {key} header {header}", code, output_ok=consistent and rows > 0):
            self.sample("report_s", key, elapsed)
            self.report_rows[key] = rows

    def aggregate(self, ens: str, key: str) -> None:
        out = self.path("aggregate.json")
        code, _, elapsed = self.cli(
            ["aggregate", ens, "-o", out, "--clouds-tsv", self.path("clouds.tsv")]
        )
        finite = code == EXIT_OK and all(
            math.isfinite(d)
            for d in json.loads(Path(out).read_text(encoding="utf-8"))["diameters"].values()
        )
        self.outcome(f"aggregate {key}", code, output_ok=finite)
        self.sample("aggregate_s", key, elapsed)


def _write(runner: Runner, name: str, kb: KnowledgeBase) -> str:
    path = runner.path(name)
    Path(path).write_text(kb.serialize(), encoding="utf-8")
    return path


class Friends:
    """The README's five-person store, fitted from consecutive base seeds."""

    def __init__(self, seed: int, seeds_per_cycle: int = FRIENDS_SEEDS_PER_CYCLE):
        self.first = seed * 100_000
        self.seeds_per_cycle = seeds_per_cycle
        self.cycle_length = seeds_per_cycle + 1

    def setup(self, runner: Runner) -> None:
        kb = stores.friends_store()
        self.kb = _write(runner, "friends.kb", kb)
        self.unsat = _write(runner, "friends-unsat.kb", stores.force_unsatisfiable(kb))

    def prepare(self, runner: Runner) -> None:
        pass

    def step(self, runner: Runner, index: int) -> None:
        if index == self.seeds_per_cycle:
            runner.reject(self.unsat, self.first)
            return
        base = self.first + index
        key = f"friends {base}"
        ens = runner.path("friends.json")
        if not runner.fit(self.kb, ens, base):
            return
        answers = runner.queries(
            ens, key, [q for q, _ in stores.FRIENDS_ASSERTED] + [stores.FRIENDS_UNSTATED]
        )
        expected = [v for _, v in stores.FRIENDS_ASSERTED]
        runner.outcome(f"friends seed {base} verdicts {answers}", EXIT_OK,
                       output_ok=answers[:3] == expected)
        runner.counts["mary_alice_unknown"] += answers[3] == "UNKNOWN"
        runner.counts["friends_seeds"] += 1
        runner.report(ens, key, self.kb)
        runner.aggregate(ens, key)


class Wide:
    """One synthetic store of clusters over two shared relations."""

    def __init__(self, seed: int, clusters: int = WIDE_CLUSTERS, queries: int = WIDE_QUERIES):
        self.seed = seed
        self.clusters = clusters
        self.query_count = queries
        self.cycle_length = WIDE_FITS_PER_CYCLE

    def setup(self, runner: Runner) -> None:
        kb, first_cluster = stores.wide_store(
            np.random.default_rng([WIDE_STORE_SEED, 1]), self.clusters
        )
        self.kb = _write(runner, "wide.kb", kb)
        self.unsat = _write(runner, "wide-unsat.kb", stores.force_unsatisfiable(first_cluster))
        self.queries = stores.entity_queries(
            np.random.default_rng([self.seed, 2]), kb, self.query_count
        )
        # Persists between the worker processes of one run, which share the
        # work directory.
        self.ensemble = runner.path("wide.json")

    def prepare(self, runner: Runner) -> None:
        """Fit the ensemble that the queries, reports and aggregates read,
        with the default dimension search, unless an earlier worker of the
        run has."""
        if not Path(self.ensemble).is_file():
            runner.fit(self.kb, self.ensemble, WIDE_FIT_SEED, metric="prepare_s")

    def step(self, runner: Runner, index: int) -> None:
        # A one-member fit, a rejection, a share of the queries, a report and
        # an aggregate per step.
        runner.reject(self.unsat, WIDE_FIT_SEED)
        runner.fit(self.kb, runner.path("member.json"), WIDE_FIT_SEED + index,
                   ("--dim", str(WIDE_MEMBER_DIM), "--members", "1"))
        if not Path(self.ensemble).is_file():
            return
        share = -(-len(self.queries) // WIDE_FITS_PER_CYCLE)
        runner.queries(self.ensemble, "wide", self.queries[index * share:(index + 1) * share])
        runner.report(self.ensemble, "wide", self.kb)
        runner.aggregate(self.ensemble, "wide")


WORKLOADS = {"friends": Friends, "wide": Wide}
