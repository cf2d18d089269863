"""In-memory spans around the public functions of each kbens module.

Each function is wrapped where its caller looks it up (``kbens.ensemble.train``
as well as ``kbens.trainer.train``), so nothing under ``src/`` changes.
``Embedding.satisfies`` runs once per member per query and is only counted,
so that tracing does not swamp the report on the wide store.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

from kbens import aggregate, cli, ensemble, trainer
from kbens.aggregate import AggregateModel
from kbens.embedding import Embedding
from kbens.ensemble import Ensemble

class Span:
    __slots__ = ("name", "parent", "start", "end", "children_s")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # Calls run on one thread, so child spans never overlap each other.
        return self.duration - self.children_s


class Tracer:
    """Records (name, start, end, parent) per wrapped call, plus counters
    fed from return values."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].children_s += span.duration
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        def counted_call(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted_call

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(
                    json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                "start": s.start, "end": s.end})
                    + "\n"
                )


def _train_outcome(counts: Counter, result) -> None:
    report = result[1]
    counts["trainer.epochs"] += report.epochs_used
    counts["trainer.converged"] += int(report.converged)


def _members_kept(counts: Counter, result) -> None:
    counts["ensemble.members_kept"] += len(result)


def _json_bytes(counts: Counter, result) -> None:
    counts["ensemble.json_bytes"] += len(result.encode("utf-8"))


def _report_rows(counts: Counter, result) -> None:
    counts["ensemble.report_rows"] += len(result.asserted_rows) + len(result.unstated_rows)


def _retained(counts: Counter, result) -> None:
    counts["aggregate.retained"] += len(result.member_indices)


# (owner, attribute, span name, observer): each entry is one lookup site.
_FUNCTIONS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_kb", "kb.parse_kb", None),
    (cli, "min_dimension_search", "trainer.min_dimension_search", None),
    (cli, "fit_ensemble", "ensemble.fit_ensemble", _members_kept),
    (cli, "knowledge_report", "ensemble.knowledge_report", _report_rows),
    (cli, "query_truth", "ensemble.query_truth", None),
    (cli, "build_aggregate", "aggregate.build_aggregate", _retained),
    (trainer, "satisfiability_oracle", "trainer.satisfiability_oracle", None),
    (trainer, "train_with_retries", "trainer.train_with_retries", None),
    (trainer, "train", "trainer.train", _train_outcome),
    (trainer, "init_embedding", "trainer.init_embedding", None),
    (ensemble, "train", "trainer.train", _train_outcome),
    (ensemble, "query_truth", "ensemble.query_truth", None),
    (aggregate, "align", "aggregate.align", None),
    (aggregate, "is_affine_duplicate", "aggregate.is_affine_duplicate", None),
    (Ensemble, "to_json", "ensemble.to_json", _json_bytes),
    (Ensemble, "validate", "ensemble.validate", None),
    (AggregateModel, "to_json", "aggregate.to_json", None),
    (AggregateModel, "clouds_tsv", "aggregate.clouds_tsv", None),
)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block, then restore
    every original binding."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _FUNCTIONS]
    saved.append((Ensemble, "from_json", Ensemble.__dict__["from_json"]))
    saved.append((Embedding, "satisfies", Embedding.__dict__["satisfies"]))
    try:
        for owner, attr, name, observe in _FUNCTIONS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
        from_json = Ensemble.__dict__["from_json"].__func__
        Ensemble.from_json = classmethod(tracer.wrap("ensemble.from_json", from_json))
        Embedding.satisfies = tracer.counted("embedding.satisfies", Embedding.satisfies)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
