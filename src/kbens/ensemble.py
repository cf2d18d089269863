"""Ensembles of independently seeded zero-error embeddings.

Each converged member is one complete candidate world consistent with the
store.  A query is TRUE when it holds in every member, FALSE when it holds
in none, and UNKNOWN when the members disagree, which is how the ensemble
represents partial knowledge the store never wrote down.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .embedding import Embedding, EmbeddingConfig
from .kb import KnowledgeBase, Query, assertion_oracle, unstated_queries
from .trainer import FitReport, TrainConfig, train
from .verdict import TernaryVerdict, Truth

DEFAULT_MEMBERS = 32

# Candidate seeds tried before giving up, as a multiple of the member count.
_ATTEMPT_CAP_FACTOR = 4


class EnsembleFitError(RuntimeError):
    """Fewer members converged than requested within the attempt cap."""


class DigestMismatchError(ValueError):
    """The ensemble was fitted from a different knowledge base."""


@dataclass(frozen=True)
class Ensemble:
    """Converged members plus the digest of the store they model.

    Use :func:`fit_ensemble` to build a validated value; ``validate``
    re-checks the invariants against a store when needed.
    """

    members: tuple[Embedding, ...]
    kb_digest: str
    reports: tuple[FitReport, ...]

    def __len__(self) -> int:
        return len(self.members)

    @property
    def config(self) -> EmbeddingConfig:
        return self.members[0].config

    @property
    def dimension(self) -> int:
        return self.members[0].dimension

    def check_frame(self) -> None:
        """Every member shares one vocabulary and config, and carries one
        report; cheap enough to run on every file load."""
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        first = self.members[0]
        for m in self.members[1:]:
            if (m.entity_names, m.relation_names) != (first.entity_names, first.relation_names):
                raise ValueError(f"member seed={m.seed} has a different vocabulary than member 0")
            if m.config != first.config:
                raise ValueError("members disagree on embedding config")
        if len(self.reports) != len(self.members):
            raise ValueError(f"{len(self.reports)} reports for {len(self.members)} members")

    def validate(self, kb: Optional[KnowledgeBase] = None) -> None:
        self.check_frame()
        seeds = [m.seed for m in self.members]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"member seeds are not pairwise distinct: {seeds}")
        if kb is not None:
            if kb.digest() != self.kb_digest:
                raise DigestMismatchError(
                    "ensemble digest does not match the given knowledge base"
                )
            for m, r in zip(self.members, self.reports):
                err = m.cumulative_error(kb)
                if err > self.config.eps_fit:
                    raise ValueError(
                        f"member seed={m.seed} has error {err} above eps_fit"
                    )
                if not r.converged:
                    raise ValueError(f"member seed={m.seed} carries a non-converged report")

    def to_doc(self) -> dict:
        return {
            "kb_digest": self.kb_digest,
            "config": asdict(self.config),
            "members": [m.to_doc() for m in self.members],
            "reports": [asdict(r) for r in self.reports],
        }

    def to_json(self) -> str:
        """Canonical serialization: key-sorted, newline-terminated, stable
        byte-for-byte across runs."""
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_doc(cls, doc: dict) -> "Ensemble":
        members = tuple(Embedding.from_doc(d) for d in doc["members"])
        reports = tuple(
            FitReport(
                final_error=float(r["final_error"]),
                epochs_used=int(r["epochs_used"]),
                converged=bool(r["converged"]),
                seed=int(r["seed"]),
                rng_algorithm_id=str(r["rng_algorithm_id"]),
            )
            for r in doc["reports"]
        )
        return cls(members=members, kb_digest=str(doc["kb_digest"]), reports=reports)

    @classmethod
    def from_json(cls, text: str) -> "Ensemble":
        return cls.from_doc(json.loads(text))


def fit_ensemble(
    kb: KnowledgeBase,
    cfg: EmbeddingConfig,
    tcfg: TrainConfig,
    base_seed: int,
    members: int = DEFAULT_MEMBERS,
    jobs: int = 1,
) -> Ensemble:
    """Train members from seeds base_seed, base_seed+1, ... keeping the
    first ``members`` converged fits in seed order.

    Seeds that fail to converge are skipped and replaced by the next one;
    when 4x the requested count have been tried without filling the
    ensemble, :class:`EnsembleFitError` is raised.  The result depends only
    on the arguments, not on ``jobs``.
    """
    if members < 1:
        raise ValueError(f"member count must be at least 1: {members!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1: {jobs!r}")
    cap = _ATTEMPT_CAP_FACTOR * members
    kept: list[tuple[Embedding, FitReport]] = []
    attempted = 0
    # A wave is exactly the number of members still missing, so it never
    # trains a seed that one-at-a-time fitting would have skipped.
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        while len(kept) < members and attempted < cap:
            wave = min(members - len(kept), cap - attempted)
            seeds = range(base_seed + attempted, base_seed + attempted + wave)
            attempted += wave
            fits = run(train, [kb] * wave, [cfg] * wave, [tcfg] * wave, seeds)
            kept.extend(fit for fit in fits if fit[1].converged)
    if len(kept) < members:
        raise EnsembleFitError(
            f"only {len(kept)} of {members} members converged "
            f"within {cap} candidate seeds"
        )
    ensemble = Ensemble(
        members=tuple(emb for emb, _ in kept),
        kb_digest=kb.digest(),
        reports=tuple(report for _, report in kept),
    )
    ensemble.validate()
    return ensemble


def member_vote(
    members: Sequence[Embedding],
    q: Query,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> TernaryVerdict:
    """Unanimity rule on the fraction of ``members`` in which the fact holds."""
    count = sum(1 for m in members if m.satisfies(q, tau=tau))
    return TernaryVerdict.from_fraction(count / len(members), len(members), quorum_slack)


def query_truth(
    ens: Ensemble,
    q: Query,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> TernaryVerdict:
    """Three-valued answer over the ensemble, by the unanimity rule on the
    fraction of members in which the fact holds."""
    return member_vote(ens.members, q, tau, quorum_slack)


@dataclass(frozen=True)
class ReportRow:
    query: Query
    verdict: TernaryVerdict
    asserted: Optional[bool]  # polarity when asserted, None for unstated rows
    consistent: Optional[bool]  # vs the assertion oracle; None for unstated rows


@dataclass(frozen=True)
class KnowledgeReport:
    """Batch evaluation of a store against its ensemble: every asserted
    triple with a consistency flag, then every unstated query."""

    kb_digest: str
    member_count: int
    asserted_rows: tuple[ReportRow, ...]
    unstated_rows: tuple[ReportRow, ...]

    @property
    def unstated_counts(self) -> dict[Truth, int]:
        counts = {Truth.TRUE: 0, Truth.FALSE: 0, Truth.UNKNOWN: 0}
        for row in self.unstated_rows:
            counts[row.verdict.value] += 1
        return counts

    @property
    def consistent_count(self) -> int:
        return sum(1 for row in self.asserted_rows if row.consistent)

    def to_tsv(self) -> str:
        """Tab-separated rows ``relation subject object verdict fraction``
        plus origin/consistency columns, under a '#'-prefixed summary."""
        counts = self.unstated_counts
        lines = [
            f"# kb_digest={self.kb_digest} members={self.member_count}",
            (
                f"# asserted={len(self.asserted_rows)}"
                f" consistent={self.consistent_count}"
                f" unstated={len(self.unstated_rows)}"
                f" true={counts[Truth.TRUE]}"
                f" false={counts[Truth.FALSE]}"
                f" unknown={counts[Truth.UNKNOWN]}"
            ),
        ]
        for row in self.asserted_rows + self.unstated_rows:
            if row.asserted is None:
                origin, flag = "unstated", "-"
            else:
                origin = "+" if row.asserted else "-"
                flag = "ok" if row.consistent else "MISMATCH"
            q, v = row.query, row.verdict
            lines.append(
                f"{q.relation}\t{q.subject}\t{q.object}\t{v.value}"
                f"\t{v.satisfied_fraction:.6f}\t{origin}\t{flag}"
            )
        return "\n".join(lines) + "\n"


def knowledge_report(
    ens: Ensemble,
    kb: KnowledgeBase,
    include_self_pairs: bool = False,
    tau: Optional[float] = None,
    quorum_slack: float = 0.0,
) -> KnowledgeReport:
    """Evaluate every asserted triple and every unstated query.

    The ensemble must have been fitted from ``kb`` (digest check).  Asserted
    rows carry a consistency flag against the assertion oracle; unstated
    rows default to distinct-pair facts only.
    """
    if ens.kb_digest != kb.digest():
        raise DigestMismatchError("ensemble digest does not match the given knowledge base")
    asserted = []
    for t in kb.triples:
        q = t.as_query()
        verdict = query_truth(ens, q, tau=tau, quorum_slack=quorum_slack)
        oracle = assertion_oracle(kb, q)
        asserted.append(
            ReportRow(q, verdict, t.positive, verdict.value == oracle.value)
        )
    unstated = [
        ReportRow(q, query_truth(ens, q, tau=tau, quorum_slack=quorum_slack), None, None)
        for q in unstated_queries(kb, include_self_pairs=include_self_pairs)
    ]
    return KnowledgeReport(
        kb_digest=ens.kb_digest,
        member_count=len(ens.members),
        asserted_rows=tuple(asserted),
        unstated_rows=tuple(unstated),
    )
