"""Hash every artifact of a fixed list of kbens commands, one line each.

    PYTHONPATH=<tree>/src python tools/equivalence.py OUT

Runs each command in process through ``kbens.cli.main``, in a fresh
temporary directory holding copies of the stores in ``tools/stores``, and
writes OUT: one line per artifact, its name, a tab and the SHA-256 of its
bytes.  The artifacts of a command are its stdout, exit code and stderr,
and the files it writes: the ensemble JSON, the aggregate JSON, the clouds
TSV and the manifest.  Each ensemble a fit writes adds one more line, the
SHA-256 of ``Ensemble.from_json(text).to_json()``, which must be the hash
of the file itself: the tool stops with an error when it is not.  Stderr and the manifest are hashed only after their
times (``duration_seconds``) and the temporary directory are masked; the
manifest's ``jobs`` value is masked too, since ``--jobs`` changes nothing
else by design.  Then the help, version and usage-error block: stdout, exit
code and stderr of each argv in ``USAGE_ARGVS``, at each terminal width in
``USAGE_COLUMNS`` (``COLUMNS`` is set around these runs only).

Then the library: ``satisfiability_oracle`` on every store at each
dimension in ``DIMS`` (one line each hashes the status, the ``repr`` of the
error floor, the pinned triple's line and the certificate's JSON).  Then,
on one parsed object per store of ``MEMBER_STORES``, ``min_dimension_search``
at seeds ``SEARCH_SEEDS`` (one line per seed hashes the dimension, the
winning member's JSON and the ``repr`` of its fit's report), and
``train_members`` at seeds ``MEMBER_SEEDS`` at each dimension (one line per
member hashes its JSON and the ``repr`` of its report).  Every search and
fit but the first on a store thus runs on the descent index an earlier one
cached on it.

Last, each random store in ``tools/stores/random`` (``rNN.kb``, drawn once
and committed) through one ``train_members`` call, at the dimension, rates,
start scale, epoch budget and seeds :func:`random_config` derives from its
number NN, one line per member as above.  Rates up to 1e10, start scales up
to 1e200 and budgets of 1 to 199 epochs make steps rejected, start errors
overflow and rates underflow.

Then the votes: on each store of ``MEMBER_STORES``, the ensemble
``fit_ensemble`` fits at the dimension and base seed ``VOTE_FITS`` gives it
(32 members), and its aggregate at the dedup tolerance given there.  One
line per ``tau`` in ``VOTE_TAUS`` hashes the ``repr`` of ``query_truth``'s
verdict on every query over the store's vocabulary, self pairs included,
and one more the same for ``aggregate_query``.

Two trees are byte-equivalent on this set when their OUT files are equal,
so comparing them is one ``diff``.  Run once per tree, one process each.
The stores are committed files, so the set does not move when a store
generator does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional
from unittest import mock

from kbens import (
    Embedding, EmbeddingConfig, Ensemble, KnowledgeBase, Query, TrainConfig, aggregate_query,
    build_aggregate, cli, fit_ensemble, parse_kb, query_truth,
)
from kbens.trainer import (
    OPTIMIZER_ID,
    RNG_ALGORITHM_ID,
    min_dimension_search,
    satisfiability_oracle,
    train_members,
    train_with_retries,
)

STORES = Path(__file__).resolve().parent / "stores"
DIMS = (1, 2)
MEMBER_STORES = ("friends.kb", "wide.kb", "chain.kb")
MEMBER_SEEDS = tuple(range(8))
SEARCH_SEEDS = tuple(range(4))
RANDOM_STORES = STORES / "random"
RANDOM_RATES = (0.1, 0.3, 1.0, 1e3, 1e10)
RANDOM_SCALES = (1.0, 3.0, 1e10, 1e154, 1e200)
# Store: dimension, base seed and dedup tolerance.  Chain at 1e-2 keeps 22
# of its 32 members, so its aggregate votes on fewer members than its ensemble.
VOTE_FITS = {"friends.kb": (1, 7, 1e-6), "wide.kb": (2, 2, 1e-6), "chain.kb": (1, 7, 1e-2)}
VOTE_TAUS = (None, 0.0, math.inf)


@dataclass(frozen=True)
class Case:
    """One ``kbens fit`` and what runs on its ensemble: ``report`` plain and
    with ``--self-pairs --delta 0.2``, ``query``, and one ``aggregate
    --clouds-tsv`` per pair of ``--dedup-tol`` and ``--max-diameter`` in
    ``aggregates`` (``None`` for the default).  A case without a query is a
    fit only."""

    name: str
    store: str
    flags: tuple[str, ...]
    query: Optional[tuple[str, str, str]] = None
    aggregates: tuple[tuple[Optional[str], Optional[str]], ...] = ((None, None),)


_FRIENDS_QUERY = ("friend", "Mary", "Alice")
_WIDE_QUERY = ("rel0", "p0_1", "p0_0")

CASES = [
    # At seed 7 a diameter bound of 1.0 keeps 18 of the 32 members.
    *(Case(f"friends/seed{seed}/jobs{jobs}", "friends.kb",
           ("--seed", str(seed), "--jobs", str(jobs)), _FRIENDS_QUERY,
           ((None, None), (None, "1.0")) if seed == 7 else ((None, None),))
      for seed in (1, 2, 3, 4, 7) for jobs in (1, 2)),
    # From d = 8 numpy's np.sum and the vote's column sums round differently,
    # so these reports rest on the bound the vote certifies its counts with.
    Case("friends/dim9-members8/seed7", "friends.kb",
         ("--dim", "9", "--members", "8", "--seed", "7"), _FRIENDS_QUERY),
    # The nearest pair of wide/seed2 is 0.25 apart, so at 0.3 the norm bound
    # settles no pair, the Procrustes residuals decide, and 30 members stay.
    # A diameter bound of 1.5 keeps 22.
    Case("wide/seed2", "wide.kb", ("--seed", "2"), _WIDE_QUERY,
         ((None, None), ("0.3", None), (None, "1.5"))),
    *(Case(f"wide/dim2-members1/seed{seed}", "wide.kb",
           ("--dim", "2", "--members", "1", "--seed", str(seed)), _WIDE_QUERY)
      for seed in (2, 3, 4, 5)),
    Case("cluster150/dim2-members6/seed1", "cluster150.kb",
         ("--dim", "2", "--members", "6", "--seed", "1"), ("r0", "c0_1", "c0_0")),
    # At dedup tolerance 1e-2 a diameter bound of 0.35 keeps 11 members.
    Case("chain/dim1/seed7", "chain.kb", ("--dim", "1", "--seed", "7"), ("next", "a", "c"),
         (("1e-6", None), ("1e-3", None), ("1e-2", None), ("1e-2", "0.35"))),
    # Names the JSON writer escapes: a quote, a backslash, non-ASCII letters
    # and a C0 control.
    Case("escapes/seed7", "escapes.kb", ("--seed", "7"), ("knows", 'quote"d', "café")),
    Case("unsat/seed7", "unsat.kb", ("--seed", "7")),
]


# The CLI's own messages: help, version and usage errors, none of which reads a file.
USAGE_COLUMNS = ("80", "50")
USAGE_ARGVS = [
    ["--help"], ["-h"], ["--version"],
    *([command, "--help"] for command in ("fit", "query", "report", "aggregate")),
    [], ["bogus"], ["fit"], ["query"], ["report"], ["aggregate"],
    ["fit", "friends.kb", "-o", "ensemble.json", "--seed", "7", "--members", "abc"],
    ["query", "ensemble.json", *_FRIENDS_QUERY, "--delta", "x"],
    # The command parses what it knows and hands the rest back: the root reports it.
    ["report", "ensemble.json", "friends.kb", "--members", "8"],
    ["query", "ensemble.json", "friend", "Joe", "Bob", "--version"],
]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _mask(text: str, work: Path) -> str:
    text = text.replace(str(work), "<work>")
    text = re.sub(r'"duration_seconds": [^,}]+', '"duration_seconds": "<time>"', text)
    return re.sub(r'"jobs": \d+', '"jobs": "<jobs>"', text)


def _run(name: str, argv: list[str], files: list[Path], work: Path) -> Iterator[str]:
    # Each of ``files`` and its manifest is hashed, or marked absent, as this
    # command left it; a file an earlier command wrote is removed first.
    written = [(path, False) for path in files]
    written += [(Path(f"{path}.manifest.json"), True) for path in files[:1]]
    for path, _ in written:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse ends a usage error this way
            code = exc.code
    yield f"{name}/stdout\t{_sha(out.getvalue())}"
    yield f"{name}/exit\t{_sha(str(code))}"
    yield f"{name}/stderr\t{_sha(_mask(err.getvalue(), work))}"
    for path, masked in written:
        label = "manifest" if masked else path.name
        if not path.exists():
            yield f"{name}/{label}\tabsent"
            continue
        data = _mask(path.read_text(encoding="utf-8"), work) if masked else path.read_bytes()
        yield f"{name}/{label}\t{_sha(data)}"


def round_trip_sha(path: Path) -> str:
    """The hash of the ensemble file at ``path`` as loaded and written
    again, which must be that of the file."""
    text = path.read_text(encoding="utf-8")
    again = Ensemble.from_json(text).to_json()
    if again != text:
        raise SystemExit(f"{path}: Ensemble.from_json(text).to_json() changed the bytes")
    return _sha(again)


def case_lines(case: Case, work: Path) -> Iterator[str]:
    """The artifact lines of one case, run in the directory ``work``."""
    store = str(work / case.store)
    ensemble = work / "ensemble.json"
    yield from _run(f"{case.name}/fit", ["fit", store, "-o", str(ensemble), *case.flags],
                    [ensemble], work)
    if ensemble.exists():
        yield f"{case.name}/fit/round-trip\t{round_trip_sha(ensemble)}"
    if case.query is None:
        return
    yield from _run(f"{case.name}/report", ["report", str(ensemble), store], [], work)
    yield from _run(f"{case.name}/report-self-pairs-delta0.2",
                    ["report", str(ensemble), store, "--self-pairs", "--delta", "0.2"], [], work)
    yield from _run(f"{case.name}/query", ["query", str(ensemble), *case.query], [], work)
    aggregate, clouds = work / "aggregate.json", work / "clouds.tsv"
    for tol, bound in case.aggregates:
        flags, label = [], "aggregate"
        if tol is not None:
            flags, label = ["--dedup-tol", tol], f"{label}-dedup{tol}"
        if bound is not None:
            flags, label = [*flags, "--max-diameter", bound], f"{label}-max-diameter{bound}"
        argv = ["aggregate", str(ensemble), "-o", str(aggregate), "--clouds-tsv", str(clouds), *flags]
        yield from _run(f"{case.name}/{label}", argv, [aggregate, clouds], work)


def lines(cases: list[Case]) -> list[str]:
    """Every artifact line of ``cases``, then the two algorithm ids."""
    out = []
    for case in cases:
        with tempfile.TemporaryDirectory(prefix="kbens-equivalence-") as tmp:
            work = Path(tmp)
            shutil.copy(STORES / case.store, work / case.store)
            out += case_lines(case, work)
    out.append(f"ids/optimizer\t{_sha(OPTIMIZER_ID)}")
    out.append(f"ids/rng_algorithm\t{_sha(RNG_ALGORITHM_ID)}")
    return out


def usage_lines() -> list[str]:
    """Three lines per argv in ``USAGE_ARGVS`` and width in ``USAGE_COLUMNS``."""
    out = []
    with tempfile.TemporaryDirectory(prefix="kbens-equivalence-") as tmp:
        for columns in USAGE_COLUMNS:
            # The terminal width argparse wraps help and usage to, for these runs only.
            with mock.patch.dict(os.environ, COLUMNS=columns):
                for argv in USAGE_ARGVS:
                    name = f"usage/columns{columns}/{' '.join(argv) or '(no arguments)'}"
                    out += _run(name, argv, [], Path(tmp))
    return out


def read_store(name: str) -> KnowledgeBase:
    return parse_kb((STORES / name).read_text(encoding="utf-8"))


def _json(member: Optional[Embedding]) -> str:
    return "null" if member is None else json.dumps(member.to_doc(), sort_keys=True)


def oracle_lines(store: str) -> Iterator[str]:
    """One line per dimension: what ``satisfiability_oracle`` says of ``store``."""
    kb = read_store(store)
    for dim in DIMS:
        result = satisfiability_oracle(kb, dim)
        pinned = "None" if result.pinned is None else result.pinned.as_line()
        fields = (result.status.value, repr(result.error_floor), pinned, _json(result.certificate))
        digest = _sha("\n".join(fields))
        yield f"oracle/{Path(store).stem}/dim{dim}\t{digest}"


def search_lines(
    store: str, kb: KnowledgeBase, seeds: tuple[int, ...] = SEARCH_SEEDS
) -> Iterator[str]:
    """One line per seed: the dimension ``min_dimension_search`` finds on
    ``kb``, parsed from ``store``, the member it keeps, and the report of
    that member's fit (its ``train_with_retries`` call again)."""
    for seed in seeds:
        dim, member = min_dimension_search(kb, EmbeddingConfig(dimension=1), TrainConfig(), seed)
        _, report = train_with_retries(kb, member.config, TrainConfig(), seed)
        digest = _sha(f"{dim}\n{_json(member)}\n{report!r}")
        yield f"min_dimension_search/{Path(store).stem}/seed{seed}\t{digest}"


def member_lines(
    store: str, kb: KnowledgeBase, seeds: tuple[int, ...] = MEMBER_SEEDS
) -> Iterator[str]:
    """One line per dimension and seed: a member of one ``train_members``
    call on ``kb``, parsed from ``store``."""
    for dim in DIMS:
        for member, report in train_members(kb, EmbeddingConfig(dimension=dim), TrainConfig(), seeds):
            digest = _sha(f"{_json(member)}\n{report!r}")
            yield f"train_members/{Path(store).stem}/dim{dim}/seed{member.seed}\t{digest}"


def random_config(number: int) -> tuple[EmbeddingConfig, TrainConfig, tuple[int, ...]]:
    """The config, train config and seeds random store ``number`` is fitted
    with: every rate with every start scale over 25 stores, dimensions 1 to
    4, and epoch budgets spread over 1 to 199."""
    tcfg = TrainConfig(
        learning_rate=RANDOM_RATES[number % 5],
        max_epochs=1 + 37 * number % 199,
        init_scale=RANDOM_SCALES[number // 5 % 5],
    )
    return EmbeddingConfig(dimension=1 + number % 4), tcfg, tuple(range(3 * number, 3 * number + 3))


def random_lines(paths: Optional[list[Path]] = None) -> Iterator[str]:
    """One line per member of each random store's ``train_members`` call
    (every store in ``RANDOM_STORES`` unless ``paths`` names some)."""
    for path in sorted(RANDOM_STORES.glob("r*.kb")) if paths is None else paths:
        kb = parse_kb(path.read_text(encoding="utf-8"))
        for member, report in train_members(kb, *random_config(int(path.stem[1:]))):
            digest = _sha(f"{_json(member)}\n{report!r}")
            yield f"train_members/random/{path.stem}/seed{member.seed}\t{digest}"


def vote_lines(store: str, kb: KnowledgeBase) -> Iterator[str]:
    """Two lines per ``tau``: every query's verdict by ``query_truth`` on the
    ensemble of ``kb``, parsed from ``store``, and by ``aggregate_query`` on
    its aggregate."""
    dim, seed, dedup_tolerance = VOTE_FITS[store]
    ens = fit_ensemble(kb, EmbeddingConfig(dimension=dim), TrainConfig(), seed)
    agg = build_aggregate(ens, dedup_tolerance)
    models = (("query_truth", query_truth, ens), ("aggregate_query", aggregate_query, agg))
    queries = [Query(r, s, o) for r in kb.relations for s in kb.entities for o in kb.entities]
    for tau in VOTE_TAUS:
        for name, vote, model in models:
            digest = _sha("\n".join(repr(vote(model, q, tau)) for q in queries))
            yield f"{name}/{Path(store).stem}/tau{tau}\t{digest}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=<tree>/src python tools/equivalence.py OUT", file=sys.stderr)
        return 1
    out = lines(CASES) + usage_lines()
    for store in sorted(p.name for p in STORES.glob("*.kb")):
        out += oracle_lines(store)
    for store in MEMBER_STORES:
        kb = read_store(store)
        out += search_lines(store, kb)
        out += member_lines(store, kb)
    out += random_lines()
    for store in MEMBER_STORES:
        out += vote_lines(store, read_store(store))
    Path(argv[0]).write_text("".join(f"{line}\n" for line in out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
