"""Command-line surface: fit ensembles, query them, dump reports and
aggregate clouds.

Exit codes are stable: 0 success, 1 input or usage error, 2 computational
failure (store unsatisfiable, fit did not converge, aggregate degenerate).
Machine-readable output goes to stdout; human summaries and manifests for
commands without an output file go to stderr.  Each ``cmd_*`` only computes;
``main`` writes its files, then the manifest, and only then stdout and the
summary, so a failed write leaves stdout empty.  A closed stdout exits 1 with
one line, after ``--help`` and ``--version`` too.  A process runs one command:
only its parser is built, when it is parsed, so none pays for another's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import __version__
from .aggregate import DEFAULT_DEDUP_TOLERANCE, DegenerateAggregateError, build_aggregate
from .embedding import (
    DEFAULT_EPS_FIT,
    DEFAULT_GAMMA,
    DEFAULT_TAU_POS,
    EmbeddingConfig,
)
from .ensemble import (
    DEFAULT_MEMBERS,
    Ensemble,
    EnsembleFitError,
    fit_ensemble,
    knowledge_report,
    query_truth,
)
from .kb import KnowledgeBase, Query, parse_kb
from .trainer import (
    OPTIMIZER_ID,
    RNG_ALGORITHM_ID,
    NoConvergentDimensionError,
    TrainConfig,
    min_dimension_search,
    reject_unsatisfiable,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2


class _Parser(argparse.ArgumentParser):
    """argparse's parser with kbens's usage exit code and help writer."""

    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    # argparse drops a failed write of help text; write it as main writes stdout.
    def print_help(self, file=None):
        self.exit(_print("kbens", self.format_help()))


class _Command:
    """A command's parser, built with ``-h`` and ``arguments(parser)`` only in
    :meth:`parse_known_args`, which argparse calls on the chosen command alone."""

    def __init__(self, arguments, **kwargs):
        self._arguments = arguments
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self._kwargs)
        self._arguments(parser)
        return parser.parse_known_args(args, namespace)


class _Version(argparse.Action):
    # argparse's own version action wraps its line to the terminal width.
    def __call__(self, parser, namespace, values, option_string=None):
        line = f"kbens {__version__} (rng: {RNG_ALGORITHM_ID}; optimizer: {OPTIMIZER_ID})\n"
        parser.exit(_print(parser.prog, line))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _load_kb(path: str) -> KnowledgeBase:
    return parse_kb(_read_text(path))


def _load_ensemble(path: str) -> Ensemble:
    text = _read_text(path)
    try:
        return Ensemble.from_json(text)
    except KeyError as exc:
        raise ValueError(f"invalid ensemble file {path!r}: missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"invalid ensemble file {path!r}: {exc}") from exc


@dataclass(frozen=True)
class _Output:
    """What one command produced, written only by :func:`main`: ``files`` as
    ``(path, text)`` in write order, the manifest beside the first (or on
    stderr without files), then ``stdout`` and ``summary``."""

    stdout: str
    kb_digest: str
    files: tuple[tuple[str, str], ...] = ()
    resolved: dict = field(default_factory=dict)
    summary: str = ""


def cmd_fit(args) -> _Output:
    if args.members < 1:
        raise ValueError("--members must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    kb = _load_kb(args.kb)
    tcfg = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.max_epochs,
        init_scale=args.init_scale,
        retry_budget=args.retry_budget,
    )
    cfg = EmbeddingConfig(
        dimension=1 if args.dim is None else args.dim,
        tau_pos=args.tau, gamma=args.gamma, eps_fit=args.fit_tol,
    )
    # Both paths reject a store whose error floor lies above --fit-tol
    # before any training.
    if args.dim is None:
        dimension, _ = min_dimension_search(kb, cfg, tcfg, args.seed)
        cfg = replace(cfg, dimension=dimension)
    else:
        reject_unsatisfiable(kb, cfg)
    ensemble = fit_ensemble(kb, cfg, tcfg, args.seed, members=args.members)
    lines = [f"dimension\t{cfg.dimension}", f"members\t{len(ensemble)}"] + [
        f"member\t{i}\t{r.seed}\t{r.final_error!r}\t{r.epochs_used}"
        for i, r in enumerate(ensemble.reports)
    ]
    return _Output(
        "\n".join(lines) + "\n", ensemble.kb_digest, files=((args.out, ensemble.to_json()),),
        resolved={"dim": cfg.dimension, "dim_searched": args.dim is None},
        summary=f"fitted {len(ensemble)} members at dimension {cfg.dimension} -> {args.out}\n",
    )


def cmd_query(args) -> _Output:
    ensemble = _load_ensemble(args.ensemble)
    if args.kb is not None:
        ensemble.check_digest(_load_kb(args.kb))
    query = Query(args.relation, args.subject, args.object)
    verdict = query_truth(ensemble, query, quorum_slack=args.delta)
    return _Output(f"{verdict.value}\t{verdict.satisfied_fraction:.6f}\n", ensemble.kb_digest)


def cmd_report(args) -> _Output:
    ensemble = _load_ensemble(args.ensemble)
    kb = _load_kb(args.kb)
    report = knowledge_report(
        ensemble, kb, include_self_pairs=args.self_pairs, quorum_slack=args.delta
    )
    return _Output(report.to_tsv(), report.kb_digest)


def cmd_aggregate(args) -> _Output:
    ensemble = _load_ensemble(args.ensemble)
    aggregate = build_aggregate(
        ensemble, dedup_tolerance=args.dedup_tol, max_cloud_diameter=args.max_diameter
    )
    files = [(args.out, aggregate.to_json())]
    if args.clouds_tsv is not None:
        files.append((args.clouds_tsv, aggregate.clouds_tsv()))
    retained = len(aggregate.member_indices)
    max_diameter = max(aggregate.diameters.values(), default=0.0)
    return _Output(
        f"retained\t{retained}\nreference_index\t{aggregate.reference_index}\n"
        f"max_diameter\t{max_diameter!r}\n",
        ensemble.kb_digest, tuple(files),
        summary=f"retained {retained} members (max cloud diameter {max_diameter:.6g}) -> {args.out}\n",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``kbens`` parser; a command's parser is built when it is parsed (:class:`_Command`)."""
    # The width argparse would look up for every argument it adds, looked up once.
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = _Parser(
        prog="kbens",
        description=(
            "Represent a signed triple store as an ensemble of translational "
            "embeddings and answer queries with TRUE / FALSE / UNKNOWN."
        ),
        formatter_class=formatter,
    )
    parser.add_argument(
        "--version", action=_Version, nargs=0, default=argparse.SUPPRESS,
        help="show the version and the fit algorithms, and exit",
    )
    # Given prog, argparse does not format the root usage to find the commands' prefix.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog,
                                parser_class=functools.partial(_Command, formatter_class=formatter))
    sub.add_parser("fit", help="fit an ensemble from a KB file", arguments=_fit_arguments)
    sub.add_parser("query", help="ask one ternary query against an ensemble", arguments=_query_arguments)
    sub.add_parser("report", help="evaluate every asserted and unstated fact", arguments=_report_arguments)
    sub.add_parser("aggregate", help="build the cloud model from an ensemble", arguments=_aggregate_arguments)
    return parser


def _fit_arguments(fit: argparse.ArgumentParser) -> None:
    train_defaults = TrainConfig()
    fit.add_argument("kb", help="KB file (relation<TAB>subject<TAB>object<TAB>+/-)")
    fit.add_argument("-o", "--out", required=True, help="ensemble JSON output path")
    fit.add_argument("--seed", type=int, required=True, help="base seed (reproducibility first; no wall-clock seeding)")
    fit.add_argument("--members", type=int, default=DEFAULT_MEMBERS)
    fit.add_argument("--dim", type=int, default=None, help="bypass the minimal-dimension search")
    fit.add_argument("--tau", type=float, default=DEFAULT_TAU_POS, help="satisfaction radius")
    fit.add_argument("--gamma", type=float, default=DEFAULT_GAMMA, help="negative margin")
    fit.add_argument("--fit-tol", type=float, default=DEFAULT_EPS_FIT, help="convergence threshold on cumulative error")
    fit.add_argument("--lr", type=float, default=train_defaults.learning_rate)
    fit.add_argument("--init-scale", type=float, default=train_defaults.init_scale)
    fit.add_argument("--max-epochs", type=int, default=train_defaults.max_epochs)
    fit.add_argument("--retry-budget", type=int, default=train_defaults.retry_budget)
    fit.add_argument("--jobs", type=int, default=1, help="has no effect: members are fitted in this process")


def _query_arguments(query: argparse.ArgumentParser) -> None:
    query.add_argument("ensemble", help="ensemble JSON path")
    query.add_argument("relation")
    query.add_argument("subject")
    query.add_argument("object")
    query.add_argument("--kb", default=None, help="optional KB file to digest-check against")
    query.add_argument("--delta", type=float, default=0.0, help="quorum slack (0 = strict unanimity)")


def _report_arguments(report: argparse.ArgumentParser) -> None:
    report.add_argument("ensemble")
    report.add_argument("kb")
    report.add_argument("--self-pairs", action="store_true", help="include r(a, a) queries")
    report.add_argument("--delta", type=float, default=0.0)


def _aggregate_arguments(aggregate: argparse.ArgumentParser) -> None:
    aggregate.add_argument("ensemble")
    aggregate.add_argument("-o", "--out", required=True, help="aggregate JSON output path")
    aggregate.add_argument(
        "--dedup-tol", type=float, default=DEFAULT_DEDUP_TOLERANCE,
        help="RMS residual of the best rigid map below which two members are duplicates",
    )
    aggregate.add_argument("--max-diameter", type=float, default=None)
    aggregate.add_argument("--clouds-tsv", default=None, help="also dump clouds as TSV")


def _print(prog: str, stdout: str = "", summary: str = "") -> int:
    # Write and flush stdout, then the summary; a closed pipe or a full disk
    # ends in one line and exit 1.
    try:
        sys.stdout.write(stdout)
        sys.stdout.flush()
        sys.stderr.write(summary)
    except OSError as exc:
        # The interpreter flushes stdout again at exit: let that go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"{prog}: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        out = {"fit": cmd_fit, "query": cmd_query, "report": cmd_report,
               "aggregate": cmd_aggregate}[args.command](args)
        for path, text in out.files:
            _write_text(path, text)
        # Everything needed to reproduce the run, every parameter resolved.
        parameters = {k: v for k, v in vars(args).items() if k != "command"}
        manifest = json.dumps(
            {
                "command": args.command,
                "parameters": {**parameters, **out.resolved},
                "kb_digest": out.kb_digest,
                "tool_version": __version__,
                "rng_algorithm_id": RNG_ALGORITHM_ID,
                "optimizer_id": OPTIMIZER_ID,
                "duration_seconds": time.monotonic() - started,
            },
            sort_keys=True,
        )
        if out.files:
            _write_text(out.files[0][0] + ".manifest.json", manifest + "\n")
        else:
            print(manifest, file=sys.stderr)
    except (FileNotFoundError, ValueError) as exc:
        print(f"kbens {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EnsembleFitError, NoConvergentDimensionError, DegenerateAggregateError) as exc:
        print(f"kbens {args.command}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return _print(f"kbens {args.command}", out.stdout, out.summary)


if __name__ == "__main__":
    sys.exit(main())
