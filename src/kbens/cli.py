"""Command-line surface: fit ensembles, query them, dump reports and
aggregate clouds.

Exit codes are stable: 0 success, 1 input or usage error, 2 computational
failure (store unsatisfiable, fit did not converge, aggregate degenerate).
Machine-readable output goes to stdout; human summaries and manifests for
commands without an output file go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
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
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _Version(argparse.Action):
    # argparse's own version action wraps its line to the terminal width.
    def __call__(self, parser, namespace, values, option_string=None):
        print(f"kbens {__version__} (rng: {RNG_ALGORITHM_ID}; optimizer: {OPTIMIZER_ID})")
        parser.exit()


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


def _emit_manifest(
    args, kb_digest: Optional[str], started: float, out_path: Optional[str] = None,
    **resolved,
) -> None:
    """Write everything needed to reproduce the run: the command, every
    parameter fully resolved, the store digest, tool version, and wall-clock
    time; to ``<out_path>.manifest.json`` when given, else to stderr."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    text = json.dumps(
        {
            "command": args.command,
            "parameters": {**parameters, **resolved},
            "kb_digest": kb_digest,
            "tool_version": __version__,
            "rng_algorithm_id": RNG_ALGORITHM_ID,
            "optimizer_id": OPTIMIZER_ID,
            "duration_seconds": time.monotonic() - started,
        },
        sort_keys=True,
    )
    if out_path is not None:
        _write_text(out_path + ".manifest.json", text + "\n")
    else:
        print(text, file=sys.stderr)


def cmd_fit(args) -> int:
    started = time.monotonic()
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
    ensemble = fit_ensemble(
        kb, cfg, tcfg, args.seed, members=args.members, jobs=args.jobs
    )
    _write_text(args.out, ensemble.to_json())
    print(f"dimension\t{cfg.dimension}")
    print(f"members\t{len(ensemble)}")
    for i, report in enumerate(ensemble.reports):
        print(
            f"member\t{i}\t{report.seed}\t{report.final_error!r}\t{report.epochs_used}"
        )
    _emit_manifest(
        args, kb.digest(), started, args.out, dim=cfg.dimension, dim_searched=args.dim is None
    )
    print(
        f"fitted {len(ensemble)} members at dimension {cfg.dimension} -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_query(args) -> int:
    started = time.monotonic()
    ensemble = _load_ensemble(args.ensemble)
    if args.kb is not None:
        ensemble.check_digest(_load_kb(args.kb))
    verdict = query_truth(
        ensemble,
        Query(args.relation, args.subject, args.object),
        quorum_slack=args.delta,
    )
    print(f"{verdict.value}\t{verdict.satisfied_fraction:.6f}")
    _emit_manifest(args, ensemble.kb_digest, started)
    return EXIT_OK


def cmd_report(args) -> int:
    started = time.monotonic()
    ensemble = _load_ensemble(args.ensemble)
    kb = _load_kb(args.kb)
    report = knowledge_report(
        ensemble, kb, include_self_pairs=args.self_pairs, quorum_slack=args.delta
    )
    sys.stdout.write(report.to_tsv())
    _emit_manifest(args, kb.digest(), started)
    return EXIT_OK


def cmd_aggregate(args) -> int:
    started = time.monotonic()
    for flag, bound in (("--dedup-tol", args.dedup_tol), ("--max-diameter", args.max_diameter)):
        if bound is not None and not bound >= 0.0:
            raise ValueError(f"{flag} must be a non-negative number: {bound!r}")
    ensemble = _load_ensemble(args.ensemble)
    aggregate = build_aggregate(
        ensemble,
        dedup_tolerance=args.dedup_tol,
        max_cloud_diameter=args.max_diameter,
    )
    _write_text(args.out, aggregate.to_json())
    if args.clouds_tsv is not None:
        _write_text(args.clouds_tsv, aggregate.clouds_tsv())
    max_diameter = max(aggregate.diameters.values(), default=0.0)
    print(f"retained\t{len(aggregate.member_indices)}")
    print(f"reference_index\t{aggregate.reference_index}")
    print(f"max_diameter\t{max_diameter!r}")
    _emit_manifest(args, ensemble.kb_digest, started, args.out)
    print(
        f"retained {len(aggregate.member_indices)} members"
        f" (max cloud diameter {max_diameter:.6g}) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kbens",
        description=(
            "Represent a signed triple store as an ensemble of translational "
            "embeddings and answer queries with TRUE / FALSE / UNKNOWN."
        ),
    )
    parser.add_argument(
        "--version", action=_Version, nargs=0, default=argparse.SUPPRESS,
        help="show the version and the fit algorithms, and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    train_defaults = TrainConfig()

    fit = sub.add_parser("fit", help="fit an ensemble from a KB file")
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
    fit.add_argument("--jobs", type=int, default=1, help="parallel member fitting; output is identical for any value")
    fit.set_defaults(func=cmd_fit)

    query = sub.add_parser("query", help="ask one ternary query against an ensemble")
    query.add_argument("ensemble", help="ensemble JSON path")
    query.add_argument("relation")
    query.add_argument("subject")
    query.add_argument("object")
    query.add_argument("--kb", default=None, help="optional KB file to digest-check against")
    query.add_argument("--delta", type=float, default=0.0, help="quorum slack (0 = strict unanimity)")
    query.set_defaults(func=cmd_query)

    report = sub.add_parser("report", help="evaluate every asserted and unstated fact")
    report.add_argument("ensemble")
    report.add_argument("kb")
    report.add_argument("--self-pairs", action="store_true", help="include r(a, a) queries")
    report.add_argument("--delta", type=float, default=0.0)
    report.set_defaults(func=cmd_report)

    aggregate = sub.add_parser("aggregate", help="build the cloud model from an ensemble")
    aggregate.add_argument("ensemble")
    aggregate.add_argument("-o", "--out", required=True, help="aggregate JSON output path")
    aggregate.add_argument("--dedup-tol", type=float, default=DEFAULT_DEDUP_TOLERANCE)
    aggregate.add_argument("--max-diameter", type=float, default=None)
    aggregate.add_argument("--clouds-tsv", default=None, help="also dump clouds as TSV")
    aggregate.set_defaults(func=cmd_aggregate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"kbens {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EnsembleFitError, NoConvergentDimensionError, DegenerateAggregateError) as exc:
        print(f"kbens {args.command}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
