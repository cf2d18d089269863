"""Exit codes, output formats, manifests, and byte-level determinism of the
command-line surface."""

import argparse
import copy
import errno
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbens import (
    Embedding,
    EmbeddingConfig,
    Ensemble,
    KnowledgeBase,
    Satisfiability,
    SatisfiabilityResult,
    cli,
    trainer,
)
from kbens.cli import main
from kbens.trainer import OPTIMIZER_ID

from conftest import FRIEND_KB_TEXT, FRIEND_UNSAT_KB_TEXT, hand_made_ensemble


# The store's three facts and the README's open question.
README_QUERIES = [
    ("friend", "Joe", "Bob"), ("friend", "Alice", "John"),
    ("friend", "Mary", "John"), ("friend", "Mary", "Alice"),
]
BOM = b"\xef\xbb\xbf"


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "friends.kb"
    path.write_text(FRIEND_KB_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def fitted(tmp_path, kb_file, capsys):
    out = tmp_path / "ens.json"
    code = main(
        ["fit", str(kb_file), "-o", str(out), "--seed", "7", "--members", "8", "--dim", "1"]
    )
    assert code == 0
    capsys.readouterr()
    return out


class TestFit:
    def test_writes_valid_ensemble_and_manifest(self, tmp_path, kb_file, capsys):
        out = tmp_path / "ens.json"
        code = main(["fit", str(kb_file), "-o", str(out), "--seed", "7", "--members", "4"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"kb_digest", "config", "members", "reports"}
        assert len(doc["members"]) == 4
        manifest = json.loads((tmp_path / "ens.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["parameters"]["seed"] == 7
        assert manifest["kb_digest"] == doc["kb_digest"]
        assert "rng_algorithm_id" in manifest
        assert manifest["optimizer_id"] == OPTIMIZER_ID
        assert {r["optimizer_id"] for r in doc["reports"]} == {OPTIMIZER_ID}
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("dimension\t")
        assert lines[1] == "members\t4"
        assert sum(1 for l in lines if l.startswith("member\t")) == 4

    def test_missing_file_exits_1_naming_path(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.kb"), "-o", str(tmp_path / "x"), "--seed", "1"])
        assert code == 1
        assert "nope.kb" in capsys.readouterr().err

    def test_zero_members_is_usage_error(self, tmp_path, kb_file, capsys):
        code = main(
            ["fit", str(kb_file), "-o", str(tmp_path / "x"), "--seed", "1", "--members", "0"]
        )
        assert code == 1

    def test_contradictory_kb_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.kb"
        bad.write_text("r\ta\tb\t+\nr\ta\tb\t-\n", encoding="utf-8")
        code = main(["fit", str(bad), "-o", str(tmp_path / "x"), "--seed", "1"])
        assert code == 1
        assert "contradicts" in capsys.readouterr().err

    def test_unfittable_kb_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "unsat.kb"
        bad.write_text(
            "r\ta\tb\t+\nr\tb\ta\t+\nr\tc\td\t+\nr\td\tc\t-\n", encoding="utf-8"
        )
        code = main(
            ["fit", str(bad), "-o", str(tmp_path / "x"), "--seed", "1",
             "--members", "2", "--dim", "2", "--max-epochs", "150"]
        )
        assert code == 2

    def test_byte_identical_across_runs_and_jobs(self, tmp_path, kb_file, capsys):
        args = ["fit", str(kb_file), "--seed", "7", "--members", "6"]
        outs = []
        for name, jobs in (("a.json", "1"), ("b.json", "1"), ("c.json", "4")):
            out = tmp_path / name
            assert main(args + ["-o", str(out), "--jobs", jobs]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_overflowing_steps_are_rejected_not_fatal(self, tmp_path, kb_file, capsys):
        code = main(
            ["fit", str(kb_file), "-o", str(tmp_path / "ens.json"), "--seed", "7",
             "--dim", "2", "--members", "1", "--init-scale", "1e154", "--lr", "1e10"]
        )
        assert code == 0


class TestUnsatisfiableStore:
    @pytest.fixture
    def unsat_file(self, tmp_path):
        path = tmp_path / "unsat.kb"
        path.write_text(FRIEND_UNSAT_KB_TEXT, encoding="utf-8")
        return path

    def fit(self, tmp_path, unsat_file, capsys, options, name="ens.json", seed="7"):
        out = tmp_path / name
        code = main(["fit", str(unsat_file), "-o", str(out), "--seed", seed, *options])
        captured = capsys.readouterr()
        return code, captured, out

    @pytest.mark.parametrize("options, floor, tol", [
        ([], "0.166667", "0.0001"),
        (["--dim", "2"], "0.166667", "0.0001"),
        (["--fit-tol", "0.16"], "0.166667", "0.16"),
        (["--fit-tol", "0.1666"], "0.166667", "0.1666"),
        (["--gamma", "2", "--fit-tol", "0.5"], "0.666667", "0.5"),
    ])
    def test_rejected_before_training(self, tmp_path, unsat_file, capsys, monkeypatch,
                                      options, floor, tol):
        monkeypatch.setattr(trainer, "train_with_retries", None)
        monkeypatch.setattr(cli, "fit_ensemble", None)
        code, captured, _ = self.fit(tmp_path, unsat_file, capsys, options)
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kbens fit: unsatisfiable store: the positive facts pin friend(Bob, Joe)- inside"
            f" the margin; every embedding has cumulative error >= {floor} > eps_fit {tol}\n"
        )
        assert list(tmp_path.iterdir()) == [unsat_file]

    def test_input_errors_come_first(self, tmp_path, unsat_file, capsys):
        code, captured, _ = self.fit(tmp_path, unsat_file, capsys, ["--max-epochs", "0"])
        assert code == 1
        assert captured.err == "kbens fit: max_epochs must be a positive integer: 0\n"

    @pytest.mark.parametrize("options, code, message", [
        (["--fit-tol", "0.16666666666666666"], 0, "fitted 4 members at dimension 1"),
        (["--fit-tol", "0.1666666666666666"], 2,
         "kbens fit: only 3 of 4 members converged within 16 candidate seeds"),
        (["--gamma", "2", "--fit-tol", "0.7"], 0, "fitted 4 members at dimension 1"),
    ])
    def test_tolerance_at_the_floor_runs_the_descent(self, tmp_path, unsat_file, capsys,
                                                     monkeypatch, options, code, message):
        # From seed 2 the fit within the slack fills only 3 of its 4 members.
        options = [*options, "--members", "4", "--max-epochs", "500"]
        checked = self.fit(tmp_path, unsat_file, capsys, options, "checked.json", "2")
        monkeypatch.setattr(
            trainer, "satisfiability_oracle",
            lambda *a: SatisfiabilityResult(Satisfiability.INCONCLUSIVE, None),
        )
        unchecked = self.fit(tmp_path, unsat_file, capsys, options, "unchecked.json", "2")
        assert checked[0] == unchecked[0] == code
        assert checked[1].out == unchecked[1].out
        assert message in checked[1].err and message in unchecked[1].err
        if code == 0:
            assert checked[2].read_bytes() == unchecked[2].read_bytes()


class TestQuery:
    def test_asserted_positive(self, fitted, capsys):
        code = main(["query", str(fitted), "friend", "Joe", "Bob"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "TRUE\t1.000000\n"

    def test_asserted_negative(self, fitted, capsys):
        code = main(["query", str(fitted), "friend", "Mary", "John"])
        assert code == 0
        assert capsys.readouterr().out == "FALSE\t0.000000\n"

    def test_unknown_term_exits_1(self, fitted, capsys):
        code = main(["query", str(fitted), "friend", "Mary", "Zed"])
        assert code == 1
        assert "Zed" in capsys.readouterr().err

    def test_digest_check_against_other_kb(self, fitted, tmp_path, capsys):
        other = tmp_path / "other.kb"
        other.write_text("friend\tJoe\tBob\t+\n", encoding="utf-8")
        code = main(["query", str(fitted), "friend", "Joe", "Bob", "--kb", str(other)])
        assert code == 1

    def test_manifest_on_stderr(self, fitted, capsys):
        assert main(["query", str(fitted), "friend", "Joe", "Bob"]) == 0
        err = capsys.readouterr().err.strip()
        manifest = json.loads(err)
        assert manifest["command"] == "query"
        assert manifest["parameters"]["relation"] == "friend"


class TestReport:
    def test_friend_report_rows(self, fitted, kb_file, capsys):
        code = main(["report", str(fitted), str(kb_file)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 20  # 3 asserted + 17 unstated
        asserted = [r for r in rows if r.split("\t")[5] in "+-"]
        assert len(asserted) == 3
        assert all(r.split("\t")[6] == "ok" for r in asserted)

    def test_empty_kb_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty.kb"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "e.json"
        assert main(["fit", str(empty), "-o", str(out), "--seed", "3", "--members", "2"]) == 0
        capsys.readouterr()
        assert main(["report", str(out), str(empty)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert all(l.startswith("#") for l in lines)

    def test_mismatched_kb_exits_1(self, fitted, tmp_path, capsys):
        other = tmp_path / "other.kb"
        other.write_text("friend\tJoe\tBob\t+\n", encoding="utf-8")
        assert main(["report", str(fitted), str(other)]) == 1


class TestStoreHashedOnce:
    """A command that reads a store hashes it once, and its manifest
    carries that digest."""

    def digest_calls(self, argv):
        with mock.patch.object(
            KnowledgeBase, "digest", autospec=True, side_effect=KnowledgeBase.digest
        ) as digest:
            assert main(argv) == 0
        return digest.call_count

    def test_fit(self, tmp_path, kb_file, capsys):
        out = tmp_path / "ens.json"
        argv = ["fit", str(kb_file), "-o", str(out), "--seed", "7", "--members", "2"]
        assert self.digest_calls(argv) == 1
        manifest = json.loads((tmp_path / "ens.json.manifest.json").read_text())
        assert manifest["kb_digest"] == json.loads(out.read_text())["kb_digest"]

    def test_report(self, fitted, kb_file, capsys):
        assert self.digest_calls(["report", str(fitted), str(kb_file)]) == 1
        manifest = json.loads(capsys.readouterr().err)
        assert manifest["kb_digest"] == json.loads(fitted.read_text())["kb_digest"]


class TestAggregate:
    def test_writes_aggregate_json(self, fitted, tmp_path, capsys):
        out = tmp_path / "agg.json"
        tsv = tmp_path / "clouds.tsv"
        code = main(["aggregate", str(fitted), "-o", str(out), "--clouds-tsv", str(tsv)])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["member_indices"]) >= 2
        assert (tmp_path / "agg.json.manifest.json").exists()
        assert captured.out.startswith("retained\t")
        assert len(tsv.read_text().strip().split("\n")) == 6 * len(doc["member_indices"])

    def test_extreme_dedup_tolerance_exits_2(self, fitted, tmp_path, capsys):
        code = main(["aggregate", str(fitted), "-o", str(tmp_path / "agg.json"),
                     "--dedup-tol", "1e9"])
        assert code == 2

    def test_empty_store_exits_2(self, tmp_path, capsys):
        # With no terms every member is a rigid image of the first.
        empty = tmp_path / "empty.kb"
        empty.write_text("", encoding="utf-8")
        ens = tmp_path / "e.json"
        assert main(["fit", str(empty), "-o", str(ens), "--seed", "1", "--members", "4"]) == 0
        capsys.readouterr()
        assert main(["aggregate", str(ens), "-o", str(tmp_path / "agg.json")]) == 2
        assert capsys.readouterr().err == (
            "kbens aggregate: only 1 member(s) retained; aggregate needs at least 2\n"
        )

    def test_entity_named_like_a_relation_exits_1(self, fitted, tmp_path, capsys):
        # Else the clouds TSV would print entity Joe's cloud under relation Joe.
        doc = json.loads(fitted.read_text())
        for member in doc["members"]:
            member["relations"]["Joe"] = [0.5]
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["aggregate", str(path), "-o", str(tmp_path / "agg.json"), "--clouds-tsv",
                str(tmp_path / "clouds.tsv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"kbens aggregate: invalid ensemble file {str(path)!r}:"
            " term name 'Joe' names more than one entity or relation\n"
        )

    @pytest.mark.parametrize("dimension, bound", [
        *(pytest.param(d, [], id=str(d)) for d in (1, 2, 3)),
        *(pytest.param(d, ["--max-diameter", b], id=f"{d}-max-diameter{b}")
          for d in (1, 2, 3) for b in ("1.0", "inf")),
    ])
    def test_overflowing_cloud_exits_2_naming_the_term(self, tmp_path, capsys, dimension, bound):
        # Finite coordinates near 1e200, whose products in the alignment
        # overflow.  From d = 3 LAPACK fails to converge on such a cross
        # product, so none may reach it.  A NaN distance does not exceed a
        # diameter bound, so the bound keeps the overflowing members too.
        cfg = EmbeddingConfig(dimension=dimension)
        for draw in range(20):
            rng = np.random.default_rng(draw)
            members = [
                Embedding(("a", "b"), ("r",), 1e200 * rng.normal(size=(2, dimension)),
                          1e200 * rng.normal(size=(1, dimension)), cfg, seed)
                for seed in range(4)
            ]
            path = tmp_path / "large.json"
            path.write_text(hand_made_ensemble(members).to_json(), encoding="utf-8")
            out = tmp_path / "agg.json"
            code = main(["aggregate", str(path), "-o", str(out), "--clouds-tsv",
                         str(tmp_path / "clouds.tsv"), *bound])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and not out.exists(), (draw, captured.err)
            assert captured.err == (
                "kbens aggregate: the cloud of 'a' is not finite:"
                " aligning the members' coordinates overflows\n"
            )

    def test_duplicated_member_file_exits_1(self, fitted, tmp_path, capsys):
        doc = json.loads(fitted.read_text())
        doc["members"] = [doc["members"][0], doc["members"][0]]
        doc["reports"] = [doc["reports"][0], doc["reports"][0]]
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["aggregate", str(dup), "-o", str(tmp_path / "agg.json")]) == 1
        assert capsys.readouterr().err == (
            f"kbens aggregate: invalid ensemble file {str(dup)!r}:"
            f" member seed={doc['members'][0]['seed']} repeats the seed of an earlier member\n"
        )


class TestManifestParameters:
    FIT = {"kb", "out", "seed", "members", "dim", "dim_searched", "tau", "gamma",
           "fit_tol", "lr", "init_scale", "max_epochs", "retry_budget", "jobs"}

    def test_fit_records_resolved_dimension(self, tmp_path, kb_file, capsys):
        out = tmp_path / "ens.json"
        assert main(["fit", str(kb_file), "-o", str(out), "--seed", "7", "--members", "2"]) == 0
        params = json.loads((tmp_path / "ens.json.manifest.json").read_text())["parameters"]
        assert set(params) == self.FIT
        assert params["dim"] == json.loads(out.read_text())["config"]["dimension"]
        assert params["dim_searched"] is True

    def test_fit_with_given_dimension(self, fitted):
        params = json.loads((fitted.parent / "ens.json.manifest.json").read_text())["parameters"]
        assert set(params) == self.FIT
        assert params["dim"] == 1 and params["dim_searched"] is False

    def test_query(self, fitted, capsys):
        assert main(["query", str(fitted), "friend", "Joe", "Bob"]) == 0
        params = json.loads(capsys.readouterr().err)["parameters"]
        assert set(params) == {"ensemble", "relation", "subject", "object", "kb", "delta"}

    def test_report(self, fitted, kb_file, capsys):
        assert main(["report", str(fitted), str(kb_file)]) == 0
        params = json.loads(capsys.readouterr().err)["parameters"]
        assert set(params) == {"ensemble", "kb", "self_pairs", "delta"}

    def test_aggregate(self, fitted, tmp_path, capsys):
        out = tmp_path / "agg.json"
        assert main(["aggregate", str(fitted), "-o", str(out)]) == 0
        params = json.loads((tmp_path / "agg.json.manifest.json").read_text())["parameters"]
        assert set(params) == {"ensemble", "out", "dedup_tol", "max_diameter", "clouds_tsv"}


class TestEnsembleFileChecks:
    def _query_mutant(self, fitted, tmp_path, capsys, mutate):
        doc = json.loads(fitted.read_text())
        mutate(doc)
        return self._query_text(tmp_path, capsys, json.dumps(doc))

    def _query_text(self, tmp_path, capsys, text):
        path = tmp_path / "mutant.json"
        path.write_text(text, encoding="utf-8")
        code = main(["query", str(path), "friend", "Joe", "Bob"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "mutant.json" in captured.err
        return captured.err

    def test_member_missing_an_entity(self, fitted, tmp_path, capsys):
        err = self._query_mutant(
            fitted, tmp_path, capsys, lambda d: d["members"][1]["entities"].pop("Bob")
        )
        assert "vocabulary" in err

    def test_member_with_other_tau_pos(self, fitted, tmp_path, capsys):
        def retune(doc):
            doc["members"][2]["config"]["tau_pos"] = 0.1

        assert "config" in self._query_mutant(fitted, tmp_path, capsys, retune)

    def test_report_count_differs_from_member_count(self, fitted, tmp_path, capsys):
        def cut(doc):
            doc["reports"] = doc["reports"][:1]

        assert "reports" in self._query_mutant(fitted, tmp_path, capsys, cut)

    def test_top_level_config_differs_from_members(self, fitted, tmp_path, capsys):
        def reconfigure(doc):
            doc["config"].update(dimension=9, tau_pos=0.05)

        assert "top-level config" in self._query_mutant(fitted, tmp_path, capsys, reconfigure)

    def test_member_of_another_dimension(self, fitted, tmp_path, capsys):
        def widen(doc):
            member = doc["members"][1]
            member["dimension"] = 2
            for block in ("entities", "relations"):
                member[block] = {t: row * 2 for t, row in member[block].items()}

        assert "members disagree on embedding config" in self._query_mutant(
            fitted, tmp_path, capsys, widen
        )

    def test_report_seed_differs_from_member_seed(self, fitted, tmp_path, capsys):
        def reseed(doc):
            doc["reports"][1]["seed"] = 999

        assert "seed 999" in self._query_mutant(fitted, tmp_path, capsys, reseed)

    def test_report_not_converged(self, fitted, tmp_path, capsys):
        def unconverge(doc):
            doc["reports"][2]["converged"] = False

        assert "non-converged" in self._query_mutant(fitted, tmp_path, capsys, unconverge)

    def test_missing_digest_is_named(self, fitted, tmp_path, capsys):
        err = self._query_mutant(fitted, tmp_path, capsys, lambda d: d.pop("kb_digest"))
        assert "missing field 'kb_digest'" in err

    def test_file_without_optimizer_id_is_named(self, fitted, tmp_path, capsys):
        # Files fitted before the preconditioned descent carry no optimizer id.
        def unrecord(doc):
            for r in doc["reports"]:
                del r["optimizer_id"]

        err = self._query_mutant(fitted, tmp_path, capsys, unrecord)
        assert "missing field 'optimizer_id'" in err

    def test_member_without_entities_is_named(self, fitted, tmp_path, capsys):
        def drop_entities(doc):
            del doc["members"][1]["entities"]

        err = self._query_mutant(fitted, tmp_path, capsys, drop_entities)
        assert "missing field 'entities'" in err

    @pytest.mark.parametrize("block, field", [
        ("members", "dimension"), ("members", "seed"), ("reports", "epochs_used"),
    ])
    def test_overflowing_integer_field(self, fitted, tmp_path, capsys, block, field):
        doc = json.loads(fitted.read_text())
        doc[block][0][field] = "BIG"
        text = json.dumps(doc).replace('"BIG"', "1e999")
        assert "cannot convert float infinity to integer" in self._query_text(tmp_path, capsys, text)

    @pytest.mark.parametrize("block, field, value", [
        ("members", "dimension", 1.9), ("members", "dimension", True), ("members", "seed", "7"),
        ("reports", "converged", "false"), ("reports", "converged", 1),
        ("reports", "epochs_used", 2.5), ("reports", "seed", None),
        ("reports", "final_error", "0"), ("reports", "rng_algorithm_id", None),
        ("reports", "optimizer_id", 1),
    ])
    def test_scalar_field_of_wrong_type(self, fitted, tmp_path, capsys, block, field, value):
        def retype(doc):
            doc[block][0][field] = value

        err = self._query_mutant(fitted, tmp_path, capsys, retype)
        assert f"field {field!r} must be" in err

    def test_config_field_of_wrong_type(self, fitted, tmp_path, capsys):
        def retype(doc):
            doc["members"][0]["config"]["tau_pos"] = True

        assert "field 'tau_pos' must be a number" in self._query_mutant(
            fitted, tmp_path, capsys, retype
        )

    @pytest.mark.parametrize("coordinate", ["0.5", True, None])
    def test_coordinates_that_are_not_numbers(self, fitted, tmp_path, capsys, coordinate):
        def retype(doc):
            points = doc["members"][1]["entities"]
            points.update({t: [coordinate] for t in points})

        assert "coordinates must be numbers" in self._query_mutant(
            fitted, tmp_path, capsys, retype
        )

    @pytest.mark.parametrize("row", [0.3, [[0.3]]])
    def test_coordinate_rows_of_the_wrong_shape(self, fitted, tmp_path, capsys, row):
        def reshape(doc):
            points = doc["members"][1]["entities"]
            points.update({t: row for t in points})

        assert "coordinate rows must be lists of 1 number(s)" in self._query_mutant(
            fitted, tmp_path, capsys, reshape
        )

    def test_integral_numbers_load_with_the_same_answer(self, fitted, tmp_path, capsys):
        doc = json.loads(fitted.read_text())
        doc["members"][0]["dimension"] = 1.0
        doc["members"][0]["config"]["gamma"] = 1
        path = tmp_path / "retyped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["query", str(path), "friend", "Joe", "Bob"]) == 0
        assert capsys.readouterr().out == "TRUE\t1.000000\n"

    @pytest.mark.parametrize("member", [0, 5])
    def test_float_dimension_loads_like_the_integer(self, fitted, tmp_path, capsys, member):
        doc = json.loads(fitted.read_text())
        doc["members"][member]["dimension"] = 1.0
        path = tmp_path / "retyped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert Ensemble.from_json(path.read_text()).to_json() == fitted.read_text()
        for query in README_QUERIES:
            answers = []
            for ens in (fitted, path):
                assert main(["query", str(ens), *query]) == 0
                answers.append(capsys.readouterr().out)
            assert answers[0] == answers[1], query

    # A later member's settings are built only when they differ from member
    # 0's as JSON; true is == 1 but is still rejected, before any comparison.
    @pytest.mark.parametrize("field, value, message", [
        ("dimension", True, "field 'dimension' must be an integer, not True"),
        ("tau_pos", True, "field 'tau_pos' must be a number, not True"),
        ("gamma", 3.0, "members disagree on embedding config"),
    ])
    def test_later_member_settings(self, fitted, tmp_path, capsys, field, value, message):
        def retype(doc):
            member = doc["members"][5]
            (member if field == "dimension" else member["config"])[field] = value

        err = self._query_mutant(fitted, tmp_path, capsys, retype)
        assert err == f"kbens query: invalid ensemble file {str(tmp_path / 'mutant.json')!r}: {message}\n"

    def test_no_members(self, fitted, tmp_path, capsys):
        def empty(doc):
            doc["members"] = []

        err = self._query_mutant(fitted, tmp_path, capsys, empty)
        assert err == (
            f"kbens query: invalid ensemble file {str(tmp_path / 'mutant.json')!r}:"
            " an ensemble needs at least one member\n"
        )

    def test_numeric_digest(self, fitted, tmp_path, capsys):
        def retype(doc):
            doc["kb_digest"] = 5

        err = self._query_mutant(fitted, tmp_path, capsys, retype)
        assert "field 'kb_digest' must be a string, not 5" in err

    @pytest.mark.parametrize("coordinate", [True, False])
    def test_one_boolean_among_numbers(self, fitted, tmp_path, capsys, coordinate):
        def retype(doc):
            doc["members"][1]["entities"]["Bob"] = [coordinate]

        assert "coordinates must be numbers" in self._query_mutant(
            fitted, tmp_path, capsys, retype
        )

    def test_deeply_nested_file(self, tmp_path, capsys):
        err = self._query_text(tmp_path, capsys, "[" * 100_000 + "]" * 100_000)
        assert "recursion" in err

    def test_report_with_nan_error(self, fitted, tmp_path, capsys):
        def nan_error(doc):
            doc["reports"][0]["final_error"] = float("nan")

        assert "final error nan" in self._query_mutant(fitted, tmp_path, capsys, nan_error)

    def test_report_error_above_eps_fit(self, fitted, tmp_path, capsys):
        def large_error(doc):
            doc["reports"][3]["final_error"] = 2 * doc["config"]["eps_fit"]

        err = self._query_mutant(fitted, tmp_path, capsys, large_error)
        assert "report 3 has final error" in err

    @pytest.mark.parametrize("field, value, message", [
        ("final_error", -5.0, "report 2 has final error -5.0 outside [0, eps_fit]"),
        ("epochs_used", -3, "report 2 has a negative epochs_used -3"),
    ])
    def test_report_value_a_fit_never_writes(self, fitted, tmp_path, capsys, field, value, message):
        def edit(doc):
            doc["reports"][2][field] = value

        assert self._query_mutant(fitted, tmp_path, capsys, edit).endswith(f": {message}\n")

    def test_copies_of_one_member_exit_1_on_every_command(self, fitted, kb_file, tmp_path, capsys):
        # Copies of one member would answer every query unanimously.
        doc = json.loads(fitted.read_text())
        doc["members"] = [doc["members"][0]] * len(doc["members"])
        doc["reports"] = [doc["reports"][0]] * len(doc["reports"])
        path = tmp_path / "copies.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "agg.json"
        for argv in (
            ["query", str(path), "friend", "Mary", "Alice"],
            ["report", str(path), str(kb_file)],
            ["aggregate", str(path), "-o", str(out)],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == (
                f"kbens {argv[0]}: invalid ensemble file {str(path)!r}:"
                f" member seed={doc['members'][0]['seed']} repeats the seed of an earlier member\n"
            )

    @pytest.mark.parametrize("block", ["entities", "relations"])
    def test_block_that_is_an_array_exits_1_on_every_command(
        self, fitted, kb_file, tmp_path, capsys, block
    ):
        doc = json.loads(fitted.read_text())
        doc["members"][1][block] = [1, 2]
        path = tmp_path / "array.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "agg.json"
        for argv in (
            ["query", str(path), "friend", "Mary", "Alice"],
            ["report", str(path), str(kb_file)],
            ["aggregate", str(path), "-o", str(out)],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == (
                f"kbens {argv[0]}: invalid ensemble file {str(path)!r}:"
                f" field {block!r} must be an object, not [1, 2]\n"
            )

    def test_reordered_members_give_the_same_answers(self, fitted, tmp_path, capsys):
        doc = json.loads(fitted.read_text())
        order = [3, 0, 7, 5, 1, 6, 2, 4]
        doc["members"] = [doc["members"][i] for i in order]
        doc["reports"] = [doc["reports"][i] for i in order]
        path = tmp_path / "reordered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for query in README_QUERIES:
            answers = []
            for ensemble in (fitted, path):
                assert main(["query", str(ensemble), *query]) == 0
                answers.append(capsys.readouterr().out)
            assert answers[0] == answers[1], query


def json_paths(node, prefix=()):
    """Every path to a value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


MUTANT_VALUES = st.sampled_from([
    None, True, False, 2**70, float("nan"), float("inf"), float("-inf"),
    "x", [], [0.5], [0, 1], {}, {"a": 1},
])


@st.composite
def ensemble_mutants(draw, doc):
    """``doc`` with one key deleted, one key added, one field replaced, one
    member copied with its report over another, or the members and reports
    reordered alike."""
    doc = copy.deepcopy(doc)
    paths = list(json_paths(doc))
    kind = draw(st.sampled_from(["delete", "add", "set", "duplicate", "reorder"]))
    order = draw(st.permutations(range(len(doc["members"]))))
    if kind == "duplicate":
        source, target = order[:2]
        for block in ("members", "reports"):
            doc[block][target] = copy.deepcopy(doc[block][source])
    elif kind == "reorder":
        for block in ("members", "reports"):
            doc[block] = [doc[block][i] for i in order]
    elif kind == "add":
        path = draw(st.sampled_from([()] + [p for p in paths if isinstance(at(doc, p), dict)]))
        at(doc, path)[draw(st.text("abZ_", min_size=1, max_size=3))] = draw(MUTANT_VALUES)
    elif kind == "delete":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        at(doc, path[:-1])[path[-1]] = draw(MUTANT_VALUES)
    return doc


@pytest.fixture(scope="module")
def friend_ensemble(tmp_path_factory):
    work = tmp_path_factory.mktemp("mutants")
    kb = work / "friends.kb"
    kb.write_text(FRIEND_KB_TEXT, encoding="utf-8")
    ens = work / "ens.json"
    fit = ["fit", str(kb), "-o", str(ens), "--seed", "7", "--members", "4", "--dim", "2"]
    assert main(fit) == 0
    return work, kb, json.loads(ens.read_text())


class TestEnsembleFileMutants:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_0_or_one_line_exit_1(self, friend_ensemble, data):
        work, kb, doc = friend_ensemble
        mutant = work / "mutant.json"
        mutant.write_text(json.dumps(data.draw(ensemble_mutants(doc))), encoding="utf-8")
        for argv in (
            ["query", str(mutant), "friend", "Joe", "Bob"],
            ["report", str(mutant), str(kb)],
            ["aggregate", str(mutant), "-o", str(work / "agg.json")],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code == 0 or (
                code == 1 and out.getvalue() == "" and err.getvalue().count("\n") == 1
            ), (argv[0], code, err.getvalue())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_building_rejects_what_loading_rejects(self, friend_ensemble, data):
        # A mutant's members and reports, as the loader reads them, passed
        # to Ensemble(...); and so are 32 copies of one member.
        _, _, doc = friend_ensemble
        copies = {**doc, "members": doc["members"][:1] * 32, "reports": doc["reports"][:1] * 32}
        load_errors = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
        for mutant in (data.draw(ensemble_mutants(doc)), copies):
            try:
                Ensemble.from_doc(mutant)
                loaded = None
            except load_errors as exc:
                loaded = exc
            with mock.patch.object(Ensemble, "validate"):
                try:
                    parts = Ensemble.from_doc(mutant)
                except load_errors:
                    continue  # a field the loader itself rejects
            if loaded is None:
                Ensemble(parts.members, parts.kb_digest, parts.reports)
                continue
            with pytest.raises(ValueError) as built:
                Ensemble(parts.members, parts.kb_digest, parts.reports)
            assert str(built.value) == str(loaded)
        assert "repeats the seed" in str(built.value)  # the copies, built last


class TestNonFiniteSettings:
    @pytest.mark.parametrize("flag, value, field", [
        ("--init-scale", "1e308", "init_scale"),
        ("--init-scale", "inf", "init_scale"),
        ("--lr", "inf", "learning_rate"),
        ("--gamma", "inf", "gamma"),
        ("--fit-tol", "inf", "eps_fit"),
    ])
    def test_exits_1_in_one_line(self, tmp_path, kb_file, capsys, flag, value, field):
        out = tmp_path / "ens.json"
        code = main(["fit", str(kb_file), "-o", str(out), "--seed", "7", "--members", "2",
                     flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"kbens fit: {field} must be")

class TestOutOfRangeSettings:
    @pytest.mark.parametrize("argv, message", [
        (["query", "{ens}", "friend", "Joe", "Bob", "--delta", "0.5"],
         "kbens query: quorum slack must lie in [0, 0.5): 0.5"),
        (["query", "{ens}", "friend", "Joe", "Bob", "--delta", "-0.1"],
         "kbens query: quorum slack must lie in [0, 0.5): -0.1"),
        (["query", "{ens}", "friend", "Joe", "Bob", "--delta", "nan"],
         "kbens query: quorum slack must lie in [0, 0.5): nan"),
        (["report", "{ens}", "{kb}", "--delta", "0.7"],
         "kbens report: quorum slack must lie in [0, 0.5): 0.7"),
        (["fit", "{kb}", "-o", "{out}", "--seed", "7", "--max-epochs", "0"],
         "kbens fit: max_epochs must be a positive integer: 0"),
        (["fit", "{kb}", "-o", "{out}", "--seed", "7", "--retry-budget", "-1"],
         "kbens fit: retry_budget must be non-negative: -1"),
        (["fit", "{kb}", "-o", "{out}", "--seed", "7", "--jobs", "0"],
         "kbens fit: --jobs must be at least 1"),
    ])
    def test_exits_1_in_one_line(self, fitted, kb_file, tmp_path, capsys, argv, message):
        out = tmp_path / "new.json"
        paths = {"ens": str(fitted), "kb": str(kb_file), "out": str(out)}
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and not out.exists()
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("delta", ["0.7", "nan"])
    def test_report_without_rows_checks_slack(self, tmp_path, capsys, delta):
        # An ensemble of the empty store has no report rows to vote on.
        empty = tmp_path / "empty.kb"
        empty.write_text("", encoding="utf-8")
        ens = tmp_path / "e.json"
        assert main(["fit", str(empty), "-o", str(ens), "--seed", "3", "--members", "2"]) == 0
        capsys.readouterr()
        code = main(["report", str(ens), str(empty), "--delta", delta])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"kbens report: quorum slack must lie in [0, 0.5): {float(delta)!r}\n"
        )


class TestFileThatIsNotUtf8:
    @pytest.mark.parametrize("argv", [
        ["query", "{bad}", "friend", "Joe", "Bob"],
        ["query", "{ens}", "friend", "Joe", "Bob", "--kb", "{bad}"],
        ["report", "{bad}", "{kb}"],
        ["report", "{ens}", "{bad}"],
    ])
    def test_exits_1_naming_the_file(self, fitted, kb_file, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"\xff\xfe")
        paths = {"bad": str(bad), "ens": str(fitted), "kb": str(kb_file)}
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"kbens {argv[0]}: cannot read {str(bad)!r}: 'utf-8' codec can't decode"
            " byte 0xff in position 0: invalid start byte\n"
        )


class TestUnwritableOutput:
    FIT = ["fit", "{kb}", "--seed", "7", "--members", "2", "--dim", "1", "-o"]
    AGGREGATE = ["aggregate", "{ens}", "-o"]

    @pytest.mark.parametrize("argv, target, error", [
        (FIT + ["{dir}"], "{dir}", errno.EISDIR),
        (FIT + ["{missing}"], "{missing}", errno.ENOENT),
        (FIT + ["{out}"], "{out}.manifest.json", errno.EISDIR),
        (AGGREGATE + ["{dir}"], "{dir}", errno.EISDIR),
        (AGGREGATE + ["{out}", "--clouds-tsv", "{dir}"], "{dir}", errno.EISDIR),
        (AGGREGATE + ["{out}"], "{out}.manifest.json", errno.EISDIR),
    ])
    def test_exits_1_naming_the_file(self, fitted, kb_file, tmp_path, capsys, argv, target,
                                     error):
        paths = {"kb": str(kb_file), "ens": str(fitted), "dir": str(tmp_path / "dir"),
                 "missing": str(tmp_path / "missing" / "x.json"), "out": str(tmp_path / "out")}
        (tmp_path / "dir").mkdir()
        (tmp_path / "out.manifest.json").mkdir()
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""  # nothing is printed before every write has succeeded
        assert captured.err == (
            f"kbens {argv[0]}: cannot write {target.format(**paths)!r}: {os.strerror(error)}\n"
        )


class TestClosedStdout:
    @staticmethod
    def _run(argv, stdout, close_stdout=False, unbuffered=False):
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen(
            [sys.executable, "-m", "kbens.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": os.pathsep.join(path)},
        )
        if close_stdout:
            child.stdout.close()  # long before the child has imported kbens
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait() == 1
        assert "Traceback" not in err
        return err.splitlines()

    @pytest.mark.parametrize("command", ["query", "fit"])
    def test_exits_1_in_one_line(self, fitted, kb_file, tmp_path, command):
        argv = {
            "query": ["query", str(fitted), "friend", "Joe", "Bob"],
            "fit": ["fit", str(kb_file), "-o", str(tmp_path / "e.json"), "--seed", "7",
                    "--members", "2", "--dim", "1"],
        }[command]
        lines = self._run(argv, subprocess.PIPE, close_stdout=True)
        if command == "query":  # the manifest goes to stderr before stdout is written
            assert json.loads(lines.pop(0))["command"] == "query"
        assert lines == [f"kbens {command}: cannot write to stdout: {os.strerror(errno.EPIPE)}"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    def test_full_device_exits_1_in_one_line(self, fitted, kb_file):
        with open("/dev/full", "w") as full:
            lines = self._run(["report", str(fitted), str(kb_file)], full)
        assert json.loads(lines[0])["command"] == "report"
        assert lines[1:] == [f"kbens report: cannot write to stdout: {os.strerror(errno.ENOSPC)}"]

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [(["--version"], False), (["--version"], True), (["fit", "--help"], False),
         (["--help"], True), (["fit", "--help"], True)],
    )
    def test_help_and_version_exit_1_in_one_line(self, argv, unbuffered):
        lines = self._run(argv, subprocess.PIPE, close_stdout=True, unbuffered=unbuffered)
        assert lines == [f"kbens: cannot write to stdout: {os.strerror(errno.EPIPE)}"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    def test_version_on_full_device_exits_1_in_one_line(self):
        with open("/dev/full", "w") as full:
            lines = self._run(["--version"], full)
        assert lines == [f"kbens: cannot write to stdout: {os.strerror(errno.ENOSPC)}"]


class TestByteOrderMark:
    def test_store_fits_like_its_plain_copy(self, tmp_path, kb_file, capsys):
        bom = tmp_path / "bom.kb"
        bom.write_bytes(BOM + kb_file.read_bytes())
        outs = []
        for store in (kb_file, bom):
            out = tmp_path / f"{store.stem}.json"
            assert main(["fit", str(store), "-o", str(out), "--seed", "7", "--members", "4"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()
        assert main(["query", str(tmp_path / "friends.json"), "friend", "Joe", "Bob",
                     "--kb", str(bom)]) == 0
        assert capsys.readouterr().out == "TRUE\t1.000000\n"

    def test_ensemble_file_loads(self, fitted, tmp_path, capsys):
        bom = tmp_path / "bom.json"
        bom.write_bytes(BOM + fitted.read_bytes())
        answers = []
        for ensemble in (fitted, bom):
            assert main(["query", str(ensemble), "friend", "Mary", "Alice"]) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1]


class TestAggregateBounds:
    @pytest.mark.parametrize("flag, value", [
        ("--max-diameter", "nan"), ("--dedup-tol", "nan"),
        ("--dedup-tol", "-0.001"), ("--max-diameter", "-0.5"),
    ])
    def test_exits_1_in_one_line(self, fitted, tmp_path, capsys, flag, value):
        # The message is build_aggregate's own.
        bound = {"--dedup-tol": "dedup tolerance", "--max-diameter": "max cloud diameter"}[flag]
        out = tmp_path / "agg.json"
        code = main(["aggregate", str(fitted), "-o", str(out), flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"kbens aggregate: {bound} must be a non-negative number: {float(value)!r}\n"
        )


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["fit", "friends.kb", "-o", "ens.json"], "the following arguments are required: --seed"),
        (["fit", "friends.kb", "-o", "ens.json", "--seed", "7", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["fit", "friends.kb", "-o", "ens.json", "--seed", "7", "--members", "abc"],
         "argument --members: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["query", "ens.json", "friend", "Joe"], "the following arguments are required: object"),
        (["report", "ens.json"], "the following arguments are required: kb"),
        (["aggregate"], "the following arguments are required: ensemble, -o/--out"),
        (["query", "ens.json", "friend", "Joe", "Bob", "--bogus"], "unrecognized arguments: --bogus"),
        (["report", "ens.json", "friends.kb", "--members", "8"], "unrecognized arguments: --members 8"),
        (["aggregate", "ens.json", "-o", "agg.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["query", "ens.json", "friend", "Joe", "Bob", "--delta", "x"],
         "argument --delta: invalid float value: 'x'"),
        (["report", "ens.json", "friends.kb", "--delta", "x"], "argument --delta: invalid float value: 'x'"),
        (["aggregate", "ens.json", "-o", "agg.json", "--dedup-tol", "x"],
         "argument --dedup-tol: invalid float value: 'x'"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from {choices})"),
    ])
    def test_exits_1_with_usage_and_one_error_line(self, capsys, argv, message):
        # argparse's own exit code 2 would read as a computational failure.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: kbens")
        assert all(line.startswith(" ") for line in lines[1:-1])
        # A command's parser reports its own errors; the root reports words left over.
        own = argv and argv[0] in COMMAND_OPTIONS and not message.startswith("unrecognized")
        prog = f"kbens {argv[0]}" if own else "kbens"
        assert lines[0].startswith(f"usage: {prog} ")
        # Some Python releases list the choices with repr(), later ones with str().
        assert lines[-1] in {f"{prog}: error: {message}".format(choices=", ".join(listed))
                             for listed in (map(repr, COMMAND_OPTIONS), COMMAND_OPTIONS)}


class TestVersion:
    def test_version_mentions_rng(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "kbens" in out and "rng" in out

    def test_version_names_the_optimizer_on_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "40")
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith(f"; optimizer: {OPTIMIZER_ID})\n")


# Each command's positional arguments and options, in the order its help lists them.
COMMAND_OPTIONS = {
    "fit": (["kb"], ["-h", "--help", "-o", "--out", "--seed", "--members", "--dim", "--tau", "--gamma",
                     "--fit-tol", "--lr", "--init-scale", "--max-epochs", "--retry-budget", "--jobs"]),
    "query": (["ensemble", "relation", "subject", "object"], ["-h", "--help", "--kb", "--delta"]),
    "report": (["ensemble", "kb"], ["-h", "--help", "--self-pairs", "--delta"]),
    "aggregate": (["ensemble"], ["-h", "--help", "-o", "--out", "--dedup-tol", "--max-diameter",
                                 "--clouds-tsv"]),
}


def help_sections(argv, monkeypatch, capsys) -> dict[str, list[str]]:
    """The entry lines of each section of ``kbens <argv>``'s help, by title."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    sections = {}
    for block in capsys.readouterr().out.split("\n\n"):
        title, *entries = block.splitlines()
        sections[title] = [line for line in entries if re.match(r"  \S", line)]
    return sections


class TestHelp:
    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_lists_exactly_the_commands_arguments(self, capsys, monkeypatch, command):
        positionals, options = COMMAND_OPTIONS[command]
        sections = help_sections([command, "--help"], monkeypatch, capsys)
        assert [line.split()[0] for line in sections["positional arguments:"]] == positionals
        invocations = [line.split("  ")[1] for line in sections["options:"]]
        assert [flag for i in invocations for flag in re.findall(r"--?[a-z][\w-]*", i)] == options
        # The help option leads, in the root parser's words (the padding
        # follows each parser's widest option).
        root = help_sections(["--help"], monkeypatch, capsys)["options:"]
        assert sections["options:"][0].split() == root[0].split()
        assert root[0].split()[:2] == ["-h,", "--help"]

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
    def test_wraps_to_columns(self, capsys, monkeypatch, argv):
        # argparse wraps help two columns short of the terminal width, which
        # every parser build reads again.
        widest = {}
        for columns in (50, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            widest[columns] = max(map(len, capsys.readouterr().out.splitlines()))
        assert widest[50] <= 48
        assert widest[200] > 50


class TestLazyArguments:
    def test_abbreviated_option_parses(self):
        args = cli.build_parser().parse_args(["query", "ens.json", "friend", "Joe", "Bob", "--del", "0.1"])
        assert args.delta == 0.1

    def test_only_the_invoked_command_adds_its_arguments(self, fitted, kb_file, tmp_path,
                                                         capsys, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def spy(parser, *names, **kwargs):
            added.append((parser.prog, names))
            return add_argument(parser, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        for argv in (
            ["query", str(fitted), "friend", "Joe", "Bob"],
            ["report", str(fitted), str(kb_file)],
            ["aggregate", str(fitted), "-o", str(tmp_path / "agg.json")],
        ):
            assert main(argv) == 0
            assert added and not any("--max-epochs" in names for _, names in added), argv
            assert {prog for prog, _ in added} == {"kbens", f"kbens {argv[0]}"}
            added.clear()
        # The spy sees a fit add its options.
        assert main(["fit", str(kb_file), "-o", str(tmp_path / "e.json"), "--seed", "7",
                     "--members", "1", "--dim", "1"]) == 0
        assert ("kbens fit", ("--max-epochs",)) in added

    def test_only_the_invoked_command_builds_a_parser(self, fitted, kb_file, tmp_path,
                                                      capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for argv in (
            ["fit", str(kb_file), "-o", str(tmp_path / "e.json"), "--seed", "7",
             "--members", "1", "--dim", "1"],
            ["query", str(fitted), "friend", "Joe", "Bob"],
            ["report", str(fitted), str(kb_file)],
            ["aggregate", str(fitted), "-o", str(tmp_path / "agg.json")],
        ):
            assert main(argv) == 0
            assert built == ["kbens", f"kbens {argv[0]}"], argv
            built.clear()
        # Help and an unknown command end in the root parser: no command's is built.
        for argv in (["--help"], ["bogus"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert built == ["kbens"], argv
            built.clear()

    def test_parser_parses_twice(self):
        parser = cli.build_parser()
        argv = ["report", "ens.json", "friends.kb", "--delta", "0.2"]
        assert vars(parser.parse_args(argv)) == vars(parser.parse_args(argv))


def test_import_loads_no_process_machinery():
    # Every member is fitted in this process, so no kbens process needs them.
    probe = ("import sys, kbens, kbens.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
