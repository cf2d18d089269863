"""Exit codes, output formats, manifests, and byte-level determinism of the
command-line surface."""

import json

import pytest

from kbens.cli import main

from conftest import FRIEND_KB_TEXT


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

    def test_duplicated_member_file_exits_2(self, fitted, tmp_path, capsys):
        doc = json.loads(fitted.read_text())
        doc["members"] = [doc["members"][0], doc["members"][0]]
        doc["reports"] = [doc["reports"][0], doc["reports"][0]]
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["aggregate", str(dup), "-o", str(tmp_path / "agg.json")]) == 2


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
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
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

    def test_report_seed_differs_from_member_seed(self, fitted, tmp_path, capsys):
        def reseed(doc):
            doc["reports"][1]["seed"] = 999

        assert "seed 999" in self._query_mutant(fitted, tmp_path, capsys, reseed)

    def test_report_not_converged(self, fitted, tmp_path, capsys):
        def unconverge(doc):
            doc["reports"][2]["converged"] = False

        assert "non-converged" in self._query_mutant(fitted, tmp_path, capsys, unconverge)


class TestVersion:
    def test_version_mentions_rng(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "kbens" in out and "rng" in out
