"""Self-test of ``tools/equivalence.py``: its lines are the same on every run
of one tree, a ``--jobs 2`` fit gives the lines of its ``--jobs 1`` fit, and
the library lines name one oracle answer per dimension, one search per seed
and one member per dimension and seed, and the random stores one member per
seed; the usage block is the same on every run and sets the terminal width
around its own runs only."""

import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_friends_subset_is_reproducible():
    tool = load_tool()
    cases = [c for c in tool.CASES if c.name.startswith("friends/seed7/")]
    assert [c.name for c in cases] == ["friends/seed7/jobs1", "friends/seed7/jobs2"]
    first, second = tool.lines(cases), tool.lines(cases)
    assert first == second
    names = [line.split("\t")[0] for line in first]
    assert len(set(names)) == len(names)
    assert all(line.count("\t") == 1 for line in first)
    # Every artifact of a fit and of the commands on it is present.
    assert "friends/seed7/jobs1/fit/ensemble.json" in names
    assert "friends/seed7/jobs1/aggregate/clouds.tsv" in names
    assert "friends/seed7/jobs1/aggregate-max-diameter1.0/clouds.tsv" in names
    # A loaded ensemble writes the bytes of the file it was read from.
    hashes = dict(line.split("\t") for line in first)
    for jobs in ("jobs1", "jobs2"):
        fit = f"friends/seed7/{jobs}/fit"
        assert hashes[f"{fit}/round-trip"] == hashes[f"{fit}/ensemble.json"]
    assert not any(line.endswith("\tabsent") for line in first)
    jobs1 = sorted(line for line in first if "/jobs1/" in line)
    jobs2 = sorted(line.replace("/jobs2/", "/jobs1/") for line in first if "/jobs2/" in line)
    assert jobs1 == jobs2


def test_library_subset_is_reproducible():
    tool = load_tool()

    def subset():
        kb = tool.read_store("friends.kb")
        return [
            *tool.oracle_lines("unsat.kb"),
            *tool.search_lines("friends.kb", kb, seeds=(0,)),
            *tool.member_lines("friends.kb", kb, seeds=(0, 1)),
        ]

    first = subset()
    assert first == subset()
    assert [line.split("\t")[0] for line in first] == [
        "oracle/unsat/dim1", "oracle/unsat/dim2", "min_dimension_search/friends/seed0",
        "train_members/friends/dim1/seed0", "train_members/friends/dim1/seed1",
        "train_members/friends/dim2/seed0", "train_members/friends/dim2/seed1",
    ]
    assert all(len(line.split("\t")[1]) == 64 for line in first)


def test_usage_block_is_reproducible(monkeypatch):
    tool = load_tool()
    monkeypatch.setenv("COLUMNS", "123")
    first = tool.usage_lines()
    assert first == tool.usage_lines()
    assert os.environ["COLUMNS"] == "123"  # set around the block only
    names = [line.split("\t")[0] for line in first]
    assert len(set(names)) == len(names) == 3 * len(tool.USAGE_ARGVS) * len(tool.USAGE_COLUMNS)
    assert all(name.startswith("usage/") for name in names)
    # Help is wrapped to each width, and every case runs at both.
    hashes = dict(line.split("\t") for line in first)
    assert hashes["usage/columns80/--help/stdout"] != hashes["usage/columns50/--help/stdout"]
    cases = {c: [n.split("/", 2)[2] for n in names if n.startswith(f"usage/columns{c}/")]
             for c in tool.USAGE_COLUMNS}
    assert cases["80"] == cases["50"]


def test_random_stores_are_reproducible():
    tool = load_tool()
    stores = sorted(tool.RANDOM_STORES.glob("r*.kb"))
    assert [p.stem for p in stores] == [f"r{i:02d}" for i in range(64)]
    # One store per rate, and start scales from 1 to 1e200.
    picked = [stores[i] for i in (0, 6, 12, 18, 24)]
    first = list(tool.random_lines(picked))
    assert first == list(tool.random_lines(picked))
    assert [line.split("\t")[0] for line in first] == [
        f"train_members/random/r{i:02d}/seed{seed}"
        for i in (0, 6, 12, 18, 24) for seed in range(3 * i, 3 * i + 3)
    ]
    assert all(len(line.split("\t")[1]) == 64 for line in first)
