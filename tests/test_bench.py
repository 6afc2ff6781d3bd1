"""Tests for the benchmark subsystem: workloads, harness, report, CLI."""

from __future__ import annotations

import copy
import inspect
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    WORKLOAD_FAMILIES,
    build_report,
    build_suite,
    dataset_workload,
    gnp_workload,
    lattice_workload,
    powerlaw_workload,
    render_table,
    run_suite,
    run_workload,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.diff import main as diff_main
from repro.core import ReverseKRanksEngine
from repro.core.validation import results_equivalent
from repro.errors import CrossValidationError, WorkloadError


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def test_all_families_have_generators():
    assert set(WORKLOAD_FAMILIES) == {
        "path",
        "grid",
        "gnp",
        "powerlaw",
        "bichromatic",
        "lattice",
    }


def test_workloads_are_deterministic():
    first = gnp_workload(num_nodes=20, seed=9)
    second = gnp_workload(num_nodes=20, seed=9)
    assert first.graph.structurally_equal(second.graph)
    assert first.queries == second.queries
    other_seed = gnp_workload(num_nodes=20, seed=10)
    assert not first.graph.structurally_equal(other_seed.graph)


def test_smoke_suite_covers_every_family():
    suite = build_suite(scale="smoke")
    assert [workload.family for workload in suite] == list(WORKLOAD_FAMILIES)
    for workload in suite:
        assert workload.num_nodes <= 32
        assert workload.queries
        assert all(workload.graph.has_node(query) for query in workload.queries)
        assert 1 <= workload.k < workload.num_nodes


def test_powerlaw_is_hub_heavy():
    workload = powerlaw_workload(num_nodes=60, attach=2, seed=3)
    degrees = sorted(
        (workload.graph.degree(node) for node in workload.graph.nodes()),
        reverse=True,
    )
    # Preferential attachment concentrates degree in the head.
    assert degrees[0] >= 3 * degrees[len(degrees) // 2]


def test_bichromatic_workload_queries_are_facilities():
    workload = build_suite(families=["bichromatic"], scale="smoke")[0]
    assert workload.partition is not None
    assert all(workload.partition.is_facility(query) for query in workload.queries)
    assert workload.k <= workload.partition.num_communities


def test_unknown_family_and_scale_rejected():
    with pytest.raises(WorkloadError):
        build_suite(families=["nope"])
    with pytest.raises(WorkloadError):
        build_suite(scale="gigantic")


def test_large_scale_defines_sampled_monochromatic_workloads():
    # Only the (cheap-to-generate) path family is materialised; the other
    # large presets are thousands of nodes and belong to the bench itself.
    (workload,) = build_suite(families=["path"], scale="large")
    assert workload.num_nodes >= 2000
    assert workload.naive_sample
    assert workload.index_params
    described = workload.describe()
    assert described["naive_sample"] == workload.naive_sample
    assert described["index_params"] == workload.index_params
    from repro.bench.workloads import _SCALES

    assert sorted(_SCALES["large"]) == ["gnp", "grid", "path", "powerlaw"]
    # Bichromatic has no large preset yet; asking for it explicitly fails.
    with pytest.raises(WorkloadError):
        build_suite(families=["bichromatic"], scale="large")


def test_lattice_workload_shape_and_determinism():
    first = lattice_workload(side=6, seed=3)
    second = lattice_workload(side=6, seed=3)
    assert first.graph.structurally_equal(second.graph)
    assert first.queries == second.queries
    assert first.num_nodes == 36
    assert first.family == "lattice"
    assert first.name == "lattice-6x6"
    # The diagonal shortcuts make it more than a pure grid.
    grid_edges = 2 * 6 * (6 - 1)
    assert first.graph.num_edges >= grid_edges
    with pytest.raises(WorkloadError):
        lattice_workload(side=1)
    with pytest.raises(WorkloadError):
        lattice_workload(side=4, diagonal_fraction=1.5)


def test_huge_scale_presets_use_auto_budgets():
    from repro.bench.workloads import _SCALES

    assert sorted(_SCALES["huge"]) == ["lattice"]
    preset = _SCALES["huge"]["lattice"]
    assert preset["side"] == 320  # n = 102,400 — the huge tier target
    assert preset["naive_sample"]
    assert preset["index_params"] == {"num_hubs": "auto", "explore_limit": "auto"}
    # Every large preset also defers to the budget policy now.
    for family, params in _SCALES["large"].items():
        assert params["index_params"]["num_hubs"] == "auto", family


def test_dataset_workload_reads_edge_list(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("# tiny dataset\n0 1 1.0\n1 2 2.0\n2 3 1.5\n3 0 1.0\n")
    workload = dataset_workload(path, num_queries=2, seed=1)
    assert workload.family == "dataset"
    assert workload.name == "dataset-tiny"
    assert workload.num_nodes == 4
    assert workload.params["path"] == str(path)
    # Small graphs keep the exhaustive naive baseline.
    assert workload.naive_sample is None
    result = run_workload(workload)
    assert result.algorithms["naive"].counters["rank_refinements"] == 3 * 2


def test_combined_scales_concatenate_suites():
    suite = build_suite(scale="smoke,default", families=["gnp"])
    assert [workload.name for workload in suite] == ["gnp-n30", "gnp-n120"]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = REPO_ROOT / "BENCH_core.json"
REGENERATE = "python -m repro.bench --scale default,large,huge"
ALGORITHMS = ("naive", "static", "dynamic", "indexed")


@pytest.fixture(scope="module")
def tiny_result():
    workload = gnp_workload(num_nodes=18, avg_degree=4.0, seed=2, num_queries=2, k=2)
    return run_workload(workload)


def test_harness_counts_all_four_algorithms(tiny_result):
    assert set(tiny_result.algorithms) == set(ALGORITHMS)
    for name, row in tiny_result.algorithms.items():
        assert row.skipped is None, name
        assert "elapsed_seconds" not in row.counters
        assert row.as_dict() == {"counters": row.counters}
    # Naive's counters are fixed by the workload: one refinement per
    # candidate and query, nothing else.
    naive = tiny_result.algorithms["naive"].counters
    assert naive["rank_refinements"] == (18 - 1) * 2
    assert all(
        value in (0, {}) for key, value in naive.items()
        if key != "rank_refinements"
    )
    dynamic = tiny_result.algorithms["dynamic"].counters
    assert dynamic["rank_refinements"] < naive["rank_refinements"]
    assert list(dynamic["bound_wins"]) == sorted(dynamic["bound_wins"])


def test_run_workload_takes_only_the_workload():
    assert list(inspect.signature(run_workload).parameters) == ["workload"]
    assert list(inspect.signature(run_suite).parameters) == [
        "workloads", "progress",
    ]


def test_indexed_row_counts_one_batch_on_a_fresh_index():
    # No warm-up: the row is the freshly built index plus what the one
    # batch learns, so a second batch on the same index does less work.
    workload = gnp_workload(num_nodes=40, avg_degree=4.0, seed=3, num_queries=4, k=3)
    row = run_workload(workload).algorithms["indexed"].counters
    engine = ReverseKRanksEngine(workload.graph)
    engine.build_index(capacity=16)
    engine.query_many(workload.queries, workload.k, algorithm="indexed")
    first = engine.last_batch_stats
    assert row["rank_refinements"] == first.rank_refinements
    assert row["answered_by_index"] == first.answered_by_index
    engine.query_many(workload.queries, workload.k, algorithm="indexed")
    assert engine.last_batch_stats.rank_refinements < first.rank_refinements


def test_harness_skips_indexed_on_bichromatic():
    workload = build_suite(families=["bichromatic"], scale="smoke")[0]
    result = run_workload(workload)
    assert result.algorithms["indexed"].skipped
    assert result.algorithms["indexed"].counters is None
    assert result.algorithms["dynamic"].counters["rank_refinements"] > 0


def test_harness_samples_naive_on_large_workloads():
    workload = gnp_workload(
        num_nodes=36, avg_degree=4.0, seed=5, num_queries=2, k=3,
        naive_sample=10, index_params={"num_hubs": 3, "explore_limit": 18},
    )
    result = run_workload(workload)
    # Naive is never run or extrapolated here; its fixed counters and the
    # sample size are named in the skip reason instead.
    naive = result.algorithms["naive"]
    assert naive.counters is None
    assert "(n-1)*|Q| = 70 rank refinements" in naive.skipped
    assert "10 sampled candidates" in naive.skipped
    # The optimised rows passed the sampled exact-rank and pairwise checks.
    for name in ("static", "dynamic", "indexed"):
        assert result.algorithms[name].counters["rank_refinements"] > 0, name
    payload = result.as_dict()
    assert payload["algorithms"]["naive"] == {"skipped": naive.skipped}
    assert payload["naive_sample"] == 10


def test_harness_rejects_wrong_answers(monkeypatch):
    from repro.bench import harness

    workload = gnp_workload(num_nodes=30, avg_degree=4.0, seed=5, num_queries=2, k=3)
    monkeypatch.setattr(
        harness, "results_equivalent", lambda expected, actual: False
    )
    with pytest.raises(CrossValidationError, match="disagrees with naive"):
        run_workload(workload)
    monkeypatch.undo()

    sampled = gnp_workload(
        num_nodes=30, avg_degree=4.0, seed=5, num_queries=2, k=3, naive_sample=29
    )
    real = harness._exact_sample_ranks

    def shifted(*args):
        return {
            query: {node: rank + 0.5 for node, rank in ranks.items()}
            for query, ranks in real(*args).items()
        }

    monkeypatch.setattr(harness, "_exact_sample_ranks", shifted)
    with pytest.raises(CrossValidationError, match="exact rank"):
        run_workload(sampled)


# ----------------------------------------------------------------------
# Report + CLI
# ----------------------------------------------------------------------
def test_report_schema(tiny_result):
    report = build_report([tiny_result], config={"scale": "test"})
    assert report["schema_version"] == 2
    assert report["config"]["scale"] == "test"
    (workload,) = report["workloads"]
    assert workload["name"] == "gnp-n18"
    assert "backend" not in workload
    for name in ALGORITHMS:
        assert set(workload["algorithms"][name]) == {"counters"}
    # No wall-clock anywhere under "workloads".
    assert "seconds" not in json.dumps(report["workloads"])
    table = render_table(report)
    assert "gnp-n18" in table and "naive" in table
    json.dumps(report)  # must be JSON-serialisable as-is


def test_cli_smoke_writes_report(tmp_path, capsys):
    output = tmp_path / "BENCH_core.json"
    exit_code = bench_main(["--scale", "smoke", "--output", str(output), "--quiet"])
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["schema_version"] == 2
    assert report["config"] == {
        "scale": "smoke", "seed": 0, "families": list(WORKLOAD_FAMILIES),
    }
    for workload in report["workloads"]:
        algorithms = workload["algorithms"]
        assert list(algorithms) == list(ALGORITHMS)
        for name, row in algorithms.items():
            assert set(row) in ({"counters"}, {"skipped"}), (workload["name"], name)


def test_cli_flags_are_the_fixed_protocol(capsys):
    with pytest.raises(SystemExit):
        bench_main(["--help"])
    with pytest.raises(SystemExit):
        diff_main(["--help"])
    usages = re.findall(r"^usage: (.*?)\n\n", capsys.readouterr().out, re.M | re.S)
    bench_usage, diff_usage = (set(re.findall(r"--[a-z-]+", u)) for u in usages)
    assert bench_usage == {
        "--scale", "--families", "--dataset", "--directed", "--seed",
        "--output", "--quiet",
    }
    assert diff_usage == {"--quiet"}
    assert usages[1].split()[-2:] == ["old", "new"]


def test_counters_identical_across_hash_seeds(tmp_path):
    sections = []
    for hash_seed in ("0", "1"):
        output = tmp_path / f"bench-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        subprocess.run(
            [sys.executable, "-m", "repro.bench", "--scale", "smoke",
             "--output", str(output), "--quiet"],
            check=True, env=env, cwd=tmp_path, timeout=300,
        )
        sections.append(output.read_bytes().split(b'"workloads"')[1])
    assert sections[0] == sections[1]


def test_cli_family_subset(tmp_path):
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--scale", "smoke", "--families", "path,grid", "--output", str(output),
         "--quiet"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert [workload["family"] for workload in report["workloads"]] == ["path", "grid"]


def test_cli_rejects_unknown_family(tmp_path, capsys):
    exit_code = bench_main(
        ["--scale", "smoke", "--families", "nope", "--output", str(tmp_path / "x.json")]
    )
    assert exit_code == 2
    assert "unknown workload family" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_cli_dataset_run(tmp_path):
    dataset = tmp_path / "toy.txt"
    dataset.write_text("0 1 1.0\n1 2 1.5\n2 3 1.0\n3 4 2.0\n4 0 1.0\n")
    output = tmp_path / "bench.json"
    exit_code = bench_main(
        ["--dataset", str(dataset), "--output", str(output), "--quiet"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["config"]["scale"] == "dataset"
    assert report["config"]["dataset"] == str(dataset)
    (workload,) = report["workloads"]
    assert workload["family"] == "dataset"
    assert workload["name"] == "dataset-toy"


def test_cli_dataset_missing_file_fails_cleanly(tmp_path, capsys):
    exit_code = bench_main(
        ["--dataset", str(tmp_path / "nope.txt"),
         "--output", str(tmp_path / "x.json"), "--quiet"]
    )
    assert exit_code == 2
    assert capsys.readouterr().err


# ----------------------------------------------------------------------
# The committed trajectory
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scale",
    [
        "default",
        pytest.param("large", marks=pytest.mark.slow),
        pytest.param("huge", marks=pytest.mark.slow),
    ],
)
def test_committed_trajectory_reproduces(scale, tmp_path, capsys):
    fresh = tmp_path / f"BENCH_{scale}.json"
    assert bench_main(["--scale", scale, "--output", str(fresh), "--quiet"]) == 0
    committed = {w["name"] for w in json.loads(COMMITTED.read_text())["workloads"]}
    missing = [
        w["name"] for w in json.loads(fresh.read_text())["workloads"]
        if w["name"] not in committed
    ]
    assert not missing, (
        f"workloads {missing} are not in BENCH_core.json; regenerate it with "
        f"`{REGENERATE}`"
    )
    capsys.readouterr()
    code = diff_main([str(COMMITTED), str(fresh), "--quiet"])
    assert code == 0, (
        f"the {scale} counters no longer match BENCH_core.json; if the change "
        f"is intended, regenerate it with `{REGENERATE}`:\n"
        + capsys.readouterr().err
    )


def test_committed_trajectory_diff_catches_a_moved_counter(tmp_path, capsys):
    report = json.loads(COMMITTED.read_text())
    moved = copy.deepcopy(report)
    moved["workloads"][0]["algorithms"]["dynamic"]["counters"]["tree_pops"] += 1
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(moved))
    assert diff_main([str(COMMITTED), str(path), "--quiet"]) == 1
    assert "dynamic: tree_pops" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Huge tier: shared-memory graph and sharded index build (slow)
# ----------------------------------------------------------------------
def _counters(result):
    stats = result.stats.as_dict()
    stats.pop("elapsed_seconds")
    return stats


@pytest.mark.slow
def test_huge_tier_smoke_shares_graph_and_parallel_index():
    # The huge preset's own lattice (n = 102,400) through a 2-worker pool:
    # the workers map the shared-memory graph, the sharded hub build is
    # bit-identical to the sequential one, and parallel batches equal the
    # sequential ones.
    (workload,) = build_suite(scale="huge")
    assert workload.num_nodes == 320 * 320
    build = dict(workload.index_params, capacity=max(workload.k, 16))
    context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    sequential = ReverseKRanksEngine(workload.graph)
    sequential_index = sequential.build_index(**build)
    with ReverseKRanksEngine(workload.graph) as parallel:
        assert parallel.prepare_parallel(2, context).uses_shared_graph is True
        parallel_index = parallel.build_index(
            workers=2, worker_context=context, **build
        )
        assert pickle.dumps(parallel_index.export_state()) == pickle.dumps(
            sequential_index.export_state()
        )
        for algorithm in ("static", "dynamic", "indexed"):
            want = sequential.query_many(
                workload.queries, workload.k, algorithm=algorithm
            )
            got = parallel.query_many(
                workload.queries, workload.k, algorithm=algorithm,
                workers=2, worker_context=context,
            )
            assert parallel.last_batch_ipc_bytes > 0, algorithm
            for expected, actual in zip(want, got):
                if algorithm == "indexed":
                    assert results_equivalent(expected, actual)
                else:
                    assert expected.as_pairs() == actual.as_pairs(), algorithm
                    assert _counters(expected) == _counters(actual), algorithm
