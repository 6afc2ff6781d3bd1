"""The ``python -m repro.bench.diff`` report comparator."""

from __future__ import annotations

import json

from repro.bench.diff import (
    compare_reports,
    main,
    render_diff_table,
    summarize_membership,
)


def make_report(workloads, schema_version=2):
    return {
        "schema_version": schema_version,
        "generated_by": "repro.bench",
        "workloads": workloads,
    }


def make_workload(name, algorithms, **metadata):
    """``algorithms`` maps a row name to its refinement count or skip reason."""
    return {
        "name": name,
        "num_nodes": 30,
        "k": 3,
        **metadata,
        "algorithms": {
            algo: (
                {"skipped": value}
                if isinstance(value, str)
                else {"counters": {"rank_refinements": value, "bound_wins": {}}}
            )
            for algo, value in algorithms.items()
        },
    }


def test_compare_passes_equal_reports_and_flags_moved_counters():
    old = make_report([make_workload("gnp", {"naive": 58, "dynamic": 20})])
    rows, failures = compare_reports(old, old)
    assert failures == []
    assert {row["status"] for row in rows} == {"same"}

    new = make_report([make_workload("gnp", {"naive": 58, "dynamic": 21})])
    rows, failures = compare_reports(old, new)
    by_algo = {row["algorithm"]: row["status"] for row in rows}
    assert by_algo == {"naive": "same", "dynamic": "CHANGED"}
    assert failures == ["gnp/dynamic: rank_refinements: 20 -> 21"]


def test_compare_fails_on_workload_metadata():
    old = make_report([make_workload("gnp", {"dynamic": 20})])
    new = make_report([make_workload("gnp", {"dynamic": 20}, num_nodes=31)])
    _, failures = compare_reports(old, new)
    assert failures == ["gnp: workload metadata differ (num_nodes: 30 -> 31)"]


def test_compare_lists_new_and_removed_rows():
    old = make_report([
        make_workload("gone", {"naive": 10}),
        make_workload("gnp", {"naive": 58, "dynamic": 20}),
    ])
    new = make_report([
        make_workload("gnp", {"naive": 58, "dynamic": 20, "indexed": 16}),
        make_workload("fresh-large", {"naive": "naive_sample workload"}),
    ])
    rows, failures = compare_reports(old, new)
    assert failures == []
    status = {(row["workload"], row["algorithm"]): row["status"] for row in rows}
    assert status[("gone", "naive")] == "removed"
    assert status[("gnp", "dynamic")] == "same"
    assert status[("gnp", "indexed")] == "new"
    assert status[("fresh-large", "naive")] == "new"


def test_compare_skips_rows_skipped_in_both_reports():
    old = make_report([make_workload("bi", {"indexed": "monochromatic-only"})])
    new = make_report([make_workload("bi", {"indexed": "monochromatic-only"})])
    rows, failures = compare_reports(old, new)
    assert failures == []
    assert rows[0]["status"] == "same"


def test_compare_fails_when_validated_row_becomes_skipped():
    # A counters row only exists when the row passed validation; the new
    # run silently ceasing to run it is a difference, not suite shrinkage.
    old = make_report([make_workload("bi", {"dynamic": 20})])
    new = make_report([make_workload("bi", {"dynamic": "oops"})])
    rows, failures = compare_reports(old, new)
    assert rows[0]["status"] == "CHANGED"
    assert failures == [
        "bi/dynamic: counters: {'rank_refinements': 20, 'bound_wins': {}} -> '-'"
        "; skipped: '-' -> 'oops'"
    ]


def test_render_table_lists_every_row():
    old = make_report([make_workload("gnp", {"naive": 58})])
    new = make_report([make_workload("gnp", {"naive": 59})])
    rows, _ = compare_reports(old, new)
    table = render_diff_table(rows)
    assert "gnp" in table and "naive" in table and "CHANGED" in table


def test_main_exit_codes(tmp_path, capsys):
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(json.dumps(make_report([make_workload("gnp", {"dynamic": 20})])))
    new_path.write_text(json.dumps(make_report([make_workload("gnp", {"dynamic": 20})])))
    assert main([str(old_path), str(new_path)]) == 0
    assert "no differences" in capsys.readouterr().out

    new_path.write_text(json.dumps(make_report([make_workload("gnp", {"dynamic": 21})])))
    assert main([str(old_path), str(new_path)]) == 1
    assert "DIFFERENCES" in capsys.readouterr().err

    # A schema-1 report (timings) is refused, not compared.
    new_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": 20})], schema_version=1)
    ))
    assert main([str(old_path), str(new_path)]) == 2
    assert "schema_version 1" in capsys.readouterr().err

    assert main([str(old_path), str(tmp_path / "missing.json")]) == 2
    new_path.write_text("{not json")
    assert main([str(old_path), str(new_path)]) == 2


def test_summarize_membership_reports_explicit_changes():
    old = make_report([
        make_workload("gone", {"naive": 10}),
        make_workload("gnp", {"naive": 58, "dynamic": 20}),
    ])
    new = make_report([
        make_workload("gnp", {"naive": 58, "dynamic": 20, "indexed": 16}),
        make_workload("fresh", {"naive": 12}),
    ])
    membership = summarize_membership(old, new)
    assert membership["added_workloads"] == ["fresh"]
    assert membership["removed_workloads"] == ["gone"]
    # Row-level changes are tracked for shared workloads only (removed
    # workloads already cover their rows).
    assert membership["added_rows"] == ["gnp/indexed"]
    assert membership["removed_rows"] == []


def test_one_sided_rows_are_additions_not_regressions(tmp_path, capsys):
    # Rows present in only one report are listed under "suite changes"
    # and never fail the diff, in either direction.
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(json.dumps(make_report([make_workload("gnp", {"dynamic": 20})])))
    new_path.write_text(json.dumps(
        make_report([make_workload("gnp", {"dynamic": 20, "indexed": 16})])
    ))
    assert main([str(old_path), str(new_path)]) == 0
    captured = capsys.readouterr()
    assert "suite changes" in captured.out
    assert "added rows: gnp/indexed" in captured.out

    assert main([str(new_path), str(old_path)]) == 0
    assert "removed rows: gnp/indexed" in capsys.readouterr().out
