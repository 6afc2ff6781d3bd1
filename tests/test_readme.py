"""The README quickstart, executed from ``README.md`` itself.

Its first three ``python`` blocks form one script (graph, every algorithm
through ``engine.query``, a bichromatic query, a cached ``query_many``
batch), and the fourth (*Parallel execution*) continues it on a worker
pool; the later blocks are fragments.  The expected output is what the
quickstart has always printed.  Every documented CLI command (README's
bash blocks, and CI's serve commands) must parse with its CLI's parser,
and every row of the *Fault tolerance* table names tests that exist.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.bench import __main__ as bench_cli
from repro.bench import diff as diff_cli
from repro.serve import __main__ as serve_cli
from repro.serve import loadgen as loadgen_cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def run_quickstart():
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(
            compile("\n".join(python_blocks()[:3]), str(README), "exec"),
            namespace,
        )
    return printed.getvalue().splitlines(), namespace


def test_readme_quickstart_output():
    lines, namespace = run_quickstart()
    answers = lines[:4]
    assert [line.split(" ", 1)[0] for line in answers] == [
        "Naive", "Static", "Dynamic-Three", "Indexed",
    ]
    for line in answers:
        assert ast.literal_eval(line.split(" ", 1)[1]) == [("d", 1), ("a", 2)]

    assert lines[4] == "3 refinements, 4 tree pops"
    stats = ast.literal_eval(lines[5])
    stats.pop("elapsed_seconds")
    assert stats == {
        "rank_refinements": 3,
        "refinements_pruned": 0,
        "refinement_nodes_settled": 5,
        "tree_pops": 4,
        "tree_pushes": 3,
        "pruned_by_bound": 0,
        "answered_by_index": 0,
        "pruned_by_check_dictionary": 0,
        "bound_wins": {"height": 3},
    }
    assert len(lines) == 6

    bichromatic = namespace["result"]
    assert bichromatic.algorithm == "Bichromatic-Dynamic-Three"
    assert bichromatic.as_pairs() == [("d", 1)]

    batch = namespace["results"]
    assert [result.as_pairs() for result in batch] == [
        [("b", 1), ("c", 3)],
        [("a", 1), ("c", 2)],
        [("d", 1), ("a", 2)],
        [("b", 1), ("c", 3)],
    ]
    assert batch[3] is batch[0]  # the repeated query ran once


def test_readme_parallel_example_matches_sequential():
    _, namespace = run_quickstart()
    exec(compile(python_blocks()[3], str(README), "exec"), namespace)
    engine = namespace["engine"]
    # The batch really ran on the pool, and the with-block closed it.
    path = {"path": "parallel"}
    assert engine.registry.sample("repro_query_batches_total", path) == 1
    assert engine._pool is None
    sequential = engine.query_many(
        namespace["queries"], k=2, algorithm="dynamic", workers=1
    )
    parallel = namespace["results"]
    assert [r.as_pairs() for r in parallel] == [
        r.as_pairs() for r in sequential
    ]
    assert [r.stats.rank_refinements for r in parallel] == [
        r.stats.rank_refinements for r in sequential
    ]


def bash_blocks():
    return re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)


def bench_commands():
    """Every ``python -m repro.bench[.diff]`` line of README's bash blocks."""
    commands = []
    for block in bash_blocks():
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:3] in (
                ["python", "-m", "repro.bench"],
                ["python", "-m", "repro.bench.diff"],
            ):
                commands.append(words)
    return commands


def test_readme_bench_commands_parse():
    commands = bench_commands()
    assert len(commands) >= 5
    for words in commands:
        cli = bench_cli if words[2] == "repro.bench" else diff_cli
        try:
            cli._parse_args(words[3:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(words)}")


def serve_commands():
    """Every ``python -m repro.serve[.loadgen]`` line of README's bash
    blocks and of CI's workflow: environment-variable prefixes, a
    trailing ``...`` placeholder and anything piped onwards dropped."""
    commands = []
    for text in bash_blocks() + [CI_WORKFLOW.read_text()]:
        for line in text.replace("\\\n", " ").splitlines():
            if "python -m repro.serve" not in line:
                continue
            words = shlex.split(line, comments=True)
            while words and re.match(r"\w+=", words[0]):
                words.pop(0)
            if "|" in words:
                words = words[:words.index("|")]
            if words[-1:] == ["..."]:
                words.pop()
            if words[:3] in (
                ["python", "-m", "repro.serve"],
                ["python", "-m", "repro.serve.loadgen"],
            ):
                commands.append(words)
    return commands


def test_documented_serve_commands_parse():
    commands = serve_commands()
    assert sum(words[2] == "repro.serve" for words in commands) >= 3
    assert sum(words[2] == "repro.serve.loadgen" for words in commands) >= 2
    for words in commands:
        cli = serve_cli if words[2] == "repro.serve" else loadgen_cli
        try:
            cli._parse_args(words[3:])
        except SystemExit:
            pytest.fail(f"command does not parse: {' '.join(words)}")


def fault_table_rows():
    """The body rows of README's *Fault tolerance* table."""
    section = README.read_text().split("## Fault tolerance", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        line
        for line in section.splitlines()
        if line.startswith("| ") and not line.startswith("| Failure ")
    ]


def test_fault_table_rows_name_their_tests():
    """Each row names the tests that pin it (backticked ``test_*`` names)
    and the files they live in; each must be defined in one of them."""
    rows = fault_table_rows()
    assert len(rows) >= 7
    for row in rows:
        failure = row.split("|")[1].strip()
        files = re.findall(r"`(tests/test_\w+\.py)`", row)
        names = re.findall(r"`(test_\w+)`", row)
        assert files and names, f"row {failure!r} names no test"
        source = "".join((ROOT / path).read_text() for path in files)
        for name in names:
            assert re.search(rf"\bdef {name}\(", source), (failure, name)
