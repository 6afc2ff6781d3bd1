"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def bench(workload, *extra, seconds="1", trace="0", cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", trace, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def shm_entries():
    return {name for name in os.listdir("/dev/shm") if name.startswith(("repro_", "psm_"))}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = bench(workload, "--scale", "tiny", trace=trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in declared:
        line = next(l for l in lines if l.startswith(metric["name"] + " = "))
        samples = int(re.search(r"\(n=(\d+)", line).group(1))
        assert line.split()[3] == metric["unit"]
        if trace == "0":
            assert samples >= 1
            assert result["metrics"][metric["name"]]["value"] > 0
    if trace == "0":
        printed = [l for l in lines if l.endswith("; not gated)")]
        assert any(l.startswith("cpu_ms_per_query = ") for l in printed)
        assert any(re.match(r"(request|update)_p90_ms = .* \(n=\d+", l) for l in printed)
    assert any(line.startswith("env cpu_count=") for line in lines)
    assert any(line.startswith("reconciled: queries sent") for line in lines)


def test_corrupted_answer_fails_the_run():
    out = bench("mixed-road", "--scale", "tiny", "--corrupt-answer")
    assert out.returncode == 1
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "PROBLEM: wrong answer" in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sigterm_mid_run_leaves_nothing_behind(workload):
    before = shm_entries()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "60", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    time.sleep(4.0)  # past set-up and warm-up: inside the measured phase
    assert process.poll() is None
    process.send_signal(signal.SIGTERM)
    stdout, stderr = process.communicate(timeout=90)
    assert process.returncode == 143, stderr
    assert stdout == ""
    servers = [int(pid) for pid in re.findall(r"server pid (\d+) ready", stderr)]
    assert servers or workload != "serve-road"
    time.sleep(0.5)
    groups = {process.pid, *servers}
    alive = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = stat[stat.rindex(")") + 2:].split()
            if fields[0] != "Z" and int(fields[2]) in groups:
                alive.append(int(entry))
    assert alive == []
    assert shm_entries() - before == set()


def test_refuses_to_run_without_the_program_sources():
    bare = ROOT / ".e2ebench_work" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        started = time.monotonic()
        out = bench(WORKLOADS[0], cwd=bare, script=bare / HERE.name / "run.py")
        assert out.returncode != 0
        assert out.stdout == ""
        assert time.monotonic() - started < 60
    finally:
        shutil.rmtree(bare, ignore_errors=True)
