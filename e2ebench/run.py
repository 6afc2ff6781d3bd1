"""End-to-end benchmark of the served and the live-update query paths.

Run from the repository root::

    python3 e2ebench/run.py --workload serve-road --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
reports the per-layer metrics of a traced run instead.  Human-readable
lines (every metric with its sample count, the environment, the answer
checks and counter reconciliation) come first; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every checked answer is right, the program's
counters reconcile and nothing the run started is left running; 1
otherwise; 2 when the program's sources are missing; 3 when the machine
has fewer CPUs than the workload's workers plus client threads; 143
after SIGTERM (cleanup still runs, no result is printed).  See
``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload -> (pool worker processes, load client threads)
DEMAND = {"serve-road": (0, 2), "mixed-road": (2, 0)}


def log(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEMAND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small graphs for the benchmark's own tests")
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="test hook: corrupt one answer before it is checked")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"program sources not found under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The metric names and units to report are those BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workers, clients = DEMAND[args.workload]
    available = len(os.sched_getaffinity(0))
    stamp = (
        f"env cpu_count={os.cpu_count()} available_cpus={available} "
        f"python={platform.python_version()} platform={platform.platform()} "
        f"pool_workers={workers} client_threads={clients}"
    )
    if workers + clients > available:
        log(f"refusing to report {args.workload}: {workers} pool workers + "
            f"{clients} client threads need {workers + clients} CPUs; {stamp}")
        return 3

    import hygiene
    import workloads

    workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    shm_before = hygiene.shm_segments()
    main_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != main_pid:  # a forked pool worker
            os._exit(128 + signum)
        raise workloads.Terminated()

    signal.signal(signal.SIGTERM, on_sigterm)
    ctx = workloads.Context(args, ROOT, workdir, log)
    result = workloads.Result()
    run = {"serve-road": workloads.serve_road, "mixed-road": workloads.mixed_road}[
        args.workload
    ]
    status = 0
    try:
        run(ctx, result)
    except workloads.Terminated:
        log("SIGTERM: stopping everything this run started")
        status = 143
    except KeyboardInterrupt:
        log("interrupted: stopping everything this run started")
        status = 130
    except Exception:
        log(f"{args.workload} failed:\n{traceback.format_exc()}")
        status = 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for server in ctx.servers:
            server.stop()
        hygiene.stop_resource_tracker()
        leak = hygiene.leak_report([s.pid for s in ctx.servers], shm_before)
        shutil.rmtree(workdir, ignore_errors=True)
    if leak:
        log(leak)
        result.problems.append(leak)
        status = status or 1
    if status:
        return status

    print(f"e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print(stamp)
    metrics = {}
    for metric in declared["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if args.trace:
            value, samples = result.per_layer[name]
            print(f"{name} = {value:.6g} {unit} (n={samples})")
        else:
            value, _, samples, what = result.end_to_end[name]
            print(f"{name} = {value:.6g} {unit} (n={samples}; {what})")
        metrics[name] = {"value": value, "unit": unit}
    for line in result.lines:
        print(line)
    print(f"attempted={result.attempted} failed={result.failed} "
          f"overload_retries={result.retries}")
    for problem in result.problems:
        print(f"PROBLEM: {problem}")
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
