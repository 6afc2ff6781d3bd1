"""Run ``python -m repro.serve`` under the benchmark's span wrappers.

Usage::

    python3 e2ebench/serve_launcher.py [--spans-out FILE] -- SERVE_ARGS...

Without ``--spans-out`` no wrapper is installed and this is exactly the
serve CLI.  With it, spans are recorded from boot until the server is
constructed (dataset load, CSR compile, index build, snapshot install),
then whenever the server's tracer is on — toggled through the
protocol's ``trace`` op — and written to FILE after the server stops.
"""

from __future__ import annotations

import argparse
import sys


def main(argv) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv[:split])
    serve_argv = argv[split + 1:]

    import repro.serve.__main__ as serve_cli

    if args.spans_out is None:
        return serve_cli.main(serve_argv)

    import spans

    engines = []
    recorder = spans.Recorder(
        lambda: not engines or engines[0].tracer.enabled
    )
    spans.install(recorder)
    spans.install_serve(recorder)
    prepare_engine = serve_cli.prepare_engine

    def prepare_and_capture(*a, **kw):
        engine, restored = prepare_engine(*a, **kw)
        engines.append(engine)
        return engine, restored

    serve_cli.prepare_engine = prepare_and_capture
    try:
        return serve_cli.main(serve_argv)
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
