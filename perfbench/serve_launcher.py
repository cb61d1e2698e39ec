"""Starts ``repro serve`` for the serve-mixed workload.

``python3 perfbench/serve_launcher.py --trace 0|1 --spans FILE -- <serve args>``

With ``--trace 0`` this is exactly ``repro serve <serve args>``.  With
``--trace 1`` the benchmark's span wrappers are installed first, and the
spans are written to ``FILE`` after the daemon drains on SIGTERM.
"""

import argparse
import sys

from common import use_repro


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    use_repro()
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
