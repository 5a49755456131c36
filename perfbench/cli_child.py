"""Run one `bdga` command from this checkout's sources, as a fresh process.

    python3 perfbench/cli_child.py [--trace-out SPANS.json.gz] <bdga arguments>

With --trace-out the package is traced as in the parent's traced run and
the spans are written to the given file when the command ends.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        from bdga.cli import main as cli_main

        return cli_main(argv)
    sys.path.insert(1, HERE)
    from tracer import Tracer

    tracer = Tracer()
    with tracer.region("child.import"):
        import bdga.cli
    tracer.install()
    try:
        return bdga.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
