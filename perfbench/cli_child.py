"""Run one ``uppkit`` command in this process, as the console script does.

    python perfbench/cli_child.py guppi MARKET.json --format json

With ``PERFBENCH_TRACE_OUT`` set, the span wrappers are installed before the
command runs and the spans are written to that path when it ends.
"""

import os
import sys


def main() -> None:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from uppkit.cli import main as cli_main

        sys.exit(cli_main())

    from tracing import Tracer

    from uppkit import cli

    tracer = Tracer().install()
    code = 0
    try:
        with tracer.operation("cli.command"):
            cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.write(trace_out)
    sys.exit(code)


if __name__ == "__main__":
    main()
