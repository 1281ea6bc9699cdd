"""Run one `stimkb` CLI command in this fresh process, as
`python -m stimkb.cli <args>` would.

    python3 perfbench/launch.py [--trace OUT --op ID] -- <stimkb args>

With `--trace`, the call wrappers of `calltrace` are installed before the
command runs, every call is counted under op `ID` ("setup" for set-up
commands), and the spans and counters are written to OUT at exit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    import stimkb.cli

    if not opts:
        return stimkb.cli.main(cli_args)
    trace_out = opts[opts.index("--trace") + 1]
    op = opts[opts.index("--op") + 1]
    import calltrace

    tracer = calltrace.Tracer(pid_tag=f"cli:{op}")
    calltrace.install(tracer)
    tracer.set_op(op)
    try:
        return stimkb.cli.main(cli_args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
