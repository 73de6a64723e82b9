"""Run one eegsr CLI command in this process, as a user would.

    python3 perfbench/command.py [--spans FILE RUN_ID] <eegsr arguments>

With ``--spans`` the command runs under the span tracer, its spans carry
RUN_ID, and they are written to FILE when it ends. Exits with the command's
exit code.
"""
import sys

from eegsr import cli


def main(argv):
    if argv[:1] != ["--spans"]:
        return cli.main(argv)
    spans, run_id, argv = argv[1], argv[2], argv[3:]
    import tracer

    trace = tracer.install(run_id)
    try:
        return cli.main(argv)
    finally:
        trace.uninstall()
        trace.write(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
