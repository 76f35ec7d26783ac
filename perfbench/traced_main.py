"""Run one ``repro`` command with layer spans installed, then dump them.

Usage::

    python perfbench/traced_main.py --out SPANS.json -- ARGV...

``ARGV`` is what ``python -m repro`` would take (``serve ...`` included:
the dump is written once the server shuts down on SIGINT).  The dump
holds the recorder's ops, calls and counts (``layers.Recorder.dump``).
"""

from __future__ import annotations

import argparse
import json

from layers import Recorder, install


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    import repro.cli

    # Imported before install() so the service's `from repro.cli import`
    # copies are rebound to the wrappers too.
    import repro.serve  # noqa: F401

    recorder = Recorder()
    install(recorder)
    try:
        return repro.cli.main(argv)
    finally:
        with open(args.out, "w") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
