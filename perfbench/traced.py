"""Run one ``ballot`` CLI command in this process with spans recorded.

Usage: python3 traced.py SPANS_JSON CLI_ARG...

The package must be importable (PYTHONPATH=src).  Writes the spans,
counters and absent names to SPANS_JSON and exits with the command's
own exit code.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import ballot.cli

    recorder = spans.Recorder()
    absent = spans.install(recorder)
    code = ballot.cli.main(cli_args)
    payload = recorder.dump()
    payload["absent"] = absent
    with open(out_path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
