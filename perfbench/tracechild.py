"""Run one CLI command under the tracer and write its spans to a file.

    python3 perfbench/tracechild.py OUT_DIR ARGV...

Used by the traced run of cli_calls in place of `python -m gauss_purify.cli`.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import common  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def main(out_dir: str, argv: list) -> int:
    common.use_program_source()
    tracer = Tracer()
    tracer.install()
    from gauss_purify import cli

    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.dump(os.path.join(out_dir, f"{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
