"""Start ``repro-sim serve`` with the timing wrappers installed.

The traced pass of ``serve_tcp_closed`` runs the server through this
launcher instead of ``python -m repro.cli``: it patches the seams, calls
``repro.cli.main`` with the remaining arguments, and on exit leaves the
server process's per-seam totals and spans where the loader will read
them.  ``src/`` is not edited.

    python -m perf.serve_launcher SUMMARY.json TRACE.jsonl serve --n 7 ...
"""

from __future__ import annotations

import json
import sys

from perf import seams
from perf.spans import Recorder


def main(argv) -> int:
    summary_path, trace_path, cli_argv = argv[0], argv[1], argv[2:]
    from repro.cli import main as cli_main

    recorder = Recorder("server")
    installed = seams.install(recorder)
    try:
        with recorder.span("server.main"):
            code = cli_main(cli_argv)
    finally:
        installed.uninstall()
    with open(summary_path, "w") as out:
        json.dump(recorder.summary(), out)
    recorder.write_jsonl(trace_path, process="server")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
