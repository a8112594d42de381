"""``python -m perf <command>``: ``run`` (one workload, the command
``BENCHMARK.json`` names), ``all`` (every workload into one file),
``compare A.json B.json`` and ``regen-expected``."""

import os
import sys

from perf import REPO_ROOT


def main(argv) -> int:
    command, rest = (argv[0], argv[1:]) if argv else ("", [])
    if command == "run":
        from perf.run import main as run_main
        return run_main(rest)
    if command == "all":
        from perf.run import main_all
        return main_all(rest)
    if command == "compare":
        from perf.compare import main as compare_main
        return compare_main(rest)
    if command == "regen-expected":
        # The only command that runs repro in this process.
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
        from perf.oracle import regenerate
        return regenerate()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
