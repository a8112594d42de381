"""The repository's one benchmark: five named workloads over the whole
stack, end-to-end metrics from an untraced run and per-layer numbers
from a separate traced run.  Start at ``perf/README.md``.

Nothing in ``src/`` knows this package exists: the traced run installs
its timing wrappers from here by ``setattr`` (:mod:`perf.seams`) and the
untraced run asserts none is installed.
"""

import os
from typing import Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Records, traces and probe logs; ignored by git.
OUT_DIR = os.path.join(REPO_ROOT, "perf", "out")
DEFAULT_SEED = 11


def child_env() -> Dict[str, str]:
    """Environment for the ``perf`` and ``repro`` processes a run starts
    (the checkout is not installed, so ``src/`` goes on the path)."""
    env = dict(os.environ)
    paths = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
