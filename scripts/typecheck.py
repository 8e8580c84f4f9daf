#!/usr/bin/env python
"""The ``make typecheck`` driver.

Runs mypy with the strict ``[tool.mypy]`` configuration when mypy is
installed (the CI path, via the ``dev`` extra).  In environments
without mypy — the package has no typing-tool runtime dependency — it
falls back to the stdlib annotation gate
(:mod:`repro.lint.annotations`), which enforces the
complete-signatures half of the policy (``disallow_untyped_defs`` +
``disallow_incomplete_defs``) with nothing but ``ast``.  Either way a
non-zero exit means the typing gate failed.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: the strict modules of the typing policy (docs/development.md).
STRICT_TARGETS = [
    "src/repro/core",
    "src/repro/convolution",
    "src/repro/parallel",
    "src/repro/streaming",
    "src/repro/lint",
    "src/repro/pipeline.py",
    "src/repro/cli.py",
    "src/repro/__init__.py",
]


def main() -> int:
    os.chdir(REPO)
    if importlib.util.find_spec("mypy") is not None:
        return subprocess.call(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"]
        )
    print("mypy not installed; running the stdlib annotation gate instead")
    sys.path.insert(0, str(REPO / "src"))
    from repro.lint.annotations import main as annotations_main

    return annotations_main(STRICT_TARGETS)


if __name__ == "__main__":
    sys.exit(main())
