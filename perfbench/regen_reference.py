#!/usr/bin/env python3
"""Regenerates perfbench/reference/*.ref anew.

Usage, from the root of a checkout:

    python3 perfbench/regen_reference.py

Every pool entry is solved for all optimum chains with the STP engine
(default options, exactly the benchmark's op) and its optimum is
cross-checked against the independent BMS engine.  The NPN4 classes are
first classified with a 5-gate cap, so the 6-7 gate classes never enter
either NPN4 pool.  Any disagreement aborts without writing.  Takes about a
minute on 3 worker threads.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (shares the build step)


def main():
    run.build()
    ref_dir = os.path.join(run.HERE, "reference")
    return subprocess.run([run.BINARY, "--regen", "--ref", ref_dir],
                          cwd=run.ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
