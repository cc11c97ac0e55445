#!/usr/bin/env python3
"""Self-test of the bench regression gate, bench/check_regression.py.

Usage: bench_gate_test.py [REPO_ROOT]   (default: this file's parent dir)

Runs the gate on the committed BENCH_*.json baselines and on temporary
copies with one counter perturbed, and checks the verdicts: the audit and
a self-comparison pass, while an exact counter +1, a tolerance counter x2
and a deleted counter key each fail.  Exit code 0 when every verdict is
as expected.
"""

import collections
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                    pathlib.Path(__file__).resolve().parent.parent)
GATE = ROOT / "bench" / "check_regression.py"
BASELINES = sorted(ROOT.glob("BENCH_*.json"))
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
from check_regression import COUNTERS  # noqa: E402  (name, gate) rows


def gate(*args):
    """Returns True when check_regression.py accepts `args`."""
    run = subprocess.run([sys.executable, str(GATE), *map(str, args)],
                         capture_output=True, text=True, check=False)
    return run.returncode == 0


def perturbed(baseline, tmpdir, gate_class, edit):
    """Writes a copy of `baseline` with `edit(counters, key)` applied to
    the first nonzero counter of `gate_class` (any engine).  Returns the
    copy's path and the counter's name, or (None, None) when the baseline
    has no such counter."""
    doc = json.loads(baseline.read_text(encoding="utf-8"))
    for eng in doc["engines"]:
        counters = eng["counters"]
        for key, g in COUNTERS:
            if g == gate_class and counters[key] != 0:
                edit(counters, key)
                path = pathlib.Path(tmpdir) / baseline.name
                path.write_text(json.dumps(doc), encoding="utf-8")
                return path, key
    return None, None


def bump(counters, key):
    counters[key] += 1


def double(counters, key):
    counters[key] *= 2


def delete(counters, key):
    del counters[key]


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect(len(BASELINES) == 4, f"4 committed baselines ({len(BASELINES)})")
    # Moving a counter to a looser class must be a deliberate edit here.
    classes = collections.Counter(g for _, g in COUNTERS)
    expect(classes == {"exact": 6, "tolerance": 13, "ungated": 7},
           f"gate classes of the counter table ({dict(classes)})")
    with tempfile.TemporaryDirectory() as tmpdir:
        for base in BASELINES:
            expect(gate("--baseline", base, "--audit-baseline"),
                   f"{base.name}: audit passes")
            expect(gate("--baseline", base, "--fresh", base),
                   f"{base.name}: self-comparison passes")
            for gate_class, edit, label in (("exact", bump, "+1"),
                                            ("tolerance", double, "x2"),
                                            ("ungated", delete, "deleted")):
                fresh, key = perturbed(base, tmpdir, gate_class, edit)
                if fresh is None:
                    print(f"skip {base.name}: no nonzero {gate_class} "
                          "counter")
                    continue
                expect(not gate("--baseline", base, "--fresh", fresh),
                       f"{base.name}: {key} {label} fails")
                if edit is delete:
                    expect(not gate("--baseline", fresh, "--fresh", base),
                           f"{base.name}: {key} {label} from the "
                           "baseline fails")

    print(f"{len(failures)} unexpected verdict(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
