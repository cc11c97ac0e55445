#!/usr/bin/env python3
"""Self-tests of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks, through perfbench/run.py exactly as the benchmark is run (the
corrupted-reference checks call the binary it built directly, with --ref):

  * a smoke-sized untraced run of every workload passes and prints
    exactly the end_to_end metrics of BENCHMARK.json, with their units;
  * a smoke-sized traced run of every workload prints exactly the
    per_layer metrics, and two traced runs with one seed give identical
    counts;
  * a corrupted reference file fails the check (engine and serving
    workloads);
  * a set kernel-tier override refuses to run.

Takes a few minutes; exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the binary run.py builds)

HERE = run.HERE
ROOT = run.ROOT
WORK_DIR = os.path.join(ROOT, ".bench_build", "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seconds, trace=0, seed=7, ref=None, env=None):
    """Runs one workload through run.py; with `ref`, runs the binary it
    built directly, pointed at that reference directory."""
    cmd = ["--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    if ref:
        cmd = [run.BINARY] + cmd + ["--ref", ref]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py")] + cmd
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       env=env, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return p, result


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_metrics(result, expected, what):
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, f"{what}: metric names and units match BENCHMARK.json")
    check(all(sorted(v) == ["unit", "value"]
              and isinstance(v["value"], (int, float))
              for v in result["metrics"].values()),
          f"{what}: every metric is a number with a unit")


def corrupt(src_dir, name):
    """Copies the reference directory and adds one optimum chain to every
    entry of `name`, so any run of that workload, down to the warm-up op
    of its set-up, asks an entry whose reference is wrong."""
    dst = os.path.join(WORK_DIR, "ref-corrupt")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src_dir, dst)
    path = os.path.join(dst, name)
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 5 and not line.startswith("#"):
            parts[3] = str(int(parts[3]) + 1)
            lines[i] = " ".join(parts)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return dst


def main():
    os.makedirs(WORK_DIR, exist_ok=True)
    names = [w["name"] for w in SPEC["workloads"]]
    check(names == ["npn4_enum", "fdsd6_enum", "cuts_serve"],
          "BENCHMARK.json lists the three workloads")

    for w in names:
        p, r = bench(w, 2)
        check(r is not None, f"{w}: smoke run exits 0 with a result line")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              f"{w}: smoke run correct, no failed ops")
        check_metrics(r, SPEC["end_to_end"], f"{w} untraced")
        check(any(line.startswith("provenance {") and '"kernel_tier"' in line
                  for line in p.stdout.splitlines()),
              f"{w}: provenance line printed")

        _, t1 = bench(w, 2, trace=1)
        _, t2 = bench(w, 2, trace=1)
        check(t1 is not None and t2 is not None and t1["correct"]
              and t2["correct"], f"{w}: traced smoke runs correct")
        check_metrics(t1, SPEC["per_layer"], f"{w} traced")
        counts = {k for k, v in t1["metrics"].items() if v["unit"] == "count"}
        check(all(t1["metrics"][k]["value"] == t2["metrics"][k]["value"]
                  for k in counts),
              f"{w}: traced counts identical across two runs")

    ref = os.path.join(HERE, "reference")
    bad = corrupt(ref, "npn4_enum.ref")
    _, r = bench("npn4_enum", 1, ref=bad)
    check(r is not None and not r["correct"],
          "corrupted npn4_enum reference fails the check")
    bad = corrupt(ref, "cuts_serve.ref")
    _, r = bench("cuts_serve", 1, ref=bad)
    check(r is not None and not r["correct"],
          "corrupted cuts_serve reference fails the check")

    env = dict(os.environ, STPES_KERNEL_TIER="scalar")
    p, r = bench("fdsd6_enum", 1, env=env)
    check(p.returncode != 0 and r is None,
          "a kernel-tier override refuses to run")
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
