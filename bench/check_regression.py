#!/usr/bin/env python3
"""Compare a fresh table1 --json run against a committed BENCH_* baseline.

Usage:
    check_regression.py --baseline BENCH_table1_npn4.json --fresh fresh.json
                        [--runtime-tolerance 0.25]
    check_regression.py --baseline BENCH_table1_npn4.json --audit-baseline

Exit code 0 when the fresh run is acceptable, 1 otherwise.  The gate has
two parts, per engine present in both files:

  * correctness trajectory: `solved`, `timeouts`, and the gate counts
    (`total_gates`, `mean_gates`) must match the baseline exactly — any
    change in what gets synthesized, or how small, is a regression (or an
    improvement that must be re-baselined deliberately);
  * search-effort trajectory, gated when the baseline carries a
    `counters` object (pre-counter baselines skip this part).  Each
    counter's gate class -- exact, tolerance (default +/-10%,
    `--counter-tolerance`) or ungated -- and the reason for it are in the
    counter table `src/util/stage_counters.def`, which this script reads.
    A counter missing from either side's `counters` object fails;
  * performance trajectory: `wall_seconds` may not regress by more than
    the tolerance (default +25%).  Getting faster never fails.

The instance count, timeout, and seed must match, otherwise the comparison
is meaningless and the script errors out.

`--audit-baseline` skips the comparison and instead checks the baseline
itself for schema drift: every engine entry carrying a `counters` object
must carry exactly the counter keys of the counter table.  A missing key
means the committed BENCH_*.json predates a counter added since — stale
against the gated schema — and must be regenerated deliberately.
"""

import argparse
import json
import pathlib
import re
import sys

# (name, gate) per line of the counter table, in table order.
COUNTERS = re.findall(
    r"^STPES_STAGE_COUNTER\((\w+), (\w+)\)$",
    (pathlib.Path(__file__).resolve().parent.parent / "src" / "util" /
     "stage_counters.def").read_text(encoding="utf-8"), re.MULTILINE)
ALL_COUNTERS = tuple(name for name, _ in COUNTERS)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def fail(msg):
    print(f"REGRESSION: {msg}")
    return 1


def audit_baseline(baseline, path):
    """Checks the committed baseline against the current counter schema."""
    errors = 0
    for eng in baseline.get("engines", []):
        counters = eng.get("counters")
        if counters is None:
            print(f"{path}: engine '{eng.get('engine')}' carries no "
                  "counters (pre-counter baseline) [SKIP]")
            continue
        missing = [k for k in ALL_COUNTERS if k not in counters]
        unknown = [k for k in counters if k not in ALL_COUNTERS]
        if missing:
            errors += fail(
                f"{path}: engine '{eng.get('engine')}' baseline is stale "
                f"against the gated counter schema, missing: "
                f"{', '.join(missing)} — regenerate the BENCH file")
        if unknown:
            errors += fail(
                f"{path}: engine '{eng.get('engine')}' baseline carries "
                f"counters this checker does not know: "
                f"{', '.join(unknown)} — update check_regression.py")
        if not missing and not unknown:
            print(f"{path}: engine '{eng.get('engine')}' counter schema "
                  "up to date [OK]")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh")
    parser.add_argument("--audit-baseline", action="store_true",
                        help="instead of comparing, check the baseline "
                             "file itself for counter-schema drift")
    parser.add_argument("--runtime-tolerance", type=float, default=0.25,
                        help="allowed fractional wall-clock regression")
    parser.add_argument("--counter-tolerance", type=float, default=0.10,
                        help="allowed fractional drift of the "
                             "tolerance-gated counters")
    args = parser.parse_args()

    baseline = load(args.baseline)
    if args.audit_baseline:
        errors = audit_baseline(baseline, args.baseline)
        if errors == 0:
            print("baseline schema audit passed")
        return 1 if errors else 0
    if args.fresh is None:
        parser.error("--fresh is required unless --audit-baseline is set")
    fresh = load(args.fresh)
    errors = 0

    # The runs must be the same experiment.
    for key in ("collection", "instances", "timeout_s", "seed"):
        if baseline.get(key) != fresh.get(key):
            print(f"ERROR: config mismatch on '{key}': baseline "
                  f"{baseline.get(key)!r} vs fresh {fresh.get(key)!r}")
            return 2

    if fresh.get("disagreements", 0) != 0:
        errors += fail(f"{fresh['disagreements']} engine disagreements "
                       "on optimum size")

    base_engines = {e["engine"]: e for e in baseline.get("engines", [])}
    fresh_engines = {e["engine"]: e for e in fresh.get("engines", [])}
    for name, base in base_engines.items():
        if name not in fresh_engines:
            errors += fail(f"engine '{name}' missing from fresh run")
            continue
        cur = fresh_engines[name]

        for key in ("solved", "timeouts", "total_gates", "mean_gates"):
            if base.get(key) != cur.get(key):
                errors += fail(f"{name}: {key} changed "
                               f"{base.get(key)} -> {cur.get(key)}")
        # Partial (budget-truncated but solved) counts are gated once the
        # baseline records them; older baselines predate the field.
        if "solved_partial" in base:
            if base["solved_partial"] != cur.get("solved_partial"):
                errors += fail(
                    f"{name}: solved_partial changed "
                    f"{base['solved_partial']} -> "
                    f"{cur.get('solved_partial')}")
        # Sweep-bench runs carry the merge count at the engine level; it
        # is part of the correctness trajectory (fewer merges = the sweep
        # stopped finding equivalences it used to prove).
        if "merged_nodes" in base:
            if base["merged_nodes"] != cur.get("merged_nodes"):
                errors += fail(
                    f"{name}: merged_nodes changed "
                    f"{base['merged_nodes']} -> {cur.get('merged_nodes')}")

        # Search-effort counters, gated per the table's class.  Only
        # when the baseline carries them, so pre-counter baselines keep
        # working until deliberately regenerated.
        base_counters = base.get("counters")
        cur_counters = cur.get("counters", {})
        gated = COUNTERS if base_counters is not None else ()
        for key, gate in gated:
            base_val = base_counters.get(key)
            cur_val = cur_counters.get(key)
            if base_val is None or cur_val is None:
                errors += fail(f"{name}: counter {key} missing "
                               f"({base_val} vs {cur_val})")
            elif gate == "exact" and cur_val != base_val:
                errors += fail(f"{name}: counter {key} changed "
                               f"{base_val} -> {cur_val}")
            elif (gate == "tolerance" and abs(cur_val - base_val) >
                  base_val * args.counter_tolerance):
                errors += fail(
                    f"{name}: counter {key} drifted beyond "
                    f"{100 * args.counter_tolerance:.0f}%: "
                    f"{base_val} -> {cur_val}")

        base_wall = float(base["wall_seconds"])
        cur_wall = float(cur["wall_seconds"])
        limit = base_wall * (1.0 + args.runtime_tolerance)
        status = "OK" if cur_wall <= limit else "FAIL"
        print(f"{name}: wall {cur_wall:.2f}s vs baseline {base_wall:.2f}s "
              f"(limit {limit:.2f}s) [{status}]")
        if cur_wall > limit:
            errors += fail(
                f"{name}: wall-clock regression beyond "
                f"{100 * args.runtime_tolerance:.0f}%")

    if errors == 0:
        print("bench regression check passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
