#!/usr/bin/env python3
"""Perf regression gate for the simulator's pinned sweep (`sweep perf`).

Compares the events/sec of each (app, nodes) run in a freshly produced
BENCH_sim.json against the committed baseline and fails if any run regressed
by more than the tolerance (default 25%, matching the CI contract).  The
deterministic columns -- checksum, sim_events and msgs -- must match the
baseline exactly: the simulated schedule does not depend on the host, so
any drift is a behaviour change that needs an explanation and a refresh.

Coverage is part of the gate: a baseline run missing from the current sweep
fails the check -- a silent skip would let a deleted or crashed benchmark
sail through.  The one sanctioned gap is a REPSEQ_NODES-capped CI sweep
checked against a full-sweep baseline: a baseline (app, nodes) run is
excused only when the current file does run that app, just never at that
many nodes.  Runs only the current file has (a freshly added benchmark) are
reported and ignored.

Usage:  check_perf_regression.py CURRENT.json BASELINE.json [--tolerance 0.25]

The baseline is machine-dependent: refresh bench/BENCH_sim_baseline.json
(commit the new file) whenever the CI runner class changes or an intentional
engine change moves the numbers.
"""

import argparse
import json
import sys


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    return {(r["app"], r["nodes"]): r for r in doc.get("runs", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional events/sec drop (default 0.25)")
    args = ap.parse_args()

    current = load_runs(args.current)
    baseline = load_runs(args.baseline)
    shared = sorted(set(current) & set(baseline))
    if not shared:
        print("error: no (app, nodes) runs in common between "
              f"{args.current} and {args.baseline}", file=sys.stderr)
        return 2

    failures = []

    # Coverage gate: every baseline run must appear in the current sweep.
    # The only excused absence is a node-count the current sweep was capped
    # below (the app itself still ran); a whole app vanishing is a failure.
    max_nodes = {}
    for app, nodes in current:
        max_nodes[app] = max(nodes, max_nodes.get(app, 0))
    for key in sorted(set(baseline) - set(current)):
        app, nodes = key
        if app not in max_nodes:
            print(f"error: baseline app '{app}' is missing entirely from "
                  f"{args.current}", file=sys.stderr)
            failures.append(key)
        elif nodes <= max_nodes[app]:
            print(f"error: baseline run {key} is missing from "
                  f"{args.current} (app ran up to n={max_nodes[app]})",
                  file=sys.stderr)
            failures.append(key)
        else:
            print(f"{app:>12} n={nodes:<5} skipped (node-capped sweep, "
                  f"current max n={max_nodes[app]})")
    for key in sorted(set(current) - set(baseline)):
        print(f"{key[0]:>12} n={key[1]:<5} new run, no baseline -- ignored")
    for key in shared:
        cur = current[key]["events_per_sec"]
        base = baseline[key]["events_per_sec"]
        if base <= 0:
            continue
        ratio = cur / base
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSED"
            failures.append(key)
        print(f"{key[0]:>12} n={key[1]:<5} {cur:>14.0f} ev/s "
              f"(baseline {base:.0f}, {ratio:5.2f}x)  {status}")

    # Pinned runs must reproduce the baseline's deterministic columns
    # exactly, whatever the speed: the checksum (the result) and the event
    # and message counts (the simulated schedule).
    for key in shared:
        if abs(current[key]["checksum"] - baseline[key]["checksum"]) > 1e-6:
            print(f"error: checksum changed for {key}: "
                  f"{current[key]['checksum']} != {baseline[key]['checksum']}",
                  file=sys.stderr)
            failures.append(key)
        for column in ("sim_events", "msgs"):
            if current[key][column] != baseline[key][column]:
                print(f"error: {column} changed for {key}: "
                      f"{current[key][column]} != {baseline[key][column]}",
                      file=sys.stderr)
                failures.append(key)

    if failures:
        print(f"\nFAIL: {len(failures)} run(s) regressed more than "
              f"{args.tolerance:.0%}, changed results or schedules, or went missing",
              file=sys.stderr)
        return 1
    print(f"\nOK: {len(shared)} run(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
