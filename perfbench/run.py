#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Runs one workload of the replicated-sequential-execution simulator and
prints its metrics; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload ilink-replicated --seed 1 \
        --seconds 35 --trace 0

--trace 0  timed runs: the end-to-end metrics (host wall and set-up time,
           peak RSS, simulated Table 1-4 times and traffic), medians over
           fresh child processes run back to back for --seconds.
--trace 1  one untraced, one profiled, one traced and one checked pass:
           the per-layer metrics.

Every workload run is a child process (perfbench/driver.cpp) with the
REPSEQ_* environment scrubbed, so an abort counts as a failed run instead
of ending the benchmark.  Each run's checksum must equal the Sequential-mode
reference for the same input, and every simulated metric must repeat
exactly across the runs of one invocation.  NOTES.md explains the choices.
"""

import argparse
import bisect
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Workload -> the paper's total speedup on 32 nodes it compares with
# (table, row, value), for the paper-shape report.
WORKLOADS = {
    "ilink-replicated": ("3", "Ilink Optimized", 5.5),
    "ilink-base": ("3", "Ilink Original", 1.9),
    "bh-adaptive-tree": ("1", "Barnes-Hut Optimized", 10.1),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virt_total_s": "sim_s",
    "virt_seq_s": "sim_s",
    "virt_par_s": "sim_s",
    "msgs": "count",
    "data_kb": "KB",
}

# Layers a profile sample can belong to; "other" takes everything unowned.
LAYERS = ("sim", "net", "tmk", "rse", "rse.policy", "ompnow", "apps", "chk", "obs",
          "util", "other")

PER_LAYER = {
    "sim.events": "count",
    "sim.peak_live_events": "count",
    "sim.ns_per_event": "ns",
    "net.frames": "count",
    "net.bytes": "bytes",
    "net.drops": "count",
    "net.drop_ratio": "ratio",
    "net.hub_busy_max_s": "sim_s",
    "tmk.page_faults": "count",
    "tmk.diff_requests": "count",
    "tmk.recoveries": "count",
    "tmk.recovery_ratio": "ratio",
    "tmk.seq_response_ms.p50": "sim_ms",
    "tmk.seq_response_ms.p99": "sim_ms",
    "tmk.par_response_ms.p50": "sim_ms",
    "tmk.par_response_ms.p99": "sim_ms",
    "tmk.fault_wait_max_s": "sim_s",
    "tmk.fault_span_s": "sim_s",
    "rse.bracket_pct": "%",
    "rse.valid_notice_s": "sim_s",
    "rse.null_acks": "count",
    "rse.fwd_requests": "count",
    "rse.round_s": "sim_s",
    "rse.policy.sections": "count",
    "rse.policy.switches": "count",
    "rse.policy.by_strategy.master-only": "count",
    "rse.policy.by_strategy.replicated": "count",
    "rse.policy.by_strategy.broadcast": "count",
    "ompnow.seq_sections": "count",
    "ompnow.par_regions": "count",
    "alloc.count": "count",
    "alloc.bytes": "bytes",
    "alloc.per_event": "count",
    "setup.cluster_s": "s",
    "setup.world_s": "s",
    "driver.report_s": "s",
    "obs.trace_overhead_pct": "%",
    "obs.trace_events": "count",
    "obs.slabs_dropped": "count",
    "chk.check_overhead_pct": "%",
    "chk.violations": "count",
}
PER_LAYER.update({f"{layer}.self_pct": "%" for layer in LAYERS})

# Simulated quantities: the simulator is deterministic, so these must read
# exactly the same in every run of one workload, traced or checked or not.
SIMULATED = (
    "checksum", "virt_total_s", "virt_seq_s", "virt_par_s", "msgs", "data_kb",
    "sim.events", "sim.peak_live_events", "net.frames", "net.bytes", "net.drops",
    "net.hub_busy_max_s", "tmk.page_faults", "tmk.diff_requests", "tmk.recoveries",
    "tmk.seq_response_ms.p50", "tmk.seq_response_ms.p99", "tmk.par_response_ms.p50",
    "tmk.par_response_ms.p99", "tmk.fault_wait_max_s", "rse.valid_notice_s",
    "rse.null_acks", "rse.fwd_requests", "rse.policy.sections", "rse.policy.switches",
    "rse.policy.by_strategy.master-only", "rse.policy.by_strategy.replicated",
    "rse.policy.by_strategy.broadcast", "ompnow.seq_sections", "ompnow.par_regions",
)
# Host allocations repeat exactly too, but only between runs that neither
# trace nor check: both layers allocate their own records.
ALLOC_SIMULATED = ("alloc.count", "alloc.bytes")

RUN_BUDGET_S = 170.0      # every invocation must end within 180 s
CHILD_TIMEOUT_S = 120.0
MIN_TIMED_RUNS = 3
SETUPS_PER_RUN = 5
TRACE_FILTER = "tmk,rse"
TOP_SYMBOLS = 8
BRACKET_FUNCTIONS = ("repseq::rse::RseController::enter(",
                     "repseq::rse::RseController::exit(",
                     "repseq::rse::RseController::local_valid_notices(")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds the driver (both no-ops when up to date);
    returns its path."""
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs]):
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench_driver"


# ---------------------------------------------------------------------------
# Child runs
# ---------------------------------------------------------------------------

def scrubbed_env(extra=None):
    """The caller's environment without REPSEQ_*: the library reads
    REPSEQ_TRACE/CHECK/EVENTQ at construction, and an exported
    REPSEQ_CHECK=all alone adds 45-120% to a workload's wall time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPSEQ_")}
    env["TMPDIR"] = str(build_dir() / "tmp")
    env.update(extra or {})
    return env


class Runner:
    """Launches driver children and keeps the failure accounting."""

    def __init__(self, binary, workload, deadline, nodes=None):
        self.binary = binary
        self.workload = workload
        self.deadline = deadline
        self.nodes = nodes
        self.attempted = 0
        self.failures = []  # one line per failed run

    def child(self, *args, env=None):
        """Runs one driver child; returns its result dict, or None when it
        aborted, timed out or printed no result (recorded as a failure)."""
        cmd = [str(self.binary), "--workload", self.workload, *args]
        if self.nodes is not None:
            cmd += ["--nodes", str(self.nodes)]
        self.attempted += 1
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        try:
            proc = subprocess.run(cmd, env=scrubbed_env(env), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(args) or 'run'}: timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{' '.join(args) or 'run'}: exit {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def check(self, result, reference, baseline, label, keys=SIMULATED):
        """Checks one run against the Sequential reference checksum and the
        first run's simulated metrics; returns whether it passed."""
        problems = []
        if reference is not None and result["checksum"] != reference["checksum"]:
            problems.append(f"checksum {result['checksum']!r} != Sequential "
                            f"{reference['checksum']!r}")
        if baseline is not None:
            drift = [k for k in keys if result[k] != baseline[k]]
            if drift:
                problems.append("simulated metrics drifted: " + ", ".join(drift))
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems


def reference_run(runner):
    """The Sequential-mode reference (one node, same input)."""
    return runner.child("--mode", "sequential")


def timed_runs(runner, reference, seconds):
    """Fresh child processes back to back until `seconds` have elapsed
    (at least MIN_TIMED_RUNS, never past the deadline)."""
    runs = []
    start = time.monotonic()
    attempts = 0
    last = 0.0
    while True:
        if attempts >= MIN_TIMED_RUNS and time.monotonic() - start >= seconds:
            break
        if attempts > 0 and runner.deadline - time.monotonic() < 2 * last + 5:
            break
        attempts += 1
        t0 = time.monotonic()
        r = runner.child("--setups", str(SETUPS_PER_RUN))
        last = time.monotonic() - t0
        if r is None:
            continue
        base = runs[0] if runs else None
        if runner.check(r, reference, base, f"timed run {len(runs) + 1}",
                        SIMULATED + ALLOC_SIMULATED):
            runs.append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(runs):
    """Median per end-to-end metric, plus the samples for the report."""
    samples = {k: [r[k] for r in runs] for k in END_TO_END if k != "setup_s"}
    samples["setup_s"] = [s for r in runs for s in r["setup_s"]]
    return {k: statistics.median(v) for k, v in samples.items()}, samples


# ---------------------------------------------------------------------------
# Profile attribution
# ---------------------------------------------------------------------------

def _namespace_layer(qualified):
    """Layer of a name qualified as repseq::<ns>::..."""
    parts = qualified.split("::")
    if len(parts) < 2 or parts[0] != "repseq":
        return "other"
    if parts[1] == "rse" and len(parts) > 2 and parts[2] == "policy":
        return "rse.policy"
    return parts[1] if parts[1] in LAYERS else "other"


def _enclosing_function(name, at):
    """The qualified function name that ends just before index `at` (the
    '::' that introduces a lambda), skipping its parameter list, trailing
    qualifiers and template arguments."""
    j = len(re.sub(r"(?: const| volatile| ?&+)+$", "", name[:at]))
    if j > 0 and name[j - 1] == ")":
        depth = 0
        j -= 1
        while j >= 0:
            depth += {")": 1, "(": -1}.get(name[j], 0)
            if depth == 0:
                break
            j -= 1
    end = j
    depth = 0
    while j > 0:
        c = name[j - 1]
        if c == ">":
            depth += 1
        elif c == "<":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and c in " ,(":
            break
        j -= 1
    return name[j:end]


def _skeleton(symbol):
    """The symbol with the contents of every <...>, (...) and {...} removed,
    so only its top-level tokens remain."""
    out, depth = [], 0
    for c in symbol:
        if c in ")>}":
            depth -= 1
        if depth == 0:
            out.append(c)
        if c in "(<{":
            depth += 1
    return "".join(out)


def layer_of(symbol):
    """The layer owning a demangled symbol.

    Code in a repseq namespace belongs to that namespace (lambdas included:
    they are qualified by their enclosing function).  A std:: template
    instantiation belongs to its owner: the function enclosing a lambda it
    was instantiated with (so Barnes-Hut bodies run through
    std::function<void(const ompnow::Ctx&)> are apps), otherwise the first
    repseq type among its arguments (std::__insertion_sort over
    tmk::DiffPacket is tmk).  The fiber switch's assembly entry points
    (repseq_ctx_*) are sim.  Anything else is other."""
    # The function's own qualified name is the top-level token carrying the
    # parameter list; a template's return type may precede it.
    tokens = _skeleton(symbol).split(" ")
    name = next((t for t in tokens if "(" in t), tokens[0])
    if name.startswith("repseq::"):
        return _namespace_layer(re.split(r"[(<]", name)[0])
    if name.startswith("repseq_ctx_"):
        return "sim"
    lam = symbol.find("::{lambda")
    if lam >= 0:
        owner = _namespace_layer(_enclosing_function(symbol, lam))
        if owner != "other":
            return owner
    m = re.search(r"repseq::\w+(::\w+)?", symbol)
    return _namespace_layer(m.group(0)) if m else "other"


class Symbols:
    """Function address ranges of the driver binary, from nm."""

    def __init__(self, binary):
        out = subprocess.run(["nm", "-C", "-S", "--defined-only", str(binary)],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "TtWw":
                syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
        syms.sort()
        self.starts = [s[0] for s in syms]
        self.syms = syms

    def lookup(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0:
            start, size, name = self.syms[i]
            if addr < start + size:
                return name
        return None


def attribute(profile_path, symbols):
    """Per-layer self-time shares (percent, summing to 100), the RSE-bracket
    share and the hottest symbols from a driver profile file."""
    counts = dict.fromkeys(LAYERS, 0)
    by_symbol = {}
    with open(profile_path) as f:
        bias = int(f.readline().split()[1], 16)
        for line in f:
            pc_hex, n_str = line.split()
            name = symbols.lookup(int(pc_hex, 16) - bias) or "(outside the driver binary)"
            by_symbol[name] = by_symbol.get(name, 0) + int(n_str)
    for name, n in by_symbol.items():
        counts[layer_of(name)] += n
    total = sum(counts.values())
    if total == 0:
        return None, 0.0, []
    shares = {k: 100.0 * v / total for k, v in counts.items()}
    bracket = sum(n for name, n in by_symbol.items() if name.startswith(BRACKET_FUNCTIONS))
    hottest = sorted(by_symbol.items(), key=lambda kv: -kv[1])[:TOP_SYMBOLS]
    return shares, 100.0 * bracket / total, [(100.0 * n / total, name) for name, n in hottest]


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

def traced_passes(runner, reference, binary):
    """Untraced, profiled, traced and checked passes; returns the per-layer
    metrics, or None when a pass produced no result.  The untraced and
    traced passes alternate twice and the overheads compare their fastest
    runs, which keeps host noise out of the ratio."""
    tmp = build_dir() / "tmp"
    profile = tmp / f"profile-{os.getpid()}.txt"
    trace = tmp / f"trace-{os.getpid()}.json"
    trace_env = {"REPSEQ_TRACE": str(trace), "REPSEQ_TRACE_FILTER": TRACE_FILTER}
    try:
        bases, traces = [], []
        for _ in range(2):
            bases.append(runner.child())
            traces.append(runner.child(env=trace_env))
        prof = runner.child("--profile", str(profile))
        checked = runner.child(env={"REPSEQ_CHECK": "all"})
        if None in (*bases, *traces, prof, checked):
            return None
        base = bases[0]
        runner.check(base, reference, None, "untraced pass")
        runner.check(bases[1], reference, base, "untraced pass 2", SIMULATED + ALLOC_SIMULATED)
        runner.check(prof, reference, base, "profiled pass", SIMULATED + ALLOC_SIMULATED)
        for i, t in enumerate(traces):
            runner.check(t, reference, base, f"traced pass {i + 1}")
        runner.check(checked, reference, base, "checked pass")
        shares, bracket_pct, hottest = attribute(profile, Symbols(binary))
    finally:
        for p in (profile, trace):
            p.unlink(missing_ok=True)
    if shares is None:
        runner.failures.append("profiled pass: no samples")
        return None
    if abs(sum(shares.values()) - 100.0) > 1e-6:
        runner.failures.append(f"profile shares sum to {sum(shares.values())}, not 100")
    traced = traces[0]
    if traced["obs.slabs_dropped"] != 0:
        runner.failures.append(f"traced pass: {traced['obs.slabs_dropped']:.0f} trace slabs "
                               "dropped, so its span totals are incomplete")

    base_wall = min(r["wall_s"] for r in bases)
    m = {k: base[k] for k in PER_LAYER if k in base}
    m["driver.report_s"] = base["report_s"]
    m.update({f"{layer}.self_pct": v for layer, v in shares.items()})
    m["rse.bracket_pct"] = bracket_pct
    m["rse.round_s"] = traced.get("span.round_s", 0.0)
    m["tmk.fault_span_s"] = traced.get("span.page-fault_s", 0.0)
    m["obs.trace_events"] = traced["obs.trace_events"]
    m["obs.slabs_dropped"] = traced["obs.slabs_dropped"]
    m["obs.trace_overhead_pct"] = 100.0 * (min(r["wall_s"] for r in traces) / base_wall - 1.0)
    m["chk.check_overhead_pct"] = 100.0 * (checked["wall_s"] / base_wall - 1.0)
    m["chk.violations"] = checked["chk.violations"]
    print(f"profile: {prof['profile.samples']:.0f} samples; hottest symbols:")
    for pct, name in hottest:
        print(f"  {pct:5.1f}%  {layer_of(name):10s} {name[:110]}")
    return m


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def paper_shape(workload, reference, run):
    table, row, paper = WORKLOADS[workload]
    speedup = reference["virt_total_s"] / run["virt_total_s"]
    print(f"paper shape: {workload}: speedup over Sequential "
          f"{reference['virt_total_s']:.2f} / {run['virt_total_s']:.2f} = {speedup:.2f}"
          f"  (paper Table {table}, {row}, 32 nodes: {paper})")


def result(correct, runner, metrics, units):
    out = {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the simulated inputs are pinned (NOTES.md)")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1

    runner = Runner(binary, args.workload, deadline)
    reference = reference_run(runner)
    metrics = None
    if args.trace == 0:
        runs = timed_runs(runner, reference, args.seconds)
        if runs:
            metrics, samples = end_to_end(runs)
            for k in END_TO_END:
                q1, q2, q3 = quartiles(samples[k])
                print(f"{args.workload} {k:14s} median {q2:.6g} {END_TO_END[k]} "
                      f"[q1 {q1:.6g}, q3 {q3:.6g}] n={len(samples[k])}")
            if reference is not None:
                paper_shape(args.workload, reference, runs[0])
        units = END_TO_END
    else:
        metrics = traced_passes(runner, reference, binary)
        if metrics is not None:
            for k in PER_LAYER:
                print(f"{args.workload} {k:34s} {metrics[k]:.6g} {PER_LAYER[k]}")
        units = PER_LAYER

    print(f"{args.workload} error_rate {len(runner.failures) / runner.attempted:.4g} "
          f"({len(runner.failures)} of {runner.attempted} runs failed)")
    for f in runner.failures:
        print(f"FAILED {f}")
    if metrics is None:
        log("perfbench: no run produced metrics")
        return 1
    result(not runner.failures, runner, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
