#!/usr/bin/env python3
"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload <stream|halo|reorder_cg|churn> \\
        --seed N --seconds S --trace <0|1>

Run from the repository root.  The script builds the workload runner
(perfbench/src/main.rs, a package of its own) from source with cargo,
runs it in a child process, checks the simulated outputs, and prints as
its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs traced and reports the per-layer
ones.  The line before it is the host block.  perfbench/README.md
documents the workloads, the metrics and the measured noise.

Exit codes: 0 when every output checked out, 1 when a check failed (the
result line is still printed), 2 when the runner could not be built or
run (no result line).

`--record-digests FIRST-LAST` rewrites perfbench/digests.json with the
reference digests of seeds FIRST..LAST for every workload, for use after
an intended change of the simulated outputs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("stream", "halo", "reorder_cg", "churn")
# The tasks workloads are measured on this many workers (never more than
# the host's cores) and verified on one, whose schedule differs.
MEASURE_WORKERS = min(2, os.cpu_count() or 1)
VERIFY_WORKERS = 1
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "msgs_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_comm_gain": "ratio",
}

# Per-layer metrics; spans give p50 (and, for p2p, the tail) durations.
SPAN_P50 = (
    "p2p.send_ns",
    "p2p.recv_ns",
    "exec.launch_ns",
    "exec.join_ns",
    "coll.allreduce_ns",
    "coll.allgather_ns",
    "coll.bcast_ns",
    "coll.comm_split_ns",
    "mon.start_ns",
    "mon.suspend_ns",
    "mon.rootgather_ns",
    "mon.free_ns",
    "reorder.pipeline_ns",
    "elastic.liveness_exchange_ns",
    "elastic.comm_shrink_ns",
    "elastic.comm_grow_ns",
    "elastic.admit_ns",
    "elastic.await_rejoin_ns",
)
SPAN_TAIL = ("p2p.send_ns", "p2p.recv_ns")
# Stream rungs are cumulative; each seam's cost is its rung minus the one
# below, per message.
RUNG_DELTAS = (
    ("core.hook_ns_per_msg", "sessions", "bare"),
    ("trace.ns_per_msg", "tracer", "sessions"),
    ("chaos.ns_per_msg", "chaos", "tracer"),
    ("sched.ns_per_msg", "sched", "chaos"),
)
LAYER_COUNTS = ("mailbox.max_unexpected_depth", "nic.bytes", "nic.events")


def per_layer_units():
    units = {}
    for name in SPAN_P50:
        if name in SPAN_TAIL:
            units[name + ".p50"] = "ns"
            units[name + ".tail"] = "ns"
        else:
            units[name] = "ns"
    units["p2p.bare_ns_per_msg"] = "ns"
    for name, _, _ in RUNG_DELTAS:
        units[name] = "ns"
    units["reorder.mapping_s"] = "s"
    for name in LAYER_COUNTS:
        units[name] = "count"
    units["bench.span_overhead_pct"] = "%"
    return units


PER_LAYER = per_layer_units()


# ----- statistics ---------------------------------------------------------------


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    That is the 11th largest sample; its percentile is 100·(1 − 10/n).
    Returns (value, percentile, n).  With ten samples or fewer no
    percentile qualifies and the maximum is returned with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (1.0 - 10.0 / n), n


def spread(samples):
    """Inter-quartile distance as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def compare_digests(got, want):
    """Mismatches between two {label: hex} maps, as readable strings.

    Every label of `want` must be present in `got` with the same digest,
    and `got` may not hold labels `want` lacks.
    """
    problems = []
    for label in sorted(set(got) | set(want)):
        g, w = got.get(label), want.get(label)
        if g != w:
            problems.append(f"digest {label}: got {g}, want {w}")
    return problems


# ----- runner process -----------------------------------------------------------


def target_dir(root):
    return Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")


def build(root):
    """Build the runner; returns its path, or None when cargo failed."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir(root)))
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: cargo build failed to run: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: cargo build failed", file=sys.stderr)
        return None
    return target_dir(root) / "release" / "mim-perfbench"


def child_env(workers, verify):
    env = dict(os.environ)
    # The runner configures tracing, chaos and the executor itself; the
    # variables below would change what it measures.
    for var in ("MIM_TRACE", "MIM_TRACE_RING", "MIM_CHAOS_SEED", "MIM_CHAOS_PLAN",
                "MIM_EXECUTOR", "MIM_GATHER_ARITY", "MIM_DEADLINE_MS", "MALLOC_ARENA_MAX"):
        env.pop(var, None)
    env["MIM_WORKERS"] = str(workers)
    if verify:
        # The verify process reports the peak RSS.  With one malloc arena
        # its heap does not depend on whether each launch's new worker
        # thread finds the previous one's arena free (reorder_cg peaked at
        # either 12.7 or 17.5 MB without it).
        env["MALLOC_ARENA_MAX"] = "1"
    return env


def run_child(binary, root, args, workers, verify=False):
    """Run the runner; returns its parsed records, or None when it died."""
    try:
        done = subprocess.run(
            [str(binary), *args], cwd=root, env=child_env(workers, verify),
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: runner {' '.join(args)} failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: runner {' '.join(args)} exited {done.returncode}", file=sys.stderr)
        return None
    return parse(done.stdout)


def parse(text):
    rec = {"meta": {}, "sample": {}, "span": {}, "layer": {}, "digest": {},
           "conserve": [], "fail": []}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        parts = rest.split()
        if kind == "meta":
            rec["meta"][parts[0]] = parts[1]
        elif kind == "sample":
            rec["sample"].setdefault(parts[0], []).append(float(parts[1]))
        elif kind == "span":
            rec["span"].setdefault(parts[0], []).append(float(parts[1]))
        elif kind == "layer":
            rec["layer"].setdefault(parts[0], []).append(float(parts[1]))
        elif kind == "digest":
            rec["digest"][parts[0]] = parts[1]
        elif kind == "conserve":
            rec["conserve"].append((parts[0], int(parts[1]), int(parts[2])))
        elif kind == "fail":
            rec["fail"].append(rest)
    return rec


# ----- metrics --------------------------------------------------------------------


def median_or_zero(samples):
    return statistics.median(samples) if samples else 0.0


def end_to_end(rec, verify_rec):
    """The end-to-end metrics.  A runner that failed before producing a
    value leaves it at 0; the failure itself is reported by `correct`."""
    s, m = rec["sample"], rec["meta"]
    steps = s.get("step_ms", [])
    loop_s = float(m.get("loop_s", 0.0))
    values = {
        "msgs_per_s": int(m.get("msgs", 0)) / loop_s if loop_s else 0.0,
        "step_p50_ms": median_or_zero(steps),
        "step_tail_ms": tail(steps)[0] if steps else 0.0,
        "setup_s": median_or_zero(s.get("setup_s", [])),
        # From the one-worker verify process, whose schedule is deterministic.
        "peak_rss_mb": float(verify_rec["meta"].get("peak_rss_mb", 0.0)),
        "sim_comm_gain": float(verify_rec["meta"].get("sim_comm_gain", 1.0)),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(rec):
    spans, samples = rec["span"], rec["sample"]
    values = {}
    for name in SPAN_P50:
        durs = spans.get(name, [])
        p50 = median_or_zero(durs)
        if name in SPAN_TAIL:
            values[name + ".p50"] = p50
            values[name + ".tail"] = tail(durs)[0] if durs else 0.0
        else:
            values[name] = p50
    rung = {k[len("rung."):]: statistics.median(v)
            for k, v in samples.items() if k.startswith("rung.")}
    values["p2p.bare_ns_per_msg"] = rung.get("bare", 0.0)
    for name, upper, lower in RUNG_DELTAS:
        values[name] = rung[upper] - rung[lower] if upper in rung else 0.0
    values["reorder.mapping_s"] = median_or_zero(samples.get("reorder.mapping_s", []))
    for name in LAYER_COUNTS:
        counts = rec["layer"].get(name, [0])
        values[name] = max(counts) if name.startswith("mailbox") else statistics.median(counts)
    traced, untraced = samples.get("traced_step_ms"), samples.get("step_ms")
    overhead = 0.0
    if traced and untraced:
        overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    values["bench.span_overhead_pct"] = overhead
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


# ----- host block -----------------------------------------------------------------


def source_revision(root):
    """The git revision when the tree is a repository, else a hash of the
    sources the benchmark builds (the crates and the benchmark itself)."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in (root / "crates", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml", ".py", ".lock"):
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_block(root, rec, args):
    s = rec["sample"]
    steps = s.get("step_ms", [])
    _, pct, n = tail(steps) if steps else (0.0, 0.0, 0)
    noise_file = BENCH_DIR / "noise.json"
    noise = json.loads(noise_file.read_text()).get(args.workload) if noise_file.exists() else None
    return {
        "host": {
            "nproc": os.cpu_count(),
            "rustc": rustc_version(),
            "executor": rec["meta"].get("executor"),
            "workers": MEASURE_WORKERS if rec["meta"].get("executor") == "tasks" else None,
            "verify": {"executor": "tasks", "workers": VERIFY_WORKERS},
            "revision": source_revision(root),
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "step_samples": n,
            "step_tail_percentile": round(pct, 3),
            "setup_samples": len(s.get("setup_s", [])),
            "launches": int(rec["meta"].get("launches", 0)),
            "within_run_spread": {"step_ms": spread(steps), "setup_s": spread(s.get("setup_s", []))},
            "run_to_run_spread": noise,
        }
    }


# ----- main -------------------------------------------------------------------------


def golden_digests(workload, seed):
    path = BENCH_DIR / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def verify_args(workload, seed):
    return [workload, "--seed", str(seed), "--verify", "--executor", "tasks"]


def record_digests(root, binary, first, last):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(first, last + 1):
            rec = run_child(binary, root, verify_args(workload, seed), VERIFY_WORKERS,
                            verify=True)
            if rec is None or rec["fail"]:
                print(f"perfbench: {workload} seed {seed} failed", file=sys.stderr)
                return 2
            table[workload][str(seed)] = rec["digest"]
    (BENCH_DIR / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="FIRST-LAST")
    args = ap.parse_args(argv)
    root = Path.cwd()
    binary = build(root)
    if binary is None:
        return 2
    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        return record_digests(root, binary, int(first), int(last or first))
    if args.workload is None:
        ap.error("--workload is required")

    run_args = [args.workload, "--seed", str(args.seed % 2**64), "--seconds", str(args.seconds)]
    rec = run_child(binary, root, run_args + (["--trace"] if args.trace else []),
                     MEASURE_WORKERS)
    verify_rec = run_child(binary, root, verify_args(args.workload, args.seed % 2**64),
                            VERIFY_WORKERS, verify=True)
    if rec is None or verify_rec is None:
        return 2

    # Checks: each is one attempted operation.  The timed launches count
    # their own failures (panic, deadline, digest differing from the run's
    # first launch of the same kind); a failed reference cycle ends the
    # timed runner before its loop.
    problems = list(rec["fail"]) + list(verify_rec["fail"])
    if "loop_s" not in rec["meta"] and not rec["fail"]:
        problems.append("the timed runner ended before its timed loop")
    problems += compare_digests(verify_rec["digest"], rec["digest"])
    golden = golden_digests(args.workload, args.seed)
    if golden is not None:
        problems += compare_digests(rec["digest"], golden)
    problems += [f"conservation {name}: want {want}, got {got}"
                 for name, want, got in rec["conserve"] + verify_rec["conserve"] if want != got]
    checks = 3 + len(rec["conserve"]) + len(verify_rec["conserve"])
    attempted = int(rec["meta"].get("launches", 0)) + checks
    failed = min(attempted, len(problems))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    metrics = per_layer(rec) if args.trace else end_to_end(rec, verify_rec)
    print(json.dumps(host_block(root, rec, args)))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
