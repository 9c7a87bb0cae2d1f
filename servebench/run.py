#!/usr/bin/env python3
"""tbnet serving benchmark: builds servebench from source and runs one workload.

Run from the repository root:

  python3 servebench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 servebench/run.py --self-test

The first run configures and builds servebench/CMakeLists.txt (the tbnet
library from src/ plus servebench.cpp, Release) into $CARGO_TARGET_DIR
(default .bench_build)/servebench; later runs rebuild only what changed.

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric. The traced run writes Chrome trace-event JSON to
<build>/traces/, and the per-layer self times are computed from that file.
The last stdout line is the result:
  {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
The line before it is the run record (host, ISA tiers, pool widths, build
type, commit, device profile, seed, tracing overhead). A failed correctness
check exits non-zero and names the check on stderr.

--self-test runs every workload for a few seconds, checks that each metric of
BENCHMARK.json is emitted with its unit, and checks that a deliberately
corrupted probe makes the correctness checks fire.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict

WORKLOADS = ("resnet_interactive", "resnet_offline_b16", "mobilenet_int8_overload")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = os.path.join(build_root(), "servebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 2)
    return os.path.join(out, "servebench")


def bench_spec():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json from the repository root: {e}", 2)


def clean_env():
    # The workload fixes its own kernel pool width; no inherited TBNET_*
    # setting (fault injection, deterministic kernels, spin stalls, pool
    # size) may change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("TBNET_")}


def run_binary(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs one workload; returns (exit code, parsed result or None, stderr)."""
    root = build_root()
    cache = os.path.join(root, "cache")
    traces = os.path.join(root, "traces")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, f"{workload}-seed{seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cache-dir", cache]
    if trace:
        cmd += ["--trace-file", trace_file]
    if corrupt:
        cmd.append("--corrupt-probe")
    proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    result = None
    if proc.returncode == 0:
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if trace:
            result["trace_file"] = trace_file
    return proc.returncode, result, proc.stderr


# ------------------------------------------------------------- trace file --
def self_times(events):
    """Self time (ms) of every complete span: its duration minus the part of
    it that its direct child spans on the same track cover."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append(e)
    selfs = []
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            e["_child"] = 0.0
            # A child lies wholly inside its parent (ts are rounded to 1 ns).
            while stack and e["ts"] + e["dur"] > stack[-1]["ts"] + stack[-1]["dur"] + 0.002:
                stack.pop()
            if stack:
                stack[-1]["_child"] += e["dur"]
            stack.append(e)
        selfs.extend(spans)
    for e in selfs:
        e["self_ms"] = (e["dur"] - e["_child"]) / 1e3
    return selfs


def trace_metrics(path, stage_macs, stages):
    """Per-layer metrics derived from the trace file, at the engine's modal
    batch size: the engine.infer_batch median and its split into replayed
    nn REE compute + replayed nn TEE compute + injected TEE stall + the
    boundary's self time (marshaling, channel copies, TA dispatch)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = self_times(events)
    engine = [e for e in spans if e["name"] == "engine.infer_batch"]
    if not engine:
        fail("trace has no engine.infer_batch spans", 1)
    sizes = Counter(e["args"]["n"] for e in engine)
    modal = max(sizes, key=lambda n: (sizes[n], n))
    at = [e for e in engine if e["args"]["n"] == modal]
    med = statistics.median
    batch_ms = med(e["dur"] / 1e3 for e in at)
    stalls = [e for e in spans if e["name"] == "tee.injected_stall"]
    stall_by_start = {(e["tid"], e["ts"]): e["dur"] / 1e3 for e in stalls}
    stall_ms = med(stall_by_start[(e["tid"], e["ts"])] for e in at)

    # Replay: per-stage REE/TEE time at the modal size, one replay each. A
    # stage span belongs to the replay span on its track that contains it.
    replays = defaultdict(lambda: defaultdict(float))
    by_track = defaultdict(list)
    for e in spans:
        if e["name"] == "nn.replay" and e["args"]["n"] == modal:
            by_track[e["tid"]].append(e)
    for e in spans:
        if not e["name"].startswith("nn.stage") or e["args"]["n"] != modal:
            continue
        for r in by_track[e["tid"]]:
            if r["ts"] <= e["ts"] <= r["ts"] + r["dur"]:
                replays[id(r)][e["name"]] += e["self_ms"]
                break
    if not replays:
        fail(f"trace has no nn replay at batch size {modal}", 1)
    reps = list(replays.values())
    ree_batch = med(sum(v for k, v in r.items() if k.endswith(".ree")) for r in reps)
    tee_batch = med(sum(v for k, v in r.items() if k.endswith(".tee")) for r in reps)
    boundary = batch_ms - ree_batch - tee_batch - stall_ms

    all_images = sum(e["args"]["n"] for e in engine)
    m = {
        "engine.batch_ms_p50": (batch_ms, "ms"),
        "engine.ms_per_image": (sum(e["dur"] for e in engine) / 1e3 / all_images, "ms"),
        "engine.world_switches_per_image": (med(e["args"]["switches"] for e in at) / modal, "count"),
        "tee.injected_stall_share": (stall_ms / batch_ms, "share"),
        "tee.channel_bytes_per_image": (med(e["args"]["bytes"] for e in at) / modal, "bytes"),
        "tee.boundary_self_ms_per_batch": (boundary, "ms"),
        "nn.ree_ms_per_image": (ree_batch / modal, "ms"),
        "nn.tee_ms_per_image": (tee_batch / modal, "ms"),
    }
    # Per stage: the fused stages every model has (stem and the first eight
    # blocks), then the classifier head, the last stage, which is TEE-only.
    nstages = len(stage_macs) // 2
    for label, s in [(f"stage{i:02d}", i) for i in range(stages)] + [("head", nstages - 1)]:
        ree = med(r.get(f"nn.stage{s:02d}.ree", 0.0) for r in reps)
        tee = med(r.get(f"nn.stage{s:02d}.tee", 0.0) for r in reps)
        macs = sum(stage_macs[2 * s:2 * s + 2]) * modal
        if label != "head":
            m[f"nn.{label}.ree_ms"] = (ree, "ms")
        m[f"nn.{label}.tee_ms"] = (tee, "ms")
        m[f"nn.{label}.gmacs"] = (macs / (ree + tee) / 1e6, "GMAC/s")
    split = {"modal_batch": modal, "batches_at_modal": len(at),
             "batch_ms_p50": batch_ms, "nn_ree_ms": ree_batch,
             "nn_tee_ms": tee_batch, "tee_injected_stall_ms": stall_ms,
             "tee_injected_stall_ms_per_image": stall_ms / modal,
             "tee_boundary_self_ms": boundary}
    return m, split


# ------------------------------------------------------------------ record --
def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def comparability(record):
    """Flags results whose ISA tiers differ from the first run in this build
    directory: kernel tiers change every timing, so such results are not
    comparable."""
    path = os.path.join(build_root(), "isa_baseline.json")
    tiers = {"isa": record.get("isa"), "int8_isa": record.get("int8_isa")}
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(tiers, f)
        return True
    with open(path) as f:
        return json.load(f) == tiers


def pick(spec_metrics, produced, what):
    picked = {}
    for m in spec_metrics:
        name = m["name"]
        if name not in produced:
            fail(f"metric {name} ({what}) was not produced", 1)
        value, unit = produced[name]
        if unit != m["unit"]:
            fail(f"metric {name} has unit {unit}, BENCHMARK.json says {m['unit']}", 1)
        picked[name] = {"value": value, "unit": unit}
    return picked


def measure(binary, spec, workload, seed, seconds, trace, corrupt=False):
    """One run: returns (final result line, record) or exits non-zero."""
    code, result, err = run_binary(binary, workload, seed, seconds, trace, corrupt)
    if code != 0:
        sys.stderr.write(err)
        fail(f"workload {workload} failed (exit {code})", code)
    produced = {k: tuple(v) for k, v in result["metrics"].items()}
    record = result["record"]
    checks = dict(result["checks"])
    if trace:
        tm, split = trace_metrics(result["trace_file"],
                                  record["stage_macs_per_image"],
                                  stage_count(spec))
        produced.update(tm)
        record["engine_batch_split_ms"] = split
        record["trace_file"] = os.path.relpath(result["trace_file"])
        if split["tee_boundary_self_ms"] < 0:
            fail("CHECK FAILED: boundary_self_nonnegative: replayed compute + "
                 f"stall exceed the engine batch time ({split})", 3)
        checks["boundary_self_nonnegative"] = True
    if not all(checks.values()):
        fail(f"CHECK FAILED: {checks}", 3)
    record["checks"] = checks
    record["commit"] = git_commit()
    record["comparable_isa"] = comparability(record)
    if not record["comparable_isa"]:
        print("servebench: warning: ISA tiers differ from this build "
              "directory's first run; results are not comparable",
              file=sys.stderr)
    metrics = pick(spec["per_layer"] if trace else spec["end_to_end"], produced,
                   "per_layer" if trace else "end_to_end")
    line = {"correct": all(checks.values()), "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    return line, record


def stage_count(spec):
    return sum(1 for m in spec["per_layer"]
               if m["name"].startswith("nn.stage") and m["name"].endswith(".gmacs"))


def self_test(binary, spec):
    """Smoke mode: every metric with its unit on every workload, and the
    correctness checks fire on a corrupted probe."""
    for wl in WORKLOADS:
        for trace in (False, True):
            line, _ = measure(binary, spec, wl, 1, 6, trace)
            print(f"self-test: {wl} trace={int(trace)}: "
                  f"{len(line['metrics'])} metrics ok", file=sys.stderr)
        code, _, err = run_binary(binary, wl, 1, 1, False, corrupt=True)
        fired = [l for l in err.splitlines() if l.startswith("CHECK FAILED")]
        if code == 0 or not fired:
            fail(f"self-test: corrupted probe on {wl} was not caught", 1)
        print(f"self-test: {wl} corrupted probe caught: {fired[0]}",
              file=sys.stderr)
    print("self-test: ok", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    spec = bench_spec()
    binary = build()
    if args.self_test:
        self_test(binary, spec)
        return
    line, record = measure(binary, spec, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump({"result": line, "record": record}, f, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
