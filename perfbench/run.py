#!/usr/bin/env python3
"""esva benchmark: builds esvabench from source and runs one workload.

    python3 perfbench/run.py --workload stream-fleet --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. esvabench (perfbench/CMakeLists.txt) is
built into $CARGO_TARGET_DIR (default .bench_build). Each repetition runs in
a fresh process; --seconds sets how many. The last stdout line is one JSON
object: correct / attempted / failed / metrics, with the end-to-end metrics
of BENCHMARK.json for --trace 0 and the per-layer metrics for --trace 1.
perfbench/README.md explains the workloads and metrics.

    python3 perfbench/run.py --selftest     # the benchmark's own tests
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-fig2", "stream-fleet", "serve-mixed")
DEFAULT_SEED = 1
REP_TIMEOUT_S = 150
# Nominal seconds of one repetition on a 4-thread host: a run of --seconds
# makes seconds / nominal repetitions (at least MIN_REPS), a fixed count, so
# the same seed and --seconds always measure the same instances.
NOMINAL_REP_S = {"batch-fig2": 0.5, "stream-fleet": 1.2}
MIN_REPS = 3
# Every timed section is bracketed by the host-speed reference
# (src/reference.h); times are reported as if the reference had taken this
# long, its time on a 4-vCPU Xeon host in a fast phase (README "Host speed").
NOMINAL_REFERENCE_MS = 4.0
# The traced run's core.* self times must sum to the request total within
# this share (the rest is core.submit.unattributed_ms).
LEDGER_TOLERANCE = 0.02


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.getcwd(), path, "perfbench")


def build(targets):
    """Configures and builds esvabench; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail(f"no esva sources next to {HERE}: run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out],
                    ["cmake", "--build", out, "-j", jobs, "--target"] + targets):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return out


def spawn(args, cwd=None, env=None):
    """Runs one repetition; returns its parsed JSON result line."""
    cmd = list(args) + ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile, as esvabench computes it in C++."""
    v = sorted(values)
    rank = math.ceil(q * len(v))
    return v[min(len(v) - 1, max(rank, 1) - 1)]


def tail_share(values):
    """Share of total request time spent in the slowest 1% of requests."""
    v = sorted(values)
    k = max(1, len(v) // 100)
    return sum(v[-k:]) / sum(v)


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def scaled(rep):
    """The repetition's request latencies and request wall time scaled to
    the nominal host speed: each segment's by the host's slowdown, the mean
    of the reference times before and after it over the nominal time."""
    refs = rep["segment_ref_ms"]
    slowdown = [(a + b) / 2 / NOMINAL_REFERENCE_MS
                for a, b in zip(refs, refs[1:])]
    size = int(rep["segment_size"])
    latency = [x / slowdown[i // size] for i, x in enumerate(rep["latency_us"])]
    wall = sum(t / f for t, f in zip(rep["segment_s"], slowdown))
    return latency, wall


def instance_seed(workload, seed, k):
    """The instance repetition k runs. batch-fig2 runs the seed's instance
    every time, so picking its fast repetitions picks host time, not easier
    instances. stream-fleet's repetition k draws its own instance, so its
    medians cover a family of instances rather than one."""
    if workload == "batch-fig2":
        return seed
    return (seed * 1000003 + k) % 2**63


def run_reps(cmd_for, reps, pair):
    """Runs `reps` repetitions; with `pair`, each repetition is an untraced
    and a traced run of the same instance, alternating which goes first.
    Returns (untraced, traced) result lists."""
    plain, traced = [], []
    for k in range(reps):
        order = ((0, 1) if k % 2 == 0 else (1, 0)) if pair else (0,)
        for t in order:
            (traced if t else plain).append(spawn(cmd_for(k, t)))
    return plain, traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.selftest:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)
    if a.workload not in WORKLOADS:
        fail(f"unknown workload {a.workload!r} (expected one of {', '.join(WORKLOADS)})")

    out = build(["esvabench", "esva_cli", "esvabench_nosync"])
    exe = os.path.join(out, "esvabench")
    fingerprint = json.loads(subprocess.run(
        [exe, "fingerprint"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    print("# fingerprint " + json.dumps(fingerprint))

    e2e, layers = {}, {}
    if a.workload == "serve-mixed":
        work = os.path.join(out, "serve-work")
        os.makedirs(work, exist_ok=True)
        # The daemon and the in-process replays run with fsync/fdatasync
        # elided, as on tmpfs: the host disk's flush latency swings by more
        # than any bound allows (README "serve-mixed").
        env = dict(os.environ,
                   LD_PRELOAD=os.path.join(out, "libesvabench_nosync.so"))
        rep = spawn([exe, a.workload, "--seed", str(a.seed), "--trace",
                     str(a.trace), "--seconds", str(a.seconds), "--esva",
                     os.path.join(out, "esva", "tools", "esva")], cwd=work,
                    env=env)
        print(f"# serve ladder {rep['ladder']}; journal on {rep['journal_fs']}"
              ", fsync elided")
        pairs = [(rep, rep)]
        samples = rep["latency_us"]
        # The reference rung runs in windows, each scaled by the host speed
        # timed around it, and reports the median window. ops_per_s is the
        # highest passing rung's rate, not a time, so it is not scaled.
        # tail_share is the daemon's own tail, from the in-process replay's
        # handle_line times: over the socket, host scheduling stalls swamp
        # it (README "serve-mixed").
        e2e = {"setup_s": rep["setup_s"] * NOMINAL_REFERENCE_MS
                          / rep["setup_ref_ms"],
               "ops_per_s": rep["ops_per_s"],
               "latency_p50_us": statistics.median(
                   p * NOMINAL_REFERENCE_MS / ref for p, ref in
                   zip(rep["window_p50_us"], rep["window_ref_ms"])),
               "tail_share": tail_share(rep["handle_us"]),
               "peak_rss_mb": rep["peak_rss_mb"]}
        layers = {k: v for k, v in rep.items() if "." in k}
        layers["host.reference_ms"] = rep["host_ref_ms"]
        layers["loadgen.tail_share"] = tail_share(samples)
        print(f"# unscaled: setup_s {rep['setup_s']:.6f}, latency_p50_us "
              f"{percentile(samples, 0.5):.2f}, host reference "
              f"{rep['host_ref_ms']:.3f} ms")
    else:
        def cmd_for(k, traced):
            check = a.workload == "stream-fleet" and k == 0 and not traced
            return [exe, a.workload, "--seed",
                    str(instance_seed(a.workload, a.seed, k)),
                    "--trace", str(traced), "--check", str(int(check))]
        count = max(MIN_REPS, int(a.seconds / NOMINAL_REP_S[a.workload]))
        if a.trace:
            count = max(2, count // 2)
        plain, traced = run_reps(cmd_for, count, pair=a.trace == 1)
        pairs = list(zip(plain, traced or plain))
        samples = [x for r in plain for x in r["latency_us"]]
        # Times are scaled to the nominal host speed per segment, then
        # summarized over repetitions by their median, except the p50, by
        # its fast quartile (README "Host speed").
        scaled_reps = [scaled(r) for r in plain]
        p50s = [percentile(lat, 0.50) for lat, _ in scaled_reps]
        e2e = {"setup_s": statistics.median(
                   r["setup_s"] * NOMINAL_REFERENCE_MS / r["segment_ref_ms"][0]
                   for r in plain),
               "ops_per_s": statistics.median(
                   len(lat) / wall for lat, wall in scaled_reps),
               "latency_p50_us": percentile(p50s, 0.25),
               "tail_share": statistics.median(
                   tail_share(r["latency_us"]) for r in plain),
               "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        if traced:
            layers = {k: median_of(traced, k) for k, v in traced[0].items()
                      if isinstance(v, (int, float)) and "." in k}
            layers["trace.overhead"] = statistics.median(
                t["wall_s"] / p["wall_s"] for p, t in pairs) - 1.0
            layers["host.reference_ms"] = median_of(traced, "host_ref_ms")
        print(f"# {len(plain)} untraced + {len(traced)} traced repetitions; "
              f"unscaled medians: setup_s {median_of(plain, 'setup_s'):.6f}, "
              f"ops_per_s {median_of(plain, 'ops_per_s'):.1f}, latency_p50_us "
              f"{statistics.median(percentile(r['latency_us'], 0.5) for r in plain):.2f}"
              f", host reference {median_of(plain, 'host_ref_ms'):.3f} ms")
    layers["request.p99_us"] = percentile(samples, 0.99)
    if len(samples) >= 10000:  # at least ten samples beyond p99.9
        layers["request.p999_us"] = percentile(samples, 0.999)
    print(f"# {len(samples)} latency samples: p50 {e2e['latency_p50_us']:.1f} us, "
          f"p99 {layers['request.p99_us']:.1f} us, tail share "
          f"{e2e['tail_share']:.3f}")

    # --- correctness -------------------------------------------------------
    reps = list({id(r): r for p in pairs for r in p}.values())
    errors = [r["error"] for r in reps if r["error"]]
    for _, t in pairs:
        total = t.get("core.submit.total_ms", 0.0)
        if total and abs(t["core.submit.unattributed_ms"]) > LEDGER_TOLERANCE * total:
            errors.append("core.* self times do not add up to the request total")
    for p, t in pairs:
        if (p["digest"], p["energy_hex"]) != (t["digest"], t["energy_hex"]):
            errors.append("traced and untraced runs of one instance disagree")
    digest, energy_hex = pairs[0][0]["digest"], pairs[0][0]["energy_hex"]
    print(f"# first instance: assignment digest {digest}, energy {energy_hex}")
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f).get(a.workload, {})
    if (a.seed == golden.get("seed") and
            a.seconds == golden.get("seconds", a.seconds) and
            (digest, energy_hex) != (golden["digest"], golden["energy_hex"])):
        errors.append(f"golden mismatch: expected {golden['digest']} "
                      f"{golden['energy_hex']}")
    for e in errors:
        print(f"# check failed: {e}")
    correct = not errors
    attempted = sum(int(r["attempted"]) for r in reps)
    failed = attempted if not correct else sum(int(r["failed"]) for r in reps)

    if a.trace:
        print("# layers " + json.dumps(layers, sort_keys=True))
    values = e2e if a.trace == 0 else layers
    wanted = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("# not measured on this workload (reported as 0): " + ", ".join(missing))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
