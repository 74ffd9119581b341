#!/usr/bin/env python3
"""Repository benchmark for the EMISSARY simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Builds the Rust harness in this directory into $CARGO_TARGET_DIR (default
.bench_build), then runs fresh-process instances of the workload until
--seconds have passed, applies the correctness gate, and prints every
metric BENCHMARK.json declares, with its unit. With --trace 0 those are the
end-to-end metrics, from untraced instances only; with --trace 1 they are
the per-layer metrics, from traced instances interleaved with untraced
ones. The last line of stdout is the result as one JSON object. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("solo-verilator", "solo-xapian", "campaign-mix")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The seed at which every profile keeps its own seeds; golden.json holds
# the digests the unchanged simulator produces there.
GOLDEN_SEED = 0
MIN_UNTRACED = 3
# Instances stop starting this long after the clock starts, so a run ends
# well inside its time limit even when an instance hangs until killed.
HARD_LIMIT_S = 170.0
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """A defect of the benchmark or its environment: no result is printed."""


def load_spec(root=ROOT):
    """The metric declarations of BENCHMARK.json: (end_to_end, per_layer)."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
            raise BenchError(f"bad metric name or unit in BENCHMARK.json: {m}")
    return spec["end_to_end"], spec["per_layer"]


def child_env():
    """The environment of an instance: no EMISSARY_* knob leaks in from
    the caller (chaos injection, thread counts, run lengths), and the
    campaign progress line is off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EMISSARY_")}
    env["EMISSARY_PROGRESS"] = "0"
    return env


def build(target_dir):
    """Builds the harness; returns the binary's path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in (manifest, os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        if not os.path.isfile(needed):
            raise BenchError(f"{needed} not found; run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"harness build failed (exit {done.returncode})")
    return os.path.join(target_dir, "release", "emissary-perfbench")


def run_instance(binary, workload, seed, run_id, work_dir, timeout, trace_out=None):
    """Runs one instance in a fresh process. Returns (record, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--run-id", str(run_id),
           "--work-dir", work_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, f"instance {run_id} killed after {timeout:.0f} s"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        return None, f"instance {run_id} exited {done.returncode}: {done.stderr.strip()[-400:]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError) as e:
        return None, f"instance {run_id} printed no record: {e}"


class Instance:
    """One instance's record, and how many of its jobs failed."""

    def __init__(self, run_id, traced, record, error=None):
        self.run_id = run_id
        self.traced = traced
        self.record = record
        self.problems = [error] if error else list(record.get("failures", []))
        self.attempted = record["jobs_attempted"] if record else 1
        self.failed = record["jobs_failed"] if record else 1

    def fail(self, problem):
        """A cross-run check failed: every job of the instance counts."""
        self.problems.append(problem)
        self.failed = self.attempted


def gate(instances, workload, seed, golden):
    """The cross-run correctness checks. Marks failing instances and
    returns the reference digest."""
    done = [i for i in instances if i.record]
    expected = golden.get(workload) if seed == GOLDEN_SEED else None
    digests = Counter(i.record["digest"] for i in done if not i.traced)
    reference = expected or (digests.most_common(1)[0][0] if digests else None)
    base = next((i.record for i in done
                 if not i.traced and i.record["digest"] == reference), None)
    for inst in done:
        rec = inst.record
        if rec["digest"] != reference:
            what = "golden" if expected else "the run's"
            inst.fail(f"digest {rec['digest']} differs from {what} digest {reference}")
        if rec.get("second_digest", rec["digest"]) != rec["digest"]:
            inst.fail(f"replayed digest {rec['second_digest']} differs from {rec['digest']}")
        if inst.traced:
            if base is None:
                inst.fail("no untraced instance to check the traced path against")
            elif (rec["cycles"], rec["committed"]) != (base["cycles"], base["committed"]):
                inst.fail(f"traced path simulated {rec['cycles']} cycles / {rec['committed']} "
                          f"instructions, untraced {base['cycles']} / {base['committed']}")
    return reference


def tail(samples):
    """The highest whole percentile with at least TAIL_MIN_BEYOND samples
    beyond it (nearest rank): (percentile, value). Below the sample count
    that allows p50, the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(untraced):
    """End-to-end metric values from the untraced records."""
    jobs = [s for r in untraced for s in r["job_s"]]
    med = lambda key: statistics.median(r[key] for r in untraced)
    return {
        "sim_mips": med("sim_mips"),
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "job_s_p50": statistics.median(jobs),
    }


def per_layer(traced, untraced, declared):
    """Per-layer metric values: medians over the traced records, plus the
    tracing overhead against the untraced records."""
    values = {}
    for name in declared:
        if name == "obs.trace_overhead_pct":
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            untraced_wall = statistics.median(r["wall_s"] for r in untraced)
            values[name] = (traced_wall / untraced_wall - 1.0) * 100.0
            continue
        missing = [r for r in traced if name not in r["layers"]]
        if missing:
            raise BenchError(f"traced record lacks per-layer metric {name}")
        values[name] = statistics.median(r["layers"][name] for r in traced)
    return values


def result(instances, metrics, units):
    """The result object the last stdout line carries."""
    attempted = sum(i.attempted for i in instances)
    failed = sum(i.failed for i in instances)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def host_fingerprint():
    """What makes two results comparable: CPU model, usable cores, rustc."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               check=False).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"cpu": cpu, "nproc": nproc, "rustc": rustc}


def revision():
    """The code under test: git revision when this is a git checkout, and
    a digest of the sources either way."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False).stdout.strip() or None
        except OSError:
            rev = None
    h = hashlib.sha256()
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return {"git": rev or "none", "source": h.hexdigest()[:16]}


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
        return json.load(f)["digests"]


def collect(binary, args, state_dir):
    """Runs instances until --seconds have passed (and at least
    MIN_UNTRACED untraced ones, plus one traced one under --trace 1)."""
    traces = os.path.join(state_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    instances = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        untraced_n = sum(not i.traced for i in instances)
        enough = untraced_n >= MIN_UNTRACED and (untraced_n < len(instances) or not args.trace)
        if (enough and elapsed >= args.seconds) or elapsed >= HARD_LIMIT_S:
            return instances
        run_id = len(instances)
        # Traced instances alternate with untraced ones, starting untraced,
        # so both see the same host conditions.
        traced = bool(args.trace) and run_id % 2 == 1
        work_dir = os.path.join(state_dir, f"work-{os.getpid()}-{run_id}")
        trace_out = None
        if traced:
            trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}-{run_id}.jsonl")
        record, error = run_instance(binary, args.workload, args.seed, run_id, work_dir,
                                     HARD_LIMIT_S - elapsed, trace_out)
        instances.append(Instance(run_id, traced, record, error))


def report(args, instances, golden, fingerprint, out=sys.stdout):
    """Applies the gate, prints every metric with its unit, and returns
    the result object (also printed, last)."""
    end, layer = load_spec()
    declared = {m["name"]: m["unit"] for m in (layer if args.trace else end)}
    reference = gate(instances, args.workload, args.seed, golden)
    for inst in instances:
        for problem in inst.problems:
            print(f"FAILED instance {inst.run_id}: {problem}", file=out)
    ok = [i.record for i in instances if i.record and not i.problems]
    # When no instance passes, the timings of those that ran are still
    # reported, under "correct": false.
    measured = ok or [i.record for i in instances if i.record]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    if not untraced or (args.trace and not traced):
        raise BenchError("no instance produced a record")
    metrics = per_layer(traced, untraced, declared) if args.trace else end_to_end(untraced)
    res = result(instances, metrics, declared)

    host, rev = fingerprint["host"], fingerprint["revision"]
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"instances={len(instances)} ({len(traced)} traced passed)", file=out)
    print(f"host: cpu={host['cpu']!r} nproc={host['nproc']} rustc={host['rustc']!r} "
          f"git={rev['git']} source={rev['source']}", file=out)
    golden_note = "golden: n/a at this seed"
    if args.seed == GOLDEN_SEED:
        golden_note = "golden: match" if ok else "golden: MISMATCH"
    print(f"digest: {reference} ({len(ok)}/{len(instances)} instances pass; {golden_note})",
          file=out)
    counts = " ".join(f"{k}={v:.6g}" for k, v in untraced[0]["counts"].items())
    print(f"simulated: {counts}", file=out)
    print(f"failed_frac: {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6g}", file=out)
    jobs = [s for r in untraced for s in r["job_s"]]
    p, value = tail(jobs)
    print(f"job_s_tail: p{p} = {value:.6g} s over {len(jobs)} jobs", file=out)
    if "replay_s" in untraced[0]:
        print(f"replay_s: {statistics.median(r['replay_s'] for r in untraced):.6g} s", file=out)
    if traced:
        selfs = " ".join(f"{k}={v:.4g}s" for k, v in traced[0]["layer_self_s"].items())
        print(f"trace: layer self time: {selfs}", file=out)
    for name, unit in declared.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}", file=out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       **fingerprint, "result": res,
                       "instances": [i.record for i in instances if i.record]}, f)
    print(json.dumps(res), file=out)
    return res


def run(args):
    # A relative CARGO_TARGET_DIR is taken from the repository root, as
    # cargo (run there) takes it.
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target_dir)
    fingerprint = {"host": host_fingerprint(), "revision": revision()}
    golden = load_golden()
    instances = collect(binary, args, os.path.join(target_dir, "perfbench"))
    return report(args, instances, golden, fingerprint)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="also write the full result, with every instance, here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
