#!/usr/bin/env python3
"""Build and run the campaign -> publish -> serve pipeline benchmark.

One run of one workload:

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the pipebench binary from the repo's sources (into .bench_build/, or
$CARGO_TARGET_DIR when set), runs it, and prints its output. The last line
is one JSON object {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. The exit code is non-zero when an output check failed, the
build failed or the result line is incomplete.

Steadiness mode runs one workload N times, with seeds first..first+N-1, and
prints for each end-to-end metric its median, quartiles and spread against
the bound in BENCHMARK.json:

    python3 pipebench/run.py --workload <name> --steadiness 10 [--seed 1] [--seconds 10]

Run from the repo root (or anywhere: paths are resolved from this file).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CAMPAIGN_THREADS = "4"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build the pipebench target; returns the binary."""
    out = build_dir() / "pipebench"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "--target", "pipebench",
                        "-j", "4"], check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    return out / "pipebench"


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR / "src"):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(binary, args):
    env = dict(os.environ, GEOLOC_THREADS=CAMPAIGN_THREADS)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_dir() / "run"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"pipebench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("pipebench: no result line")
        return 1
    kind = "per_layer" if args.trace == 1 else "end_to_end"
    missing = [m["name"] for m in load_spec()[kind]
               if m["name"] not in result.get("metrics", {})]
    if set(result) != {"correct", "attempted", "failed", "metrics"} or missing:
        log(f"pipebench: incomplete result line, missing {missing}")
        return 1
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log("pipebench: an output check failed")
        return proc.returncode or 1
    return 0


def steadiness(args):
    """Run the workload args.steadiness times; print spread per metric."""
    spec = load_spec()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.steadiness):
        seed = args.seed + i
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            log(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.5g}" for n, v in values.items()))
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO WIDE")
        print(f"{m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound:6.3f}  {verdict}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="run N seeds and report each metric's spread")
    args = p.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"pipebench: no geoloc sources under {ROOT}")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"pipebench: build failed: {e}")
        return 2
    if args.steadiness:
        return steadiness(args)
    return run_once(binary, args)


if __name__ == "__main__":
    sys.exit(main())
