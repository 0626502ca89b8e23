#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is a CMake project of its own
(perfbench/CMakeLists.txt) over the repository's src/ libraries; it is
configured and built in Release mode into $CARGO_TARGET_DIR (default
.bench_build) on first use and rebuilt when sources change. Build output
goes to standard error, so the last line of standard output is the run's
JSON result. Stores and tables a run creates live in a scratch directory
under the build directory and are removed when the run ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1), "--target", *targets])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if result.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {result.returncode}")


def commit_id():
    """The checked-out commit when .git is present, else a source digest."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None if absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    bdir = build_dir()
    build(bdir, ["perfbench"])
    workdir = os.path.join(bdir, f"work-{os.getpid()}")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, "--commit", commit_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result line", 1)
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("result metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}", 1)


def selftest():
    bdir = build_dir()
    build(bdir, ["perfbench_test"])
    exe = os.path.join(bdir, "perfbench_test")
    if not os.path.isfile(exe):
        fail("perfbench_test was not built (GTest not found)")
    sys.exit(subprocess.run([exe], check=False).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["score_mixed_disk", "offline_day"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run(args)


if __name__ == "__main__":
    main()
