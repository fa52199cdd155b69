#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/xybench from source and runs one
workload.

    python3 perfbench/run.py --workload ingest|fanout|churn --seed N \
        --seconds S --trace 0|1 [--short]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`) under the checkout, and so do span files and the durable
stores of `churn`. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. Exit code 0 means the output check passed.
"""

import argparse
import ctypes
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def fixed_layout():
    """Child-side: turn off address-space randomization for the benchmark and
    the worker processes it starts. A random heap and stack placement moved
    the single-threaded `ingest` rounds by ±9% from run to run; with one fixed
    layout the same runs agree within ±3%."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "xybench",
                    "xymon_shard_worker"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """Digest of the program's sources: provenance where git is absent."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--short", action="store_true",
                        help="shrunken workload for the self-tests")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("no src/ next to perfbench/: run from a full checkout",
              file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "xybench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", os.path.join(out, "runs"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.short:
        cmd.append("--short")
    # Own process group, so a timeout also stops the shard worker processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            preexec_fn=fixed_layout)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
