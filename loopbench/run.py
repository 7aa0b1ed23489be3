#!/usr/bin/env python3
"""Build and run the loopbench benchmark (see README.md beside this file).

Run from the repository root:

    python3 loopbench/run.py --workload mandel_hetero --seed 1 --seconds 20 --trace 0

The first call configures and builds the lss library and the loopbench
binary from source into .bench_build/ (or $CARGO_TARGET_DIR when set);
later calls only let CMake confirm the build is current. The binary's
standard output is passed through; its last line is the JSON result.
The exit code is the binary's: 0 only when every checked output was
correct. Build failures exit 1 without printing a result.
"""

import argparse
import glob
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "loopbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "loopbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("loopbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "loopbench")


def source_id():
    """The git SHA when the tree is a git checkout, else a hash of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("src", "loopbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def unlink_leftover_shm(pid):
    """Removes shm segments a killed binary could not unlink itself."""
    for path in glob.glob("/dev/shm/lssbench-%d-*" % pid):
        try:
            os.unlink(path)
        except OSError:
            pass


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-scale sizes (the benchmark's own tests)")
    p.add_argument("--fault", default="none",
                   help="none|corrupt|drop: inject a wrong result (tests)")
    args = p.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fault", args.fault, "--sha", source_id(),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    # Being stopped stops the binary too (the finally below reaps it).
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
        sys.stderr.write("loopbench: run exceeded %d s, killed\n" % RUN_TIMEOUT_S)
        code = code or 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        unlink_leftover_shm(proc.pid)
    sys.exit(code)


if __name__ == "__main__":
    main()
