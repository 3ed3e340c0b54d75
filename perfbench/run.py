#!/usr/bin/env python3
"""Build the memtherm benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload ch4_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all                # every workload, in turn
    python3 perfbench/run.py --selfcheck          # the benchmark's own tests
    python3 perfbench/run.py --write-reference    # regenerate reference/*.json

Run it from the root of the checkout. It configures and builds the
perfbench CMake package (the memtherm library plus the driver) under
.bench_build/, runs the driver in a scratch directory under .bench_build/
and removes that directory afterwards. The driver's last stdout line is
the JSON result; build output goes to stderr.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["ch4_grid", "policy_sweep_batched", "bank_grid_stream"]
DEFAULT_SEED = 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no memtherm sources next to perfbench/ (run from a checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                 "memtherm_bench", "perfbench_selfcheck"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit, or a hash of the sources when not a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def run_driver(args):
    """Run the driver in its own scratch directory; return its exit code."""
    workdir = os.path.join(BUILD_ROOT, "work",
                           "%s-%d" % (args[1], os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        cmd = [os.path.join(BUILD_DIR, "memtherm_bench")] + args + [
            "--workdir", os.path.relpath(workdir, ROOT),
            "--reference-dir", os.path.relpath(
                os.path.join(HERE, "reference"), ROOT),
            "--commit", source_id()]
        return subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload in turn")
    p.add_argument("--selfcheck", action="store_true",
                   help="build and run the benchmark's own tests")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference/<workload>.json (default seed)")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (a.workload or a.all or a.selfcheck or a.write_reference):
        fail("give --workload <name>, --all, --selfcheck or "
             "--write-reference")

    build()
    os.chdir(ROOT)
    if a.selfcheck:
        workdir = os.path.join(BUILD_ROOT, "work", "selfcheck-%d" % os.getpid())
        try:
            rc = subprocess.run(
                [os.path.join(BUILD_DIR, "perfbench_selfcheck"),
                 "--workdir", os.path.relpath(workdir, ROOT)]).returncode
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(rc)
    if a.write_reference:
        rc = 0
        for w in WORKLOADS:
            rc |= run_driver(["--workload", w, "--seed", str(DEFAULT_SEED),
                              "--write-reference", os.path.relpath(
                                  os.path.join(HERE, "reference", w + ".json"),
                                  ROOT)])
        sys.exit(rc)
    rc = 0
    for w in (WORKLOADS if a.all else [a.workload]):
        rc |= run_driver(["--workload", w, "--seed", str(a.seed),
                          "--seconds", "%g" % a.seconds,
                          "--trace", str(a.trace)])
    sys.exit(rc)


if __name__ == "__main__":
    main()
