#!/usr/bin/env python3
"""End-to-end benchmark of the balbench simulator.

Run from the repository root:

  python3 e2ebench/run.py --workload beff-torus --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --workload sweep-mix --seed 1 --seconds 30 --trace 1
  python3 e2ebench/run.py --self-test

The first call configures and builds the e2ebench package (CMake,
Release) into .bench_build/e2ebench; later calls only let the build
tool confirm it is up to date.  Build output goes to stderr.  The
benchmark's stdout ends with a provenance line and then one JSON result
line {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import copy
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
GOLDENS = os.path.join(HERE, "goldens.json")
WORKLOADS = ("beff-torus", "beffio-gpfs", "sweep-mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; on timeout the whole group is
    killed and reaped, so no compiler or benchmark process outlives us."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = call(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = call(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed")


def revision():
    """git revision when the checkout is a work tree, else a digest of
    the simulator and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def bench_cmd(workload, seed, seconds, trace, goldens=GOLDENS):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--bench-dir", HERE, "--goldens", goldens, "--revision", revision()]


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def self_test():
    """A wrong golden digest must fail every pass, a wrong replay count
    must fail its replay guard, and the committed goldens must pass."""
    build()
    with open(GOLDENS) as f:
        goldens = json.load(f)
    wrong_digest = copy.deepcopy(goldens)
    for key in wrong_digest["workloads"]["beffio-gpfs"]["digests"]:
        wrong_digest["workloads"]["beffio-gpfs"]["digests"][key] = "0" * 16
    wrong_replay = copy.deepcopy(goldens)
    wrong_replay["workloads"]["beffio-gpfs"]["replays"]["net"]["resolves"] += 1
    cases = [("committed goldens", goldens, 0,
              lambda r: r["correct"] and r["failed"] == 0),
             ("wrong output digest", wrong_digest, 0,
              lambda r: not r["correct"] and r["failed"] == r["attempted"] >= 1),
             ("wrong replay count", wrong_replay, 1,
              lambda r: not r["correct"] and r["failed"] == 1)]
    ok = True
    for label, data, trace, expect in cases:
        path = os.path.join(BUILD, "selftest-goldens.json")
        with open(path, "w") as f:
            json.dump(data, f)
        code, out = call(bench_cmd("beffio-gpfs", 0, 1, trace, path),
                         RUN_TIMEOUT_S, stdout=subprocess.PIPE)
        result = last_json(out.decode()) if code == 0 else None
        passed = result is not None and expect(result)
        ok = ok and passed
        print("self-test %-20s %s  %s" % (label, "ok" if passed else "FAILED",
                                          json.dumps(result and {
                                              k: result[k] for k in
                                              ("correct", "attempted", "failed")})))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    code, _ = call(bench_cmd(args.workload, args.seed, args.seconds, args.trace),
                   RUN_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
