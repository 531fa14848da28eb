#!/usr/bin/env python3
"""Builds the bcsim benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bcsim source tree. The simulator and the harness
are built in Release mode under .bench_build/perfbench (the first run
builds, later runs only check that the build is current); build output goes
to stderr. The harness's standard output is passed through: host
descriptor, diagnostics, and as the last line the JSON result. Any other
flag (--tiny, --pin, --inject-fault) is passed to the harness unchanged.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
BCSIM = os.path.join(BUILD, "bcsim", "tools", "bcsim")


def build():
    """Configures and builds the harness and the bcsim CLI; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no bcsim sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench_harness", "bcsim_cli"])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def revision():
    """The git revision when the tree is a checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="42")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args, extra = parser.parse_known_args()
    if not build():
        return 1
    cmd = [HARNESS, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--bcsim", BCSIM, "--revision", revision()] + extra
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
