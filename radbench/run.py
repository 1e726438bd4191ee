#!/usr/bin/env python3
"""Build and run the radnet benchmark.

    python3 radbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 radbench/run.py --self-test

Run from the root of a radnet checkout. Every call configures and builds
radbench (and the radnet library it links) into .bench_build/radbench; only
the first one compiles anything. The benchmark binary prints one JSON result
object as the last line of stdout; this script passes it through together
with the binary's exit code (non-zero when an output check failed).
--self-test builds and runs the transparency test of the traced run instead.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "radbench"
RUN_TIMEOUT_S = 170


def sh(cmd, **kw):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build(target):
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries inside the checkout
    sh(["cmake", "-S", str(HERE), "-B", str(BUILD),
        "-DCMAKE_BUILD_TYPE=Release"], env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    sh(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
       env=env)
    return BUILD / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        if args.self_test:
            return subprocess.run([str(build("radbench_transparency_test"))],
                                  timeout=RUN_TIMEOUT_S).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        binary = build("radbench")
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"radbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
