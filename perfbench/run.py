#!/usr/bin/env python3
"""Build and run the whole-chain mcTLS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the mcTLS libraries and the benchmark binary from ../src into
.bench_build/perfbench (first run only; later runs rebuild incrementally),
then runs the binary with the same arguments. The last line of standard
output is the benchmark's JSON result. With --trace 1 the run also writes a
Chrome/Perfetto trace to .bench_build/perfbench/trace-<workload>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mctls_chain_bench")


def build():
    """Configure once, then build incrementally. Build chatter goes to stderr
    so the benchmark's last stdout line stays its JSON result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: mcTLS sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "mctls_chain_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main(argv):
    build()
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] \
            and "--trace-out" not in args and "--workload" in args:
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]
    sys.stdout.flush()
    # A child process, not exec: the benchmark's peak RSS must not include
    # this interpreter's.
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
