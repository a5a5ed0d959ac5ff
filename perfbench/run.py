#!/usr/bin/env python3
"""Builds perfbench and runs one workload on a single CPU.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve_warm|sim_wide|fig9_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

The arguments pass through to the `perfbench` binary unchanged; its stdout
(the report line, then the result line) is this command's stdout. The build
honours CARGO_TARGET_DIR (default: perfbench/target).

Before the binary starts, the process is pinned to one CPU. On a 2-vCPU
x86-64 VM (Intel Xeon), two copies of a fixed integer loop on two threads
take twice as long as one copy on one thread: the vCPUs share one CPU's
throughput, and letting both run made every multi-threaded timing swing by
about a fifth between identical runs, against a few percent pinned. The
workloads still configure one thread per online CPU (server workers, compile
fan-out, shot shards, amplitude-parallel sweeps); pinned, those threads are
time-sliced by the kernel on one CPU instead of by the hypervisor across two.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ]
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    binary = os.path.join(target, "release", "perfbench")
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    os.execv(binary, [binary] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
