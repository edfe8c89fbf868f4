#!/usr/bin/env python3
"""End-to-end benchmark of the adaptive string dictionary store.

Builds the benchmark program adict_perfbench (perfbench/CMakeLists.txt,
which compiles the library sources under src/) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, then runs one workload and passes its
output through.
The last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 perfbench/run.py --workload tpch_olap --seed 1 --seconds 10 --trace 0 --serve-rate 20000 --ingest-rate 5000 --latency-limit-us 2000 --query-limit-ms 1000

Workloads: tpch_olap, serve_point, ingest_mixed (see perfbench/README.md).
Every other flag is passed to adict_perfbench unchanged (--serve-rate,
--ingest-rate, --latency-limit-us, --query-limit-ms, which BENCHMARK.json's
command sets, and --sf, --plant-wrong-answer, ...). Build output goes to
standard error.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "adict_perfbench"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, env=env, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result names the
    code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    """Configures once and builds incrementally; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return False
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", out, "--target", TARGET, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir(), TARGET)
    command = [binary] + sys.argv[1:] + [
        "--expected-dir", os.path.join(HERE, "expected"),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
