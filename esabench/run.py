#!/usr/bin/env python3
"""Build bench_esa from source and run one workload of the ESA benchmark.

    python3 esabench/run.py --workload <ingest|drain|cluster|mixed> \
        --seed <n> --seconds <s> --trace <0|1> [bench_esa options...]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build)/esabench; the first run configures and compiles the library
and the benchmark, later runs only check that the build is up to date.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Extra arguments (--out, --work-dir) pass through to bench_esa.
Exits non-zero without a result when the build fails or the benchmark does
not finish within its time limit.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "esabench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "bench_esa", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "bench_esa")


def main():
    os.chdir(ROOT)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("esabench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--work-dir", os.path.join(build_root, "esa-work")] + sys.argv[1:]
    proc = subprocess.Popen(args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("esabench: bench_esa did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
