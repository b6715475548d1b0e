#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to
the repository root; its output goes to stderr so the result record stays
the last line of stdout. The benchmark's exit code is passed through: 0 when
every output was correct, 1 when the correctness gate failed, 2 on an error.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(target):
    """Configure (once) and build \\p target; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / target


def source_digest():
    """SHA-256 over the repository sources the benchmark builds (path + bytes)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no repository sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if argv == ["--selftest"]:
            return subprocess.run([str(build("perfbench_test"))]).returncode
        binary = build("perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *argv, "--trace-dir", str(traces), "--commit", commit(),
           "--source-digest", source_digest()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
