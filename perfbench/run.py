#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload read-warm --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build). Scratch data
goes to .perfbench-work and is removed when the run ends. The last line of
standard output is the JSON result; build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def commit(root):
    """The checked-out commit, when the root is a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(root, ".perfbench-work")
    work = os.path.join(scratch, str(os.getpid()))
    exe = os.path.join(target, "release", "perfbench")
    env["PERFBENCH_COMMIT"] = commit(root)
    proc = subprocess.Popen(
        [exe, *sys.argv[1:], "--work-dir", work],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
