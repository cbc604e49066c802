#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo output goes to stderr; the last
stdout line is the JSON result. `--trace 0` runs the untraced binary
(end-to-end metrics), `--trace 1` the traced one (per-layer metrics).
The build lands in $CARGO_TARGET_DIR (default: perfbench/target), and
traced runs write their spans under <target dir>/perfbench-out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def commit():
    """The source commit, when the tree is a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", HERE, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    args = sys.argv[1:]
    traced = any(a == "--trace" and args[i + 1:i + 2] == ["1"] for i, a in enumerate(args))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    exe = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    env = dict(os.environ)
    env.setdefault("PERFBENCH_COMMIT", commit())
    env.setdefault("PERFBENCH_OUT", os.path.join(target, "perfbench-out"))
    sys.stdout.flush()
    os.execve(exe, [exe] + args, env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
