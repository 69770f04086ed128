#!/usr/bin/env python3
"""Builds the end-to-end closed-loop benchmark and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload replay_benign --seed 1 --seconds 15 --trace 0

The benchmark is built with cargo into $CARGO_TARGET_DIR (default
e2ebench/target). Cargo's output goes to stderr, so the benchmark's JSON
result stays the last line of stdout. The exit code is the benchmark's:
0 when every correctness check passed, non-zero otherwise (or when the
build fails).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git commit of the checkout, or a digest of its sources when the
    checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "e2ebench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for parent, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "target" and not d.startswith("."))
                files.extend(os.path.join(parent, n) for n in sorted(names)
                             if n.endswith((".rs", ".toml", ".lock", ".json", ".py")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "e2ebench")
    env = dict(os.environ, E2EBENCH_REV=revision())
    sys.stdout.flush()
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
