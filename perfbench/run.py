#!/usr/bin/env python3
"""Build circlekit and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot_groups|cold_sets|write_mix \
        --seed N --seconds S --trace 0|1

Builds the `circlekit` daemon (the `circlekit-cli` package of the
repository workspace) and the `perfbench` binary (this directory's own
package) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs `perfbench`. Build output goes to standard error, so the last
line of standard output is the result object. Run files go to
`.bench_work/<workload>/`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the run builds, for checkouts without git."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for base, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
                files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_revision():
    # Only this checkout's own repository counts, not one enclosing it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("missing --workload")
    workload = args[args.index("--workload") + 1]
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full circlekit checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "circlekit-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # stdout goes to stderr: the result must be the last stdout line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    bench = [
        os.path.join(target, "release", "perfbench"),
        *args,
        "--daemon", os.path.join(target, "release", "circlekit"),
        "--work", os.path.join(ROOT, ".bench_work", workload),
        "--rev", git_revision(),
        "--source-digest", source_digest(),
    ]
    sys.exit(subprocess.run(bench, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
