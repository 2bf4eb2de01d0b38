#!/usr/bin/env python3
"""Build the esds benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mixed-durable --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with a Go build cache kept in
the same place, so a run reads and writes only inside the checkout. The
program's standard output is passed through; its last line is the JSON
result. Any build failure exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "HOME": os.path.join(build, "home"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "esds-perfbench")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", build]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
