#!/usr/bin/env python3
"""Build the layer-ladder benchmark from source and run it.

    python3 ladderbench/run.py --workload queue-pairs --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go module in this directory
replaces the nbqueue module with the checkout root, so the build fails
(and this script exits non-zero without a result) when the sources are
not there. The Go build cache, the binary and the traced run's spans go
to .bench_build/ at the checkout root; nothing is written elsewhere.
The arguments are passed to the benchmark unchanged; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run measures at most 60 s plus set-up, drain and, with --trace 1,
# a second pass and the ladder passes; the benchmark's own watchdogs
# fire well before this.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 600


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # go keeps its settings and telemetry under the user config dir.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "ladderbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"ladderbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("ladderbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--spans-dir", os.path.join(BUILD, "spans")] + sys.argv[1:]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"ladderbench: no result within {RUN_TIMEOUT_S}s: {sys.argv[1:]}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
