#!/usr/bin/env python3
"""Build the paper benchmark from source and run it.

Usage, from the repository root:

    python3 paperbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

The Go toolchain builds paperbench/ (a module of its own that uses the
repository's module through a replace directive) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to the
repository root. The Go build cache and toolchain state live there too,
so a run reads and writes nothing outside the checkout. All arguments go
to the benchmark binary; see paperbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seconds a build or a run may take before it is killed.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def build_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "paperbench")
    try:
        subprocess.run(
            ["go", "build", "-trimpath", "-o", binary, "."],
            cwd=HERE, env=build_env(build), stdout=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.SubprocessError) as err:
        print(f"paperbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT).returncode
    except (OSError, subprocess.SubprocessError) as err:
        print(f"paperbench: run failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
