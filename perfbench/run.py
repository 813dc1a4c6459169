#!/usr/bin/env python3
"""Build the benchmark and the daemons it drives from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload release|serve|stream --seed N \
        --seconds S --trace 0|1

Everything lands under $CARGO_TARGET_DIR (default .bench_build): the
binaries, the Go build cache, scratch files and span dumps. The last
line of standard output is the result JSON; the line before it records
the environment. Build failures exit non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
    )
    bindir = os.path.join(build, "bin")
    os.makedirs(bindir, exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-o", bindir + os.sep, ".",
         "repro/cmd/stpt-serve", "repro/cmd/stpt-gate"],
        cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode or 1)
    cmd = [os.path.join(bindir, "perfbench"),
           "--bin", bindir,
           "--work", os.path.join(build, "work"),
           "--src", os.path.dirname(here)] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
