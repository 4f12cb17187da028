#!/usr/bin/env python3
"""Build and run gridmon's end-to-end benchmark.

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 38 --trace 0

Run from the repository root. The Go program in this directory is built
from source into .bench_build/ (its build cache, temporary files and the
binary all stay there), then run with the given arguments. Its standard
output, whose last line is the JSON result, passes through unchanged;
build output goes to standard error. A traced run (--trace 1) also
writes its spans to .bench_build/spans-<workload>.tsv.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps telemetry and settings under the user
        # config directory; keep those inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    return env


def flag_value(args, name):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def main():
    args = sys.argv[1:]
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = []
    if flag_value(args, "--trace") == "1":
        workload = flag_value(args, "--workload") or "unknown"
        extra = ["--spans", os.path.join(BUILD, "spans-%s.tsv" % workload)]
    proc = subprocess.Popen([binary] + args + extra, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
