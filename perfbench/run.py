#!/usr/bin/env python3
"""Build and run the perfbench benchmark of the R3 operator path.

Run from the repository root:

    python3 perfbench/run.py --workload plan-generated --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark in perfbench/ (its own module, which
imports the repository's packages through a `replace ../` directive) into
.bench_build/ and runs it with the given arguments. Every file the build
writes (binary, Go build cache, temporary files) stays under .bench_build/
in the checkout; the directory is named by $CARGO_TARGET_DIR when that is
set. The benchmark's output, including the final JSON result line, is the
binary's standard output; build output goes to standard error. A failed
build exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return d


def go_env(out):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOMODCACHE", "go-mod"),
                     ("GOPATH", "go-path"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp")):
        path = os.path.join(out, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update({
        "GOTOOLCHAIN": "local",  # never fetch a toolchain
        "GOPROXY": "off",        # never fetch a module
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def run(cmd, **kw):
    """Run cmd to completion; on SIGTERM/SIGINT stop it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait()
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def main():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    status = run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(out),
                 stdout=sys.stderr, stderr=sys.stderr)
    if status != 0:
        print("perfbench: build failed (status %d)" % status, file=sys.stderr)
        return 1
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"), CARGO_TARGET_DIR=out)
    return run([binary] + sys.argv[1:], cwd=ROOT, env=env)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except FileNotFoundError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
