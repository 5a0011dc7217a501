#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 6 --trace 0

Run from the repository root. The Go build cache, temporary files and the
binary all live under .bench_build/ in the working directory, so nothing
is written outside it. Arguments are passed through to the binary, whose
last line of standard output is the JSON result.

The first process started on a freshly built binary runs markedly slower
than later ones, so after a build that changed the binary this script
first runs a short throwaway warm-up process and reports that it did.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def digest(path):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def build():
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: the repository (go.mod) is not next to perfbench/; nothing to build")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),  # go telemetry counters
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    before = digest(BINARY)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return digest(BINARY) != before


def main():
    fresh = build()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    if fresh:
        print("perfbench: fresh build; running a throwaway warm-up process first", file=sys.stderr)
        warm = subprocess.run([BINARY, "--warm"], env=env, stdout=subprocess.DEVNULL)
        if warm.returncode != 0:
            sys.exit("perfbench: warm-up process failed")
    proc = subprocess.run([BINARY] + sys.argv[1:], env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
