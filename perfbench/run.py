#!/usr/bin/env python3
"""Build the benchmark from the checkout it sits in, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coupled-inproc --seed 1 --seconds 10 --trace 0

--workload all runs every workload in turn. The build and the Go caches
stay under .bench_build/ in the checkout. The last line of standard
output is the result as one JSON object; the lines before it give the
environment and a table of every metric with its unit and sample count.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT = 175  # seconds; the measurement itself stops by 150


def source_digest():
    """Digest of the checkout's Go sources, stamped in place of a commit
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".s", ".mod")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return source_digest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "staging"))):
        print("perfbench: no gospaces source tree around %s" % BENCH_DIR, file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command keeps its settings and telemetry under the user
        # config directory; keep those inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=BENCH_DIR, env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-commit", commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
