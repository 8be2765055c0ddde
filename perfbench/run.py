#!/usr/bin/env python3
"""Build and run the norns-go benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload task-storm --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into .bench_build/
with every Go cache, temporary and configuration directory kept inside
the checkout, then run with the same arguments. Its last line of
standard output is the JSON result. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local",
               GOTELEMETRY="off", GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    # go build is incremental: after the first build of a checkout it
    # only re-links.
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                         stdout=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return res.returncode or 1
    # The benchmark runs from the checkout root and keeps its work and
    # trace files under .perfbench/ there.
    run_env = dict(os.environ)
    run_env["TMPDIR"] = env["TMPDIR"]
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
