#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (and the repository
libraries it drives) into .bench_build on first use, runs the harness
self-tests, then runs one workload and passes its report through. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Workload parameters, including each
workload's per-request latency limit, live in perfbench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
SWITCHES = ("GNS_FUSED", "GNS_ARENA", "GNS_SKIN", "GNS_SIMD", "GNS_EXEC")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(env):
    """Configures (once) and builds the benchmark targets; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    targets = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"]
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                return False
        if subprocess.run(targets, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode == 0:
            return True
        if attempt == 0:  # a stale cache from another source path: start over
            shutil.rmtree(BUILD, ignore_errors=True)
    return False


def source_id():
    """git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    set_switches = [k for k in os.environ if k.startswith(SWITCHES)]
    if set_switches:
        log("refusing to run with %s set: the benchmark measures the shipped "
            "defaults" % ", ".join(sorted(set_switches)))
        return 2

    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)
    if args.workload not in workloads:
        log("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))
        return 2

    # Keep compiler and run scratch files inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(env):
        log("build failed")
        return 1
    binary = os.path.join(BUILD, "perfbench")
    if subprocess.run([binary + "_selftest"], stdout=sys.stderr, env=env).returncode:
        log("harness self-tests failed")
        return 1

    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fixture", os.path.join(HERE, "fixture", "columns_gns.bin"),
           "--workdir", workdir, "--commit", source_id()]
    for key, value in workloads[args.workload].items():
        cmd += ["--param", "%s=%r" % (key, value)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("workload run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
