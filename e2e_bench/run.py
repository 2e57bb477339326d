#!/usr/bin/env python3
"""End-to-end job benchmark: build, then run one workload (see README.md).

    python3 e2e_bench/run.py --workload fig4_m500 --seed 1 --seconds 25 --trace 0
    python3 e2e_bench/run.py --selftest

Run from the repository root. The first call configures and builds the
repository's `sops` library, its `sopsd` daemon and the `e2e_bench` program
from source into $CARGO_TARGET_DIR (default `.bench_build`) under
`e2e_bench/`; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the program's JSON result. Trace files
and the daemon's private socket/spill directories live in `.bench_out/`.

`--selftest` runs every workload in its seconds-long tiny mode, untraced
and traced, and asserts that each metric BENCHMARK.json names appears in
its unit and that every correctness check passed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig4_m500", "coarse_n512", "collective_16k", "sopsd_closed3")
RUN_TIMEOUT_S = 175
OUT_DIR = ".bench_out"


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build():
    """Configures once, then builds e2e_bench and sopsd. Returns their paths."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the repository root: run from a full checkout" % needed)
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "e2e_bench", "sopsd"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "e2e_bench"), os.path.join(out, "sops", "sopsd")


def commit():
    """The checkout's git commit, or 'none' when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             env=env, capture_output=True, text=True)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        return head.stdout.strip() if head.returncode == 0 else "none"
    except OSError:
        return "none"


def source_digest():
    """sha256 over the program's sources, so results of a checkout that is
    not a git work tree can still be attributed to one tree."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "e2e_bench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            paths += [os.path.join(folder, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_bench(binary, sopsd, args, capture=False):
    """Runs the benchmark program from the repository root, forwarding
    SIGINT/SIGTERM so it can stop its daemon; returns (exit code, stdout or
    None)."""
    command = [binary, "--sopsd", sopsd, "--commit", commit(),
               "--source-digest", source_digest()] + args
    child = subprocess.Popen(command, cwd=ROOT,
                             stdout=subprocess.PIPE if capture else None, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            output, _ = child.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            output, _ = child.communicate()
        print("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3, output
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return child.returncode, output


def selftest(binary, sopsd):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, output = run_bench(
                binary, sopsd,
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--tiny"], capture=True)
            lines = (output or "").strip().splitlines()
            label = "%s trace=%s" % (workload, trace)
            known = len(problems)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(label + ": no JSON result line (exit %d)" % code)
                continue
            if code != 0 or not result.get("correct"):
                failed = [l for l in lines if l.startswith("FAILED")]
                problems.append("%s: exit %d, correct=%s %s" % (label, code,
                                result.get("correct"), failed))
            metrics = result.get("metrics", {})
            for entry in names:
                got = metrics.get(entry["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (label, entry["name"]))
                elif got.get("unit") != entry["unit"]:
                    problems.append("%s: metric %s in %s, expected %s" % (
                        label, entry["name"], got.get("unit"), entry["unit"]))
            extra = set(metrics) - {entry["name"] for entry in names}
            if extra:
                problems.append("%s: unexpected metrics %s" % (label, sorted(extra)))
            print("selftest %-30s %s" % (label, "ok" if len(problems) == known else "FAILED"))
    out_dir = os.path.join(ROOT, OUT_DIR)
    leftovers = [d for d in (os.listdir(out_dir) if os.path.isdir(out_dir) else [])
                 if d.startswith("sopsd-")]
    if leftovers:
        problems.append("sopsd directories left behind: %s" % leftovers)
    for problem in problems:
        print("SELFTEST FAILED " + problem)
    print("selftest: %s" % ("passed" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required (or --selftest)")

    binary, sopsd = build()
    if args.selftest:
        return selftest(binary, sopsd)
    code, _ = run_bench(binary, sopsd,
                         ["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
