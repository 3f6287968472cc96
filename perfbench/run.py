#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench program (the library from src/ plus perfbench/*.cpp) into
.bench_build/perfbench, runs the workload in its own process, checks the
program's record against perfbench/reference.json (reference k_eff, exact
counts) and BENCHMARK.json (metric names), and prints the result as the last
line of standard output. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("c5g7-managed", "c5g7-decomp-cmfd", "engine-screen")
# The program's own limit, inside the 180 s a run may take.
PROGRAM_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once and builds the program; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Configuring every time keeps a reused build tree in step with the
    # CMakeLists.txt of the checkout; it takes about a second when cached.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: %s" % " ".join(cmd), 3)


def cpu_times():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def program_env():
    """The library's defaults: no ANTMOC_* knob overrides reach the run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ANTMOC_")}


def run_program(args, reference):
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(BUILD, "traces")]
    if args.smoke:
        cmd.append("--smoke")
    else:
        ref = reference["workloads"][args.workload]
        cmd += ["--k-ref", repr(ref["k_eff"]),
                "--k-pcm", repr(reference["k_pcm"])]
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=program_env(), timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("program exceeded %d s" % PROGRAM_TIMEOUT_S, 5)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("program exited with code %d" % proc.returncode, 5)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("program printed no record", 5)
    return json.loads(lines[-1])


def exact_mismatches(record, reference, smoke):
    """The determinism guard: every exact count must repeat in every run."""
    if smoke:
        return []
    expected = reference["workloads"][record["workload"]]["exact"]
    got = record["exact"]
    out = []
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            out.append("%s: expected %s, got %s"
                       % (key, expected.get(key), got.get(key)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes (the benchmark's tests)")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    build()

    steal0, total0 = cpu_times()
    started = time.time()
    record = run_program(args, reference)
    steal1, total1 = cpu_times()

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    if set(units) != set(record["metrics"]):
        fail("metric names differ from BENCHMARK.json %s: missing %s, extra %s"
             % (section, sorted(set(units) - set(record["metrics"])),
                sorted(set(record["metrics"]) - set(units))), 4)

    changed = exact_mismatches(record, reference, args.smoke)
    for line in changed:
        print("perfbench: workload changed: " + line, file=sys.stderr)
    for line in record["failures"]:
        print("perfbench: failed: " + line, file=sys.stderr)

    fingerprint = dict(record["host"])
    fingerprint.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "steal_share": ((steal1 - steal0) / (total1 - total0)
                        if total1 > total0 else 0.0),
        "wall_s": time.time() - started,
        "exact": record["exact"], "info": record["info"],
        "workload_changed": changed, "failures": record["failures"],
    })
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-smoke" if args.smoke else "")
    with open(os.path.join(runs, name), "w") as f:
        json.dump(fingerprint, f, indent=1, sort_keys=True)
    print(json.dumps({"fingerprint": fingerprint}, sort_keys=True))

    result = {
        "correct": record["failed"] == 0 and not changed
                   and record["attempted"] >= 1,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name],
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
