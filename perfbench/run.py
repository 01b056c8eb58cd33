#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package over ../src) into .bench_build (or
$CARGO_TARGET_DIR), runs the self-test after every build that changed the
binaries, then runs one workload in its own process group and prints a
report. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Exits non-zero, without a result line, when the build,
the self-test or the metric names fail, and exits 1 after the result line
when an output check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        done = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"{' '.join(cmd[:3])} ... failed (log: {log_path})")


def binaries_stamp(cmake_dir):
    stamp = []
    for name in ("perfbench", "perfbench_selftest", "acp_billboardd"):
        path = os.path.join(cmake_dir, name)
        st = os.stat(path)
        stamp.append(f"{name}:{st.st_mtime_ns}:{st.st_size}")
    return "\n".join(stamp)


def build():
    """Configure once, build (a no-op when nothing changed), and run the
    self-test whenever the binaries differ from the last tested ones."""
    base = build_dir()
    cmake_dir = os.path.join(base, "perfbench")
    work_dir = os.path.join(base, "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(work_dir, "configure.log"))
    run_logged(["cmake", "--build", cmake_dir, "-j", BUILD_JOBS],
               os.path.join(work_dir, "build.log"))
    stamp_path = os.path.join(work_dir, "selftest.stamp")
    stamp = binaries_stamp(cmake_dir)
    previous = open(stamp_path).read() if os.path.exists(stamp_path) else ""
    if stamp != previous:
        selftest(cmake_dir, work_dir)
        with open(stamp_path, "w") as f:
            f.write(stamp)
    return cmake_dir, work_dir


def relative(path):
    # Unix socket paths are short; the workload runs from ROOT.
    rel = os.path.relpath(path, ROOT)
    return path if rel.startswith("..") else rel


def run_group(cmd, timeout):
    """Run `cmd` in its own process group; kill the group on every exit
    path so no daemon outlives the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{os.path.basename(cmd[0])} did not finish in {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def selftest(cmake_dir, work_dir):
    code, out = run_group([os.path.join(cmake_dir, "perfbench_selftest"),
                           "--daemon", os.path.join(cmake_dir, "acp_billboardd"),
                           "--work-dir", relative(work_dir)], RUN_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0:
        fail("self-test failed")


def run_workload(cmake_dir, work_dir, workload, seed, seconds, trace):
    code, out = run_group(
        [os.path.join(cmake_dir, "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--daemon", os.path.join(cmake_dir, "acp_billboardd"),
         "--work-dir", relative(work_dir)], RUN_TIMEOUT_S)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail(f"{workload}: no result (exit code {code})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: unreadable result line: {lines[-1][:200]}")


def check_names(result, spec, trace):
    """The printed metric names and units must equal the declared ones."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    printed = result.get("per_layer" if trace else "end_to_end", {})
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: printed[name]["unit"] for name in printed if name in want}
    missing = sorted(set(want) - set(printed))
    if missing or got != want:
        fail(f"printed metrics do not match BENCHMARK.json: missing {missing}, "
             f"units {sorted(set(got.items()) ^ set(want.items()))}")
    return {name: printed[name] for name in want}


def report(result, trace):
    w = result["workload"]
    fp = result["fingerprint"]
    print(f"# {w} seed {result['seed']} trials {result['trials']} "
          f"correct {result['correct']} attempted {result['attempted']} "
          f"failed {result['failed']}")
    print(f"# machine: {fp['cpu_model']}, nproc {fp['nproc']}, "
          f"gcc {fp['compiler']}, {fp['build_type']}, spin "
          f"{fp['spin_mips']:.0f} M/s, effective parallelism "
          f"{fp['effective_parallelism']:.2f}")
    for name, m in result["end_to_end"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    if not trace:
        return
    layers = result["per_layer"]
    for name, m in layers.items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    v = {name: m["value"] for name, m in layers.items()}
    parts = ["core.critical_ms", "core.round_begin_ms", "adversary.plan_ms",
             "billboard.commit_ms", "engine.self_ms", "gossip.self_ms"]
    listed = " + ".join(f"{p} {v[p]:.1f}" for p in parts)
    total = sum(v[p] for p in parts)
    print(f"# accounting {w}: {listed} = {total:.1f} ms of rounds; "
          f"wall {v['trace.wall_ms']:.1f} ms, leftover "
          f"{v['trace.leftover_ms']:.1f} ms outside rounds")
    untraced = v["trace.wall_ms"] - v["trace.overhead_ms"]
    share = v["trace.overhead_ms"] / untraced * 100 if untraced > 0 else 0.0
    print(f"# tracing overhead {w}: {v['trace.overhead_ms']:.1f} ms "
          f"({share:.1f}% of the untraced median)")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("give --workload NAME, --all or --selftest")

    cmake_dir, work_dir = build()
    if args.selftest:
        selftest(cmake_dir, work_dir)
        return 0

    ok = True
    for workload in (names if args.all else [args.workload]):
        result = run_workload(cmake_dir, work_dir, workload, args.seed,
                              args.seconds, args.trace)
        metrics = check_names(result, spec, args.trace)
        report(result, args.trace)
        ok = ok and result["correct"]
        if not args.all:
            print(json.dumps({"correct": result["correct"],
                              "attempted": result["attempted"],
                              "failed": result["failed"],
                              "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
