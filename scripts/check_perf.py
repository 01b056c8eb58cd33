#!/usr/bin/env python3
"""Validate a BENCH_PERF.json produced by bench/perf_substrate.

Two gates, both deliberately coarse (CI machines are noisy; this is a
smoke test against gross regressions, not a profiler):

  1. schema + speedups: the file must be "acp.perf.v1", every bench row
     must carry sane positive numbers, and every recorded speedup (new
     path vs in-bench legacy reimplementation) must stay >= --min-speedup
     (default 5.0). Speedups are a *ratio measured in the same process on
     the same machine*, so they are hardware-independent and get a hard
     floor.
  2. baseline comparison (optional, --baseline): each bench's ns_per_op
     must not exceed the checked-in baseline by more than --max-ratio
     (default 3.0). Absolute times vary across machines, hence the
     generous multiplier; a >3x slowdown on any substrate path is a real
     regression, not noise.
  3. parallel scaling: the distill_parallel_round_n100k_t1 / _t4 ratio
     must stay >= --min-parallel-speedup (default 2.0) — but only when
     the producing machine recorded hw_threads >= 4. When hw_threads >=
     8, the t1 / _t8 ratio is additionally held to
     --min-parallel-speedup-t8 (default 3.0): with the staged three-phase
     kernel the old serial-apply plateau would fail this row. A machine
     without the cores cannot demonstrate the scaling, so each row
     prints SKIP there instead of failing. Parallel rows deliberately do
     not appear in speedups[] (gate 1): the 5x floor there is for
     algorithmic rewrites, not thread scaling.
  4. gossip wire cost: wire.reduction (legacy exchange bits per round
     divided by digest+delta bits per round, measured by the in-process
     io.* registry counters on the same workload) must stay >=
     --min-wire-reduction (default 10.0). Like the speedups, this is a
     same-process ratio under a deterministic wire-size model, so it is
     machine-independent and gets a hard floor.
  5. billboard service: every services[] record (bbload workload against
     an in-process BillboardServer on a Unix socket, one record per
     server geometry) must report zero errors and posts_per_sec >=
     --min-service-posts-per-sec (default 50000 — a deliberately low
     floor; even a single-core machine sustains >10x that). With
     --baseline, each record's read_p99_ns (tail-pull latency) must not
     exceed its baseline counterpart's by more than
     --max-service-p99-ratio (default 5.0; tail latencies are the
     noisiest number here, hence the widest multiplier). A record with
     no baseline read_p99_ns fails rather than skipping the gate.
  6. service scaling: billboard_service_unix_t4 / _t1 posts_per_sec must
     stay >= --min-service-scaling (default 2.0) — but only when the
     producing machine recorded hw_threads >= 4; below that the row
     prints SKIP (a machine without the cores cannot demonstrate the
     sharded server's scaling).
  7. commit pipelining: service_pipelining.speedup (the identical
     512-client workload with 16 in-flight commits per connection vs
     one) must stay >= --min-pipeline-speedup (default 3.0). Like the
     other speedups this is a same-process, same-machine ratio —
     pipelining collapses per-commit round trips, so it holds on any
     hardware and gets a hard floor.

Exit code 0 = pass, 1 = regression/invalid input. Stdlib only.
"""

import argparse
import json
import sys


REQUIRED_BENCH_KEYS = ("name", "reps", "items", "ns_per_op", "items_per_sec",
                       "total_ms")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"check_perf: cannot read {path}: {err}")


def validate_schema(doc, path):
    errors = []
    if doc.get("schema") != "acp.perf.v1":
        errors.append(f"schema is {doc.get('schema')!r}, want 'acp.perf.v1'")
    benches = doc.get("benches")
    if not isinstance(benches, list) or not benches:
        errors.append("benches[] missing or empty")
        benches = []
    for bench in benches:
        name = bench.get("name", "<unnamed>")
        for key in REQUIRED_BENCH_KEYS:
            if key not in bench:
                errors.append(f"bench {name}: missing key {key!r}")
        for key in ("reps", "items", "ns_per_op", "items_per_sec"):
            value = bench.get(key)
            if isinstance(value, (int, float)) and value <= 0:
                errors.append(f"bench {name}: {key} = {value} (must be > 0)")
    if not isinstance(doc.get("speedups"), list):
        errors.append("speedups[] missing")
    for error in errors:
        print(f"check_perf: {path}: {error}", file=sys.stderr)
    return not errors


def check_speedups(doc, min_speedup):
    ok = True
    speedups = doc.get("speedups") or []
    if not speedups:
        print("check_perf: no speedup records found", file=sys.stderr)
        return False
    for record in speedups:
        name = record.get("name", "<unnamed>")
        speedup = record.get("speedup", 0.0)
        status = "ok" if speedup >= min_speedup else "FAIL"
        print(f"  speedup {name} vs {record.get('baseline')}: "
              f"{speedup:.1f}x (floor {min_speedup}x) {status}")
        if speedup < min_speedup:
            ok = False
    return ok


def check_parallel_scaling(doc, min_parallel_speedup, min_parallel_speedup_t8):
    benches = {b.get("name"): b for b in doc.get("benches", [])}
    t1 = benches.get("distill_parallel_round_n100k_t1")
    t4 = benches.get("distill_parallel_round_n100k_t4")
    t8 = benches.get("distill_parallel_round_n100k_t8")
    if t1 is None or t4 is None or t8 is None:
        print("check_perf: parallel scaling rows "
              "distill_parallel_round_n100k_t{1,4,8} missing",
              file=sys.stderr)
        return False
    hw = doc.get("hw_threads", 0)
    if not isinstance(hw, int):
        hw = 0
    ok = True
    for row, floor, need_hw in ((t4, min_parallel_speedup, 4),
                                (t8, min_parallel_speedup_t8, 8)):
        tN = f"t1/t{need_hw}"
        ratio = t1["ns_per_op"] / row["ns_per_op"] \
            if row["ns_per_op"] > 0 else 0.0
        if hw < need_hw:
            print(f"  parallel scaling {tN}: {ratio:.2f}x "
                  f"SKIP (hw_threads={hw} < {need_hw}, cannot demonstrate "
                  f"{need_hw}-way scaling)")
            continue
        status = "ok" if ratio >= floor else "FAIL"
        print(f"  parallel scaling {tN}: {ratio:.2f}x "
              f"(floor {floor}x, hw_threads={hw}) {status}")
        if ratio < floor:
            ok = False
    return ok


def check_wire_reduction(doc, min_wire_reduction):
    wire = doc.get("wire")
    if not isinstance(wire, dict):
        print("check_perf: wire{} record missing", file=sys.stderr)
        return False
    name = wire.get("name", "<unnamed>")
    digest = wire.get("digest_bits_per_round", 0.0)
    exchange = wire.get("exchange_bits_per_round", 0.0)
    reduction = wire.get("reduction", 0.0)
    if digest <= 0 or exchange <= 0:
        print(f"check_perf: wire {name}: non-positive bits per round",
              file=sys.stderr)
        return False
    status = "ok" if reduction >= min_wire_reduction else "FAIL"
    print(f"  wire {name}: digest {digest / 1e3:.0f} kbit/round vs exchange "
          f"{exchange / 1e3:.0f} kbit/round -> {reduction:.1f}x "
          f"(floor {min_wire_reduction}x) {status}")
    return reduction >= min_wire_reduction


def check_services(doc, baseline, min_posts_per_sec, max_p99_ratio):
    services = doc.get("services")
    if not isinstance(services, list) or not services:
        print("check_perf: services[] missing or empty", file=sys.stderr)
        return False
    base_by_name = {s.get("name"): s
                    for s in (baseline or {}).get("services", [])
                    if isinstance(s, dict)}
    ok = True
    for service in services:
        name = service.get("name", "<unnamed>")
        errors = service.get("errors", -1)
        if errors != 0:
            print(f"  service {name}: {errors} errors (want 0) FAIL")
            ok = False
        rate = service.get("posts_per_sec", 0.0)
        status = "ok" if rate >= min_posts_per_sec else "FAIL"
        print(f"  service {name}: {rate / 1e3:.0f} k posts/s "
              f"(floor {min_posts_per_sec / 1e3:.0f}k) {status}")
        if rate < min_posts_per_sec:
            ok = False
        if baseline is None:
            continue
        base = base_by_name.get(name)
        if not isinstance(base, dict) or base.get("read_p99_ns", 0) <= 0:
            print(f"  service {name}: no baseline read_p99_ns FAIL")
            ok = False
        else:
            p99 = service.get("read_p99_ns", 0)
            ratio = p99 / base["read_p99_ns"]
            status = "ok" if ratio <= max_p99_ratio else "FAIL"
            print(f"  service {name}: read p99 {p99 / 1e3:.0f} us vs "
                  f"baseline {base['read_p99_ns'] / 1e3:.0f} us "
                  f"({ratio:.2f}x, limit {max_p99_ratio}x) {status}")
            if ratio > max_p99_ratio:
                ok = False
    return ok


def check_service_scaling(doc, min_service_scaling):
    services = {s.get("name"): s for s in doc.get("services", [])
                if isinstance(s, dict)}
    t1 = services.get("billboard_service_unix_t1")
    t4 = services.get("billboard_service_unix_t4")
    if t1 is None or t4 is None:
        print("check_perf: service scaling rows "
              "billboard_service_unix_t{1,4} missing", file=sys.stderr)
        return False
    hw = doc.get("hw_threads", 0)
    if not isinstance(hw, int):
        hw = 0
    ratio = t4.get("posts_per_sec", 0.0) / t1["posts_per_sec"] \
        if t1.get("posts_per_sec", 0.0) > 0 else 0.0
    if hw < 4:
        print(f"  service scaling t1->t4: {ratio:.2f}x "
              f"SKIP (hw_threads={hw} < 4, cannot demonstrate 4-way "
              f"scaling)")
        return True
    status = "ok" if ratio >= min_service_scaling else "FAIL"
    print(f"  service scaling t1->t4: {ratio:.2f}x "
          f"(floor {min_service_scaling}x, hw_threads={hw}) {status}")
    return ratio >= min_service_scaling


def check_pipelining(doc, min_pipeline_speedup):
    record = doc.get("service_pipelining")
    if not isinstance(record, dict):
        print("check_perf: service_pipelining{} record missing",
              file=sys.stderr)
        return False
    name = record.get("name", "<unnamed>")
    single = record.get("single_posts_per_sec", 0.0)
    piped = record.get("pipelined_posts_per_sec", 0.0)
    speedup = record.get("speedup", 0.0)
    if single <= 0 or piped <= 0:
        print(f"check_perf: pipelining {name}: non-positive posts/sec",
              file=sys.stderr)
        return False
    status = "ok" if speedup >= min_pipeline_speedup else "FAIL"
    print(f"  pipelining {name}: {piped / 1e3:.0f} k vs {single / 1e3:.0f} k "
          f"posts/s -> {speedup:.1f}x (floor {min_pipeline_speedup}x) "
          f"{status}")
    return speedup >= min_pipeline_speedup


def check_against_baseline(doc, baseline, max_ratio):
    current = {b["name"]: b for b in doc.get("benches", [])}
    ok = True
    for base in baseline.get("benches", []):
        name = base["name"]
        if name not in current:
            print(f"  baseline bench {name}: MISSING from current run",
                  file=sys.stderr)
            ok = False
            continue
        base_ns = base["ns_per_op"]
        cur_ns = current[name]["ns_per_op"]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        delta = 100.0 * (ratio - 1.0)
        status = "ok" if ratio <= max_ratio else "FAIL"
        print(f"  {name}: {cur_ns:.1f} ns/op vs baseline {base_ns:.1f} "
              f"({delta:+.1f}%, limit {max_ratio}x) {status}")
        if ratio > max_ratio:
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("perf_json", help="BENCH_PERF.json from a fresh run")
    parser.add_argument("--baseline", help="checked-in BENCH_PERF.json")
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--max-ratio", type=float, default=3.0)
    parser.add_argument("--min-parallel-speedup", type=float, default=2.0)
    parser.add_argument("--min-parallel-speedup-t8", type=float, default=3.0)
    parser.add_argument("--min-wire-reduction", type=float, default=10.0)
    parser.add_argument("--min-service-posts-per-sec", type=float,
                        default=50000.0)
    parser.add_argument("--max-service-p99-ratio", type=float, default=5.0)
    parser.add_argument("--min-service-scaling", type=float, default=2.0)
    parser.add_argument("--min-pipeline-speedup", type=float, default=3.0)
    args = parser.parse_args()

    doc = load(args.perf_json)
    baseline = load(args.baseline) if args.baseline else None
    ok = validate_schema(doc, args.perf_json)
    if ok:
        ok = check_speedups(doc, args.min_speedup)
        ok = check_parallel_scaling(doc, args.min_parallel_speedup,
                                    args.min_parallel_speedup_t8) and ok
        ok = check_wire_reduction(doc, args.min_wire_reduction) and ok
        ok = check_services(doc, baseline, args.min_service_posts_per_sec,
                            args.max_service_p99_ratio) and ok
        ok = check_service_scaling(doc, args.min_service_scaling) and ok
        ok = check_pipelining(doc, args.min_pipeline_speedup) and ok
        if baseline is not None:
            ok = check_against_baseline(doc, baseline, args.max_ratio) and ok
    print("check_perf: PASS" if ok else "check_perf: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
