#!/usr/bin/env python3
"""Render an acpsim run report (+ optional bench results) as markdown.

Inputs:
  --report REPORT.json     an "acp.report.v4" file written by
                           `acpsim --profile --report-json REPORT.json`.
                           Validated strictly; exit 1 on schema mismatch
                           (a v3 report is refused: rerun acpsim).
  --bench BENCH_PERF.json  optional "acp.perf.v1" file from a fresh
                           bench/perf_substrate run — rendered as an
                           ns/op table.
  --baseline BENCH.json    optional checked-in BENCH_PERF.json — adds a
                           delta column (current vs baseline ns/op) to
                           the bench table.
  -o OUT.md                output path (default: stdout).

The markdown answers "where did the time go": the slice timer's parts on
the kernel thread (engine.kernel.{adversary,players,commit,accounting}
plus the leftover), the parallel kernel's lane-summed work, wake,
barrier and merge with the shard-imbalance histogram, thread-pool wake
cost, and per-channel bits moved — plus the ns/op trajectory vs the
checked-in baseline when bench files are given. Every number comes from
the report's registry sections (timers, histograms, and the io.*
channel counters).
CI uploads the result as an artifact (see perf-smoke in ci.yml).

Stdlib only. Exit 0 = rendered, 1 = invalid/unreadable input.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"perf_report: {msg}", file=sys.stderr)
    raise SystemExit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}")


# ---------------------------------------------------------------- schema

IO_FIELDS = ("read_ops", "read_bits", "write_ops", "write_bits")


def validate_report(doc, path):
    """Strict acp.report.v4 check: every section the renderer touches
    must be present with the right shape. Returns a list of problems."""
    errors = []

    def need(mapping, key, types, where):
        value = mapping.get(key)
        if not isinstance(value, types):
            errors.append(f"{where}.{key}: missing or wrong type")
            return None
        return value

    if doc.get("schema") == "acp.report.v3":
        print(f"perf_report: {path}: acp.report.v3 is no longer read (its "
              "bandwidth section became the io.* counters in v4); rerun "
              "acpsim to get a v4 report", file=sys.stderr)
        return ["schema"]
    if doc.get("schema") != "acp.report.v4":
        print(f"perf_report: {path}: schema is {doc.get('schema')!r}, "
              "want 'acp.report.v4'", file=sys.stderr)
        return ["schema"]
    for section in ("phases", "bandwidth"):
        if section in doc:
            errors.append(f"$.{section}: not part of acp.report.v4")
    config = need(doc, "config", dict, "$")
    if config is not None:
        for key in ("n", "m", "trials", "seed", "engine", "threads",
                    "engine_threads", "engine_threads_resolved"):
            need(config, key, (int, float, str), "config")
    need(doc, "metrics", dict, "$")
    counters = need(doc, "counters", dict, "$")
    for name in (counters or {}):
        if name.startswith("io."):
            need(counters, name, int, "counters")
            parts = name.split(".")
            if len(parts) < 3 or not all(parts):
                errors.append(f"counters.{name}: want io.<channel>.<field>")
            elif parts[-1] not in IO_FIELDS:
                errors.append(f"counters.{name}: unknown io field")
    need(doc, "gauges", dict, "$")
    timers = need(doc, "timers", dict, "$")
    for name, timer in (timers or {}).items():
        for key in ("count", "total_ns"):
            need(timer, key, int, f"timers.{name}")
    histograms = need(doc, "histograms", dict, "$")
    for name, histogram in (histograms or {}).items():
        for key in ("lo", "hi"):
            need(histogram, key, (int, float), f"histograms.{name}")
        need(histogram, "buckets", list, f"histograms.{name}")
        for key in ("underflow", "overflow"):
            need(histogram, key, int, f"histograms.{name}")
    for error in errors:
        print(f"perf_report: {path}: {error}", file=sys.stderr)
    return errors


# -------------------------------------------------------------- renderers

def fmt_ns(ns):
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns} ns"


def fmt_bits(bits):
    if bits >= 8_000_000:
        return f"{bits / 8e6:.2f} MB"
    if bits >= 8_000:
        return f"{bits / 8e3:.2f} KB"
    return f"{bits} bits"


def render_config(config, out):
    out.append("## Run configuration\n")
    out.append("| key | value |")
    out.append("|---|---|")
    for key in ("protocol", "adversary", "engine", "n", "m", "good", "alpha",
                "trials", "seed", "threads", "engine_threads",
                "engine_threads_resolved"):
        if key in config:
            out.append(f"| {key} | {config[key]} |")
    out.append("")


# The slice timers that split into parts on the kernel thread.
SLICE_PARTS = (
    ("engine.sync.round", ("engine.kernel.adversary", "engine.kernel.players",
                           "engine.kernel.commit",
                           "engine.kernel.accounting")),
    ("engine.async.step", ("engine.kernel.adversary", "engine.kernel.players",
                           "engine.kernel.commit",
                           "engine.kernel.accounting")),
    ("engine.gossip.round", ("engine.gossip.exchange", "engine.gossip.step",
                             "engine.gossip.commit")),
)


def timer_ns(timers, name):
    return timers.get(name, {}).get("total_ns", 0)


def timer_count(timers, name):
    return timers.get(name, {}).get("count", 0)


def render_histogram(histogram, label, out):
    buckets = histogram["buckets"]
    total = sum(buckets) + histogram["underflow"] + histogram["overflow"]
    if not total or not buckets:
        return
    lo, hi = histogram["lo"], histogram["hi"]
    width = (hi - lo) / len(buckets)
    out.append(f"| {label} | samples | |")
    out.append("|---|---:|---|")
    if histogram["underflow"]:
        out.append(f"| < {lo:g} | {histogram['underflow']} | |")
    for i, count in enumerate(buckets):
        if count == 0:
            continue
        bar = "█" * max(1, round(20 * count / total))
        out.append(f"| {lo + i * width:.2f}–{lo + (i + 1) * width:.2f} "
                   f"| {count} | {bar} |")
    if histogram["overflow"]:
        out.append(f"| ≥ {hi:g} | {histogram['overflow']} | |")
    out.append("")


def render_kernel(timers, histograms, config, out):
    out.append("## Kernel seams\n")
    rendered = False
    for slice_name, parts in SLICE_PARTS:
        slice_ns = timer_ns(timers, slice_name)
        if timer_count(timers, slice_name) == 0:
            continue
        rendered = True
        out.append(f"`{slice_name}`: **{timer_count(timers, slice_name)} "
                   f"slices**, **{fmt_ns(slice_ns)}** on the kernel thread."
                   "\n")
        out.append("| part | time | share |")
        out.append("|---|---:|---:|")
        parts_ns = 0
        for part in parts:
            ns = timer_ns(timers, part)
            parts_ns += ns
            pct = 100.0 * ns / slice_ns if slice_ns else 0.0
            out.append(f"| {part} | {fmt_ns(ns)} | {pct:.1f}% |")
        leftover = max(0, slice_ns - parts_ns)
        pct = 100.0 * leftover / slice_ns if slice_ns else 0.0
        out.append(f"| leftover | {fmt_ns(leftover)} | {pct:.1f}% |")
        out.append("")
    if not rendered:
        out.append("_No slice timer recorded (metrics were off for this "
                   "run)._\n")
        return

    if timer_count(timers, "engine.kernel.work"):
        lanes = config.get("engine_threads_resolved", "?")
        out.append(f"### Parallel kernel ({lanes} lanes)\n")
        out.append("| seam | time | count |")
        out.append("|---|---:|---:|")
        for name, what in (
                ("engine.kernel.work", "lane-summed evaluate+stage, "
                                       "per claimed shard"),
                ("engine.kernel.wake", "round release → a lane's first "
                                       "claim"),
                ("engine.kernel.barrier", "leader wait, kernel thread"),
                ("engine.kernel.merge", "canonical-order fold, kernel "
                                        "thread")):
            out.append(f"| {name} ({what}) | "
                       f"{fmt_ns(timer_ns(timers, name))} | "
                       f"{timer_count(timers, name)} |")
        out.append("")
        imbalance = histograms.get("engine.kernel.imbalance")
        if imbalance:
            out.append("Per-round slowest/fastest shard ratio:\n")
            render_histogram(imbalance, "ratio", out)

    if timer_count(timers, "concurrency.pool.wake"):
        tasks = timer_count(timers, "concurrency.pool.wake")
        wake = timer_ns(timers, "concurrency.pool.wake")
        out.append("### Thread pool\n")
        out.append(f"{tasks} tasks, total submit→start latency "
                   f"{fmt_ns(wake)} (mean {fmt_ns(wake // tasks)}/task).\n")
        depth = histograms.get("concurrency.pool.queue_depth")
        if depth:
            render_histogram(depth, "queue depth", out)


def io_channels(counters):
    """{channel: {field: value}} from the io.<channel>.<field> counters,
    in counter (sorted) order."""
    channels = {}
    for name, value in counters.items():
        if name.startswith("io."):
            channel, field = name[len("io."):].rsplit(".", 1)
            channels.setdefault(channel, dict.fromkeys(IO_FIELDS, 0))
            channels[channel][field] = value
    return channels


def render_io(counters, out):
    out.append("## Bits moved\n")
    channels = io_channels(counters)
    if not channels:
        out.append("_No io.* counters (metrics were off for this run)._\n")
        return
    read = sum(c["read_bits"] for c in channels.values())
    written = sum(c["write_bits"] for c in channels.values())
    out.append(f"All channels: **{fmt_bits(read)} read**, "
               f"**{fmt_bits(written)} written**.\n")
    out.append("| channel | read ops | read | write ops | write |")
    out.append("|---|---:|---:|---:|---:|")
    for name, channel in channels.items():
        if channel["read_ops"] == 0 and channel["write_ops"] == 0:
            continue
        out.append(f"| {name} | {channel['read_ops']} | "
                   f"{fmt_bits(channel['read_bits'])} | "
                   f"{channel['write_ops']} | "
                   f"{fmt_bits(channel['write_bits'])} |")
    out.append("")


def render_bench(bench, baseline, out):
    out.append("## Microbenchmark trajectory\n")
    if bench.get("schema") != "acp.perf.v1":
        fail(f"bench file schema is {bench.get('schema')!r}, "
             "want 'acp.perf.v1'")
    base_rows = {}
    if baseline is not None:
        base_rows = {b["name"]: b for b in baseline.get("benches", [])}
        out.append("ns/op for each substrate bench, current run vs the "
                   "checked-in baseline (negative delta = faster now).\n")
        out.append("| bench | ns/op | baseline | delta |")
        out.append("|---|---:|---:|---:|")
    else:
        out.append("| bench | ns/op | items/s |")
        out.append("|---|---:|---:|")
    for row in bench.get("benches", []):
        name = row["name"]
        if baseline is not None:
            base = base_rows.get(name)
            if base and base.get("ns_per_op"):
                delta = 100.0 * (row["ns_per_op"] / base["ns_per_op"] - 1.0)
                out.append(f"| {name} | {row['ns_per_op']:.1f} | "
                           f"{base['ns_per_op']:.1f} | {delta:+.1f}% |")
            else:
                out.append(f"| {name} | {row['ns_per_op']:.1f} | — | — |")
        else:
            out.append(f"| {name} | {row['ns_per_op']:.1f} | "
                       f"{row['items_per_sec']:.0f} |")
    out.append("")
    speedups = bench.get("speedups") or []
    if speedups:
        out.append("In-process speedups vs legacy reimplementations: "
                   + ", ".join(f"{s['name']} {s['speedup']:.1f}x"
                               for s in speedups) + ".\n")
    wire = bench.get("wire")
    if isinstance(wire, dict) and wire.get("digest_bits_per_round"):
        out.append(f"Gossip wire cost ({wire.get('name', 'wire')}): digest "
                   f"{fmt_bits(int(wire['digest_bits_per_round']))}/round vs "
                   f"exchange "
                   f"{fmt_bits(int(wire['exchange_bits_per_round']))}/round "
                   f"— {wire.get('reduction', 0.0):.1f}x less traffic.\n")
    services = bench.get("services") or []
    if services:
        base_services = {}
        if baseline is not None:
            base_services = {s.get("name"): s
                             for s in baseline.get("services", [])
                             if isinstance(s, dict)}
        out.append("### Billboard service\n")
        out.append("bbload workload (512 clients over a Unix socket) per "
                   "server geometry; p99 delta is vs the checked-in "
                   "baseline.\n")
        out.append("| service | io threads | pipeline | posts/s | "
                   "read p99 | p99 delta |")
        out.append("|---|---:|---:|---:|---:|---:|")
        for s in services:
            base = base_services.get(s.get("name"))
            if base and base.get("read_p99_ns"):
                delta = 100.0 * (s["read_p99_ns"] / base["read_p99_ns"]
                                 - 1.0)
                delta_cell = f"{delta:+.1f}%"
            else:
                delta_cell = "—"
            out.append(f"| {s['name']} | {s.get('io_threads', 1)} | "
                       f"{s.get('pipeline', 1)} | "
                       f"{s['posts_per_sec'] / 1e3:.0f}k | "
                       f"{fmt_ns(s['read_p99_ns'])} | {delta_cell} |")
        out.append("")
    pipelining = bench.get("service_pipelining")
    if isinstance(pipelining, dict) and \
            pipelining.get("single_posts_per_sec"):
        out.append(f"Commit pipelining "
                   f"({pipelining.get('name', 'pipelining')}): "
                   f"{pipelining['pipelined_posts_per_sec'] / 1e3:.0f}k vs "
                   f"{pipelining['single_posts_per_sec'] / 1e3:.0f}k posts/s "
                   f"on the identical workload — "
                   f"{pipelining.get('speedup', 0.0):.1f}x from keeping "
                   f"16 commits in flight per connection.\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--report", help="acp.report.v4 run report")
    parser.add_argument("--bench", help="acp.perf.v1 BENCH_PERF.json")
    parser.add_argument("--baseline", help="baseline BENCH_PERF.json for "
                        "the delta column (requires --bench)")
    parser.add_argument("-o", "--output", help="output markdown path "
                        "(default stdout)")
    args = parser.parse_args()
    if not args.report and not args.bench:
        fail("nothing to render: pass --report and/or --bench")

    out = ["# Performance report\n"]
    if args.report:
        report = load(args.report)
        if validate_report(report, args.report):
            return 1
        render_config(report["config"], out)
        render_kernel(report["timers"], report["histograms"],
                      report["config"], out)
        render_io(report["counters"], out)
    if args.bench:
        bench = load(args.bench)
        baseline = load(args.baseline) if args.baseline else None
        render_bench(bench, baseline, out)

    text = "\n".join(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"perf_report: wrote {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
