#!/usr/bin/env python3
"""Perf-smoke gate over the perf-trajectory benchmark JSON files.

Over BENCH_check_cost.json: pairs each checked benchmark
(BM_CheckCost*FailureOblivious*) with its raw counterpart (same name with
Standard in place of FailureOblivious, same args) and fails if the
checked/raw slowdown exceeds --max-ratio. With the page-granular fast path
in place, checked scalar reads should sit within a small constant of raw
ones on the fast-path regimes; a ratio past the bound means the fast path
regressed (map incoherence, a miss-everything bug, or a slow tier leak into
the hot loop).

The slow-tier pin (BM_ResidentProbe*) is deliberately named outside the
pairing: mixed-page probes measure the checking code, not the fast path.

With --max-construct-us N: additionally fails if BM_MemoryConstruct (build
and tear down one default Memory, from the same report) takes more than N
microseconds. That is what every crashed worker's restart pays before the
server's own initialization; past the bound, shard construction is zeroing
or indexing memory it has not touched again.

With --overhead BENCH_overhead.json: additionally gates the
failure-oblivious error path. Every BM_DiscardedWrite* and
BM_ManufacturedRead* run (the "small"-named pair and the *Named pair, whose
unit and function names are longer than std::string's small-string buffer)
must take at most --max-error-ns nanoseconds per invalid access: the check,
the log record and the continuation together. Past the bound, the error
path has started allocating or hashing per error again.

With --boundless BENCH_boundless.json: additionally pairs each
BM_BoundlessSparseSprayPaged/N with BM_BoundlessSparseSprayFlat/N and fails
if the paged store exceeds --max-boundless-ratio times the flat baseline on
that axis. The paged store's whole point is to beat the flat byte-map on
sprayed stores; paged/flat drifting past the bound means a paged-store
regression (per-byte work crept back into the span path, or page
materialization got pathological).

With --throughput BENCH_throughput.json: additionally gates pump dispatch
overhead — BM_FrontendPumpOverheadPersistent (the parked persistent-
executor path) must beat BM_FrontendPumpOverheadLegacy (fork/join a thread
per lane per pump) by at least --min-pump-speedup on the small-batch
8-worker round-trip regime. The pair is only meaningful with real
parallelism, so when the report's context says hardware_concurrency <= 1
the gate is skipped (a 1-core container cannot show it; a multi-core CI
runner must).

Usage: tools/check_perf_smoke.py [BENCH_check_cost.json] [--max-ratio 6.0]
           [--max-construct-us 500]
           [--overhead BENCH_overhead.json] [--max-error-ns 150]
           [--boundless BENCH_boundless.json] [--max-boundless-ratio 2.0]
           [--throughput BENCH_throughput.json] [--min-pump-speedup 1.3]
Exit status: 0 all pairs within their bounds; 1 a pair exceeded its bound
or no pairs were found (a vacuous gate is a failing gate); 2 an input file
is missing or not a benchmark JSON report (config error, never a
traceback).
"""

import argparse
import json
import sys


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def per_item_ns(entry):
    """Nanoseconds per processed item, from items_per_second."""
    ips = entry.get("items_per_second")
    if isinstance(ips, (int, float)) and ips > 0:
        return 1e9 / ips
    return None


def per_iteration_ns(entry):
    """CPU nanoseconds per benchmark iteration."""
    cpu = entry.get("cpu_time")
    scale = NS_PER_UNIT.get(entry.get("time_unit", "ns"))
    if isinstance(cpu, (int, float)) and cpu > 0 and scale is not None:
        return cpu * scale
    return None


def load_runs(json_path, measure=per_item_ns):
    """(runs, context): real benchmark runs (no aggregates) keyed by full
    name, each with its `measure` in ns, plus the report's context object,
    or an int exit status on config error."""
    try:
        with open(json_path, encoding="utf-8") as f:
            report = json.load(f)
    except OSError as err:
        print(f"error: cannot read {json_path}: {err.strerror or err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: {json_path} is not valid JSON: {err}", file=sys.stderr)
        return 2

    benchmarks = report.get("benchmarks") if isinstance(report, dict) else None
    if not isinstance(benchmarks, list):
        print(f"error: {json_path} has no 'benchmarks' array "
              "(not a google-benchmark JSON report?)", file=sys.stderr)
        return 2

    context = report.get("context") if isinstance(report.get("context"), dict) else {}
    runs = {}
    for entry in benchmarks:
        if not isinstance(entry, dict) or "name" not in entry:
            continue
        if entry.get("run_type", "iteration") != "iteration":
            continue
        ns = measure(entry)
        if ns is not None:
            runs[entry["name"]] = (ns, entry)
    return runs, context


def hardware_concurrency(context):
    """The report's recorded core count, or None when absent/garbled."""
    value = context.get("hardware_concurrency")
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def check_pairs(runs, select, to_baseline, max_ratio, what):
    """Generic paired gate: each selected run vs its baseline counterpart.

    Returns (pairs, failures): the number of pairs checked and the list of
    (name, ratio) pairs over the bound.
    """
    failures = []
    pairs = 0
    for name, (test_ns, entry) in sorted(runs.items()):
        if not select(name):
            continue
        base_name = to_baseline(name)
        if base_name not in runs:
            print(f"warning: no {what} baseline for {name}", file=sys.stderr)
            continue
        base_ns = runs[base_name][0]
        ratio = test_ns / base_ns if base_ns > 0 else float("inf")
        pairs += 1
        hit_rate = entry.get("hit_rate")
        hit = f", hit_rate {hit_rate:.3f}" if hit_rate is not None else ""
        verdict = "ok" if ratio <= max_ratio else "FAIL"
        print(f"{verdict}: {name}: {test_ns:.1f} ns vs {base_name} {base_ns:.1f} ns "
              f"-> {ratio:.2f}x (bound {max_ratio:g}x{hit})")
        if ratio > max_ratio:
            failures.append((name, ratio))
    return pairs, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", nargs="?", default="BENCH_check_cost.json")
    parser.add_argument("--max-ratio", type=float, default=6.0,
                        help="maximum allowed checked/raw per-item time ratio")
    parser.add_argument("--max-construct-us", type=float, default=None,
                        help="also gate BM_MemoryConstruct: maximum microseconds to "
                             "construct and destroy one default Memory")
    parser.add_argument("--overhead", metavar="BENCH_overhead.json", default=None,
                        help="also gate the failure-oblivious error-path benchmarks "
                             "(BM_DiscardedWrite*, BM_ManufacturedRead*) from this report")
    parser.add_argument("--max-error-ns", type=float, default=150.0,
                        help="maximum allowed nanoseconds per invalid access on the "
                             "error path")
    parser.add_argument("--boundless", metavar="BENCH_boundless.json", default=None,
                        help="also gate the paged/flat boundless sparse-spray pairs "
                             "from this report")
    parser.add_argument("--max-boundless-ratio", type=float, default=2.0,
                        help="maximum allowed paged/flat per-byte time ratio on the "
                             "sparse-spray axis")
    parser.add_argument("--throughput", metavar="BENCH_throughput.json", default=None,
                        help="also gate the persistent-executor vs legacy fork/join "
                             "pump-overhead pair from this report")
    parser.add_argument("--min-pump-speedup", type=float, default=1.3,
                        help="minimum persistent-over-legacy pump speedup on "
                             "multi-core machines (skipped at hardware_concurrency<=1)")
    args = parser.parse_args()

    loaded = load_runs(args.json_path)
    if isinstance(loaded, int):
        return loaded
    runs, _ = loaded

    pairs, failures = check_pairs(
        runs,
        select=lambda n: n.startswith("BM_CheckCost") and "FailureOblivious" in n,
        to_baseline=lambda n: n.replace("FailureOblivious", "Standard"),
        max_ratio=args.max_ratio,
        what="raw")

    if args.max_construct_us is not None:
        constructs = [(name, ns) for name, (ns, _) in sorted(runs.items())
                      if name.startswith("BM_MemoryConstruct")]
        if not constructs:
            print("error: no BM_MemoryConstruct run found; construct gate is vacuous",
                  file=sys.stderr)
            return 1
        for name, ns in constructs:
            us = ns / 1e3
            verdict = "ok" if us <= args.max_construct_us else "FAIL"
            print(f"{verdict}: {name}: {us:.1f} us per construction "
                  f"(bound {args.max_construct_us:g} us)")
            pairs += 1
            if us > args.max_construct_us:
                failures.append((name, us))

    if args.overhead is not None:
        loaded = load_runs(args.overhead, measure=per_iteration_ns)
        if isinstance(loaded, int):
            return loaded
        overhead_runs, _ = loaded
        error_runs = [(name, ns) for name, (ns, _) in sorted(overhead_runs.items())
                      if name.startswith(("BM_DiscardedWrite", "BM_ManufacturedRead"))]
        if not error_runs:
            print("error: no BM_DiscardedWrite*/BM_ManufacturedRead* run found; "
                  "error-path gate is vacuous", file=sys.stderr)
            return 1
        for name, ns in error_runs:
            verdict = "ok" if ns <= args.max_error_ns else "FAIL"
            print(f"{verdict}: {name}: {ns:.1f} ns per invalid access "
                  f"(bound {args.max_error_ns:g} ns)")
            pairs += 1
            if ns > args.max_error_ns:
                failures.append((name, ns))

    if args.boundless is not None:
        loaded = load_runs(args.boundless)
        if isinstance(loaded, int):
            return loaded
        boundless_runs, _ = loaded
        spray_pairs, spray_failures = check_pairs(
            boundless_runs,
            select=lambda n: n.startswith("BM_BoundlessSparseSprayPaged"),
            to_baseline=lambda n: n.replace("SparseSprayPaged", "SparseSprayFlat"),
            max_ratio=args.max_boundless_ratio,
            what="flat-store")
        pairs += spray_pairs
        failures += spray_failures
        if spray_pairs == 0:
            print("error: no paged/flat sparse-spray pairs found; boundless gate is vacuous",
                  file=sys.stderr)
            return 1

    if args.throughput is not None:
        loaded = load_runs(args.throughput)
        if isinstance(loaded, int):
            return loaded
        throughput_runs, context = loaded
        cores = hardware_concurrency(context)
        if cores is not None and cores <= 1:
            # One core cannot overlap lanes: fork/join vs parked threads is
            # pure scheduler noise there, so the gate would only flake.
            print(f"skip: pump-overhead gate (hardware_concurrency={cores}; "
                  "pair needs real parallelism)")
        else:
            # persistent/legacy per-item time <= 1/speedup <=> persistent is
            # at least `speedup` times faster.
            pump_pairs, pump_failures = check_pairs(
                throughput_runs,
                select=lambda n: n.startswith("BM_FrontendPumpOverheadPersistent"),
                to_baseline=lambda n: n.replace("Persistent", "Legacy"),
                max_ratio=1.0 / args.min_pump_speedup,
                what="legacy fork/join")
            pairs += pump_pairs
            failures += pump_failures
            if pump_pairs == 0:
                print("error: no persistent/legacy pump-overhead pair found; "
                      "pump gate is vacuous", file=sys.stderr)
                return 1

    if pairs == 0:
        print("error: no checked/raw benchmark pairs found; gate is vacuous", file=sys.stderr)
        return 1
    if failures:
        print(f"\nperf smoke FAILED: {len(failures)} pair(s) over bound", file=sys.stderr)
        return 1
    print(f"\nperf smoke ok: {pairs} pair(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
