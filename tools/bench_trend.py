#!/usr/bin/env python3
"""Append a BENCH_engine.json run to the tracked perf trajectory and gate on
regressions.

Usage:
    bench_trend.py <BENCH_engine.json> <BENCH_trend.json> [--label LABEL]
                   [--remeasure-cmd CMD] [--remeasure-runs N]

Reads the engine benchmark output, flattens its series into named metrics,
appends one entry to the trend file (creating it if absent), and exits
non-zero when any metric regressed by more than 10% against the baseline:
the most recent entry that was not itself flagged as regressed, so a bad
run cannot ratchet itself in as the next comparison point. Most metrics are
throughputs (higher is better); metrics listed in LOWER_IS_BETTER — peak
RSS, the paper-sized frame-store bytes/frame — regress when they *grow*
past the tolerance. Entries recorded on
different hardware (thread count, CPU model, or the ISA the SIMD kernels
dispatched to) are appended but not gated against each other — neither
steps/sec nor RSS is comparable across hardware, a run whose kernels fell
back from avx2 to the generic vector path is measuring different machine
code, and a false alarm would train people to ignore the gate. Baseline
metrics the run no longer emits are listed as retired, ungated.

With --remeasure-cmd, a first-pass regression is treated as *suspected*
rather than final: the command (which must rewrite the engine JSON, e.g.
`./bench_perf_micro --engine-json-only`) is re-run --remeasure-runs times
(default 4, for >= 5 samples including the original), and each suspect is
re-judged on the median of its samples with a MAD-widened tolerance —
max(10%, 3 * 1.4826 * MAD / |median|), i.e. three robust standard
deviations of the run-to-run spread. Only suspects that survive the
robust re-check flag the entry `regressed`; the median replaces the
first-pass value in the recorded entry so a lucky or unlucky single run
never becomes the next baseline's yardstick.
"""

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys

REGRESSION_TOLERANCE = 0.10

# Metrics where growth, not shrinkage, is the regression.
LOWER_IS_BETTER = {"peak_rss_kb", "frame_store_bytes_per_frame"}


def flatten_metrics(engine_json):
    """BENCH_engine.json -> ({metric_name: value}, {ungated_names}).

    Ungated metrics are recorded in the trend but never gate: intra-step
    rows with more drift threads than the machine has hardware threads
    measure the scheduler's time-slicing of an oversubscribed pool, not the
    code, and the frame-store fill RSS deltas are small absolute numbers
    whose run-to-run spread far exceeds the tolerance. A false alarm would
    train people to ignore the gate.
    """
    metrics = {}
    ungated = set()
    hardware = engine_json.get("hardware_threads") or 0
    for row in engine_json.get("results", []):
        metrics[f"engine/n={row['n']}"] = row["engine_steps_per_sec"]
    all_pairs = engine_json.get("all_pairs", {})
    if all_pairs.get("steps_per_sec"):
        metrics[f"all_pairs/{all_pairs['preset']}/n={all_pairs['n']}"] = \
            all_pairs["steps_per_sec"]
    for row in engine_json.get("intra_step", []):
        key = f"intra_step/n={row['n']}/threads={row['threads']}"
        metrics[key] = row["steps_per_sec"]
        if hardware and row["threads"] > hardware:
            ungated.add(key)
    for row in engine_json.get("simd", {}).get("results", []):
        n = row["n"]
        # Both kernel families gate as throughputs; the speedup ratio is
        # recorded but not gated — the quotient of two noisy measurements
        # swings past any tolerance that would still catch real
        # regressions, and the absolute rows already gate both factors.
        metrics[f"simd/scalar_steps_per_sec/n={n}"] = \
            row["scalar_steps_per_sec"]
        metrics[f"simd/steps_per_sec/n={n}"] = row["simd_steps_per_sec"]
        ratio = f"simd/speedup/n={n}"
        metrics[ratio] = row["speedup"]
        ungated.add(ratio)
    analyzer = engine_json.get("analyzer", {})
    if analyzer.get("frames_per_sec"):
        metrics["analyzer/frames_per_sec"] = analyzer["frames_per_sec"]
    paper_row = analyzer.get("paper_row", {})
    if paper_row.get("frames_per_sec"):
        # The simulate + analyze rate at the paper row gates as a
        # throughput. The frozen baseline is a fixed yardstick (the
        # benchmark binary recomputes the same frozen code path every run),
        # and the speedup is a quotient of two noisy measurements — both
        # recorded for the trajectory, neither gated.
        metrics["analyzer/paper_row_frames_per_sec"] = \
            paper_row["frames_per_sec"]
        for key in ("frozen_baseline_frames_per_sec", "speedup"):
            if paper_row.get(key) is not None:
                name = f"analyzer/paper_row_{key}"
                metrics[name] = float(paper_row[key])
                ungated.add(name)
    frame_store = engine_json.get("frame_store", {})
    if frame_store.get("bytes_per_frame"):
        # LOWER_IS_BETTER: the paper-sized per-frame payload is
        # deterministic, so any growth is a real footprint regression
        # (e.g. padding crept into the position type).
        metrics["frame_store_bytes_per_frame"] = float(
            frame_store["bytes_per_frame"])
    for key in ("heap_fill_rss_delta_kb", "mapped_fill_rss_delta_kb",
                "manifest_bytes"):
        # A delta of 0 KB is the spill path working perfectly — record it.
        if frame_store.get(key) is not None:
            # Recorded for the trajectory (the spill path's whole point is
            # mapped << heap; the manifest sidecar should stay tiny next
            # to the payload) but not gated: the RSS deltas jitter past
            # any sane tolerance, and manifest_bytes only moves on a
            # deliberate format revision.
            name = f"frame_store/{key}"
            metrics[name] = float(frame_store[key])
            ungated.add(name)
    service = engine_json.get("service", {})
    for key in ("manager_seconds", "overhead_ratio",
                "submit_to_first_sample_ms"):
        # The job layer is scheduling only, so these should sit at ~direct
        # wall, ~1.0x, and a few ms. Recorded so a creeping scheduler cost
        # shows in the trajectory; not gated — sub-second walls and their
        # quotient jitter past any tolerance that would still catch a real
        # regression.
        if service.get(key) is not None:
            name = f"service/{key}"
            metrics[name] = float(service[key])
            ungated.add(name)
    if engine_json.get("peak_rss_kb"):
        metrics["peak_rss_kb"] = float(engine_json["peak_rss_kb"])
    return metrics, ungated


def is_regression(name, change, tolerance=REGRESSION_TOLERANCE):
    if name in LOWER_IS_BETTER:
        return change > tolerance
    return change < -tolerance


def remeasure_suspects(suspects, metrics, baseline, args):
    """Robust second opinion on first-pass regressions.

    Re-runs the benchmark command, pools each suspect's samples (original
    plus re-runs), and re-judges the *median* against the baseline with a
    tolerance widened to three robust standard deviations of the observed
    spread (MAD * 1.4826). Returns the confirmed regressions; medians are
    written back into `metrics` so the recorded entry reflects the robust
    value, not one noisy draw. A failing re-run keeps the first-pass
    verdict for the remaining suspects — a broken bench must not look like
    a recovery.
    """
    samples = {name: [metrics[name]] for name in suspects}
    for i in range(args.remeasure_runs):
        print(f"trend: suspected regression; re-measuring "
              f"({i + 1}/{args.remeasure_runs}): {args.remeasure_cmd}")
        sys.stdout.flush()
        try:
            subprocess.run(args.remeasure_cmd, shell=True, check=True)
            with open(args.engine_json) as f:
                remeasured, _ = flatten_metrics(json.load(f))
        except (OSError, subprocess.CalledProcessError,
                json.JSONDecodeError) as error:
            print(f"trend: re-measure run failed ({error}); keeping "
                  f"first-pass verdict", file=sys.stderr)
            return suspects
        for name in samples:
            if name in remeasured:
                samples[name].append(remeasured[name])
    confirmed = []
    for name in suspects:
        values = samples[name]
        median = statistics.median(values)
        mad = statistics.median(abs(v - median) for v in values)
        tolerance = REGRESSION_TOLERANCE
        if median:
            tolerance = max(tolerance, 3 * 1.4826 * mad / abs(median))
        base = baseline["metrics"][name]
        change = (median - base) / base
        metrics[name] = median
        regressed = is_regression(name, change, tolerance)
        status = "REGRESSION (confirmed)" if regressed else \
            "ok (noise: within the re-measured spread)"
        print(f"trend: {name}: median of {len(values)} runs {median:.1f} "
              f"vs {base:.1f} ({change:+.1%}, tolerance {tolerance:.1%}) "
              f"{status}")
        if regressed:
            confirmed.append(name)
    return confirmed


def cpu_identity():
    """Best-effort CPU model string; runners with equal vCPU counts can
    still be different silicon with >10% wall-clock spread."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def same_hardware(a, b):
    """Comparable-entry guard: thread count, CPU model, and the ISA the
    SIMD kernels dispatched to must all match. An avx2 entry and a generic
    entry ran different machine code for the hottest loops; comparing them
    would report a hardware change as a code regression (or mask one).
    Entries predating ISA recording (no "simd_isa") only compare among
    themselves."""
    return (a.get("hardware_threads") == b.get("hardware_threads")
            and a.get("cpu") == b.get("cpu")
            and a.get("simd_isa") == b.get("simd_isa"))


def default_label():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "local"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("engine_json")
    parser.add_argument("trend_json")
    parser.add_argument("--label", default=None,
                        help="entry label (default: git short hash)")
    parser.add_argument("--remeasure-cmd", default=None,
                        help="shell command that rewrites the engine JSON; "
                             "run on suspected regressions to re-judge them "
                             "on a median with a MAD-widened tolerance")
    parser.add_argument("--remeasure-runs", type=int, default=4,
                        help="extra benchmark runs per suspected regression "
                             "(default 4: 5 samples with the original)")
    args = parser.parse_args()

    with open(args.engine_json) as f:
        engine = json.load(f)
    metrics, ungated = flatten_metrics(engine)
    if not metrics:
        print(f"error: no metrics found in {args.engine_json}",
              file=sys.stderr)
        return 2

    try:
        with open(args.trend_json) as f:
            trend = json.load(f)
    except FileNotFoundError:
        trend = []
    if not isinstance(trend, list):
        print(f"error: {args.trend_json} is not a JSON array", file=sys.stderr)
        return 2

    simd = engine.get("simd", {})
    entry = {
        "label": args.label or default_label(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
                       .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "hardware_threads": engine.get("hardware_threads"),
        "cpu": cpu_identity(),
        "metrics": metrics,
    }
    if simd.get("isa"):
        entry["simd_isa"] = simd["isa"]
        entry["compiler"] = simd.get("compiler")

    # Baseline: the newest same-hardware entry that was not itself a
    # regression — a bad run is recorded but never becomes the next
    # comparison point, and an interleaved run on foreign hardware does not
    # reset the gate (the fleet behind CI runners is heterogeneous).
    baseline = next((e for e in reversed(trend)
                     if not e.get("regressed") and same_hardware(e, entry)),
                    None)
    regressions = []
    if baseline is None:
        print(f"trend: no healthy baseline for {entry['hardware_threads']} "
              f"threads / '{entry['cpu']}' / isa="
              f"{entry.get('simd_isa', 'unrecorded')}; gate skipped")
    else:
        # peak RSS is a whole-run high-water mark: when the benchmark's
        # metric *set* changed (a section was added or removed), the run
        # does different work and its RSS is not comparable to the
        # baseline's — same logic as the hardware guard. Per-metric numbers
        # still gate; RSS re-baselines with this entry.
        workload_changed = set(metrics) != set(baseline["metrics"])
        for name, value in sorted(metrics.items()):
            base = baseline["metrics"].get(name)
            if base is None or base <= 0:
                print(f"trend: {name}: new metric ({value:.1f})")
                continue
            if name == "peak_rss_kb" and workload_changed:
                print(f"trend: {name}: {base:.1f} -> {value:.1f} "
                      f"(workload changed; re-baselined, not gated)")
                continue
            if name in ungated:
                print(f"trend: {name}: {base:.1f} -> {value:.1f} "
                      f"(recorded, not gated — see flatten_metrics)")
                continue
            change = (value - base) / base
            regressed = is_regression(name, change)
            status = "REGRESSION" if regressed else "ok"
            print(f"trend: {name}: {base:.1f} -> {value:.1f} "
                  f"({change:+.1%}) {status}")
            if regressed:
                regressions.append(name)
        # A section that silently stops emitting would otherwise never be
        # mentioned: name every baseline metric this run lacks. Informational
        # only — a retired row gates nothing.
        for name in sorted(set(baseline["metrics"]) - set(metrics)):
            print(f"trend: {name}: retired (absent from this run)")
    if regressions and args.remeasure_cmd:
        regressions = remeasure_suspects(regressions, metrics, baseline,
                                         args)

    # Record the run even when gating fails: the trajectory should show the
    # regression, not hide it — but flag it so it never becomes a baseline.
    if regressions:
        entry["regressed"] = True
    trend.append(entry)
    with open(args.trend_json, "w") as f:
        json.dump(trend, f, indent=2)
        f.write("\n")
    print(f"trend: appended entry '{entry['label']}' "
          f"({len(metrics)} metrics) to {args.trend_json}")

    if regressions:
        print(f"error: >{REGRESSION_TOLERANCE:.0%} regression in: "
              + ", ".join(regressions), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
