#!/usr/bin/env python3
"""Compare a sim_throughput report against the checked-in baseline.

Usage: check_throughput.py CURRENT.json BASELINE.json [--max-drop PCT]

Prints a per-scenario table and emits a GitHub Actions ::warning
annotation for every scenario whose MIPS dropped more than --max-drop
percent (default 20) below the baseline. Scenarios are compared over the
union of both reports: a scenario missing from the current run warns
(coverage lost), and a scenario missing from the baseline warns too — a
newly added scenario is unguarded until the baseline file is bumped, and
the old behaviour of silently skipping it meant regressions in new
scenarios could never fire. A baseline entry with zero/negative MIPS is
malformed (a percent delta against it is undefined) and warns instead of
dividing by zero. These per-scenario checks are a soft gate: CI hardware
varies, so regressions warn rather than fail, and the uploaded
BENCH_sim_throughput.json artifact carries the numbers.

Two checks are hard and do not depend on the host. Each divides the MIPS
of vector_heavy (the timing model fed by the threaded engine's
block-granular trace) by the MIPS of a functional run of the same program
with no timing model, from the same report:
  * over fsim_vector_threaded (the threaded engine alone) it must reach
    MODEL_COST_FLOOR: the timing model's cost relative to the functional
    engine;
  * over fsim_vector_interp (the interpreter alone) it must reach
    BLOCK_TRACE_FLOOR: timing fed whole blocks stays well ahead of what a
    trace that steps the interpreter once per instruction could reach.
Both numbers of a ratio come from interleaved repetitions of one binary,
so host speed cancels. The script exits 1 when a ratio is below its floor
or cannot be formed (a scenario missing or at zero MIPS), and 0 otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return doc


# The hard gates' pairs (numerator, denominator) and their floors.
# Ten runs each of an -O2 build on a 4-vCPU x86-64 host: with windowed
# fetch/commit ports and per-instruction divisions in the model this ratio
# read 0.089-0.172 (median 0.123), with in-order port counters and
# division-free lookups 0.150-0.203 (median 0.180).
MODEL_COST_RATIO = ("vector_heavy", "fsim_vector_threaded")
MODEL_COST_FLOOR = 0.12
# The second ratio, ten interleaved runs each with the same flags and host:
# with the block trace it read 0.681-0.789 (median 0.72); with the trace
# forced to step the interpreter once per instruction, 0.322-0.580
# (median 0.47).
BLOCK_TRACE_RATIO = ("vector_heavy", "fsim_vector_interp")
BLOCK_TRACE_FLOOR = 0.62


def scenario_map(doc):
    return {s["name"]: s for s in doc.get("scenarios", [])}


def check_ratio(current_doc, floor=MODEL_COST_FLOOR, pair=MODEL_COST_RATIO):
    """One host-independent hard gate over one report: MIPS of pair[0]
    over MIPS of pair[1]. Returns (lines, failed): failed is True when the
    ratio is below `floor` or cannot be formed (a scenario missing or at
    zero MIPS)."""
    current = scenario_map(current_doc)
    num_name, den_name = pair
    num, den = current.get(num_name), current.get(den_name)
    if num is None or den is None:
        missing = num_name if num is None else den_name
        return [f"::error::sim_throughput scenario '{missing}' missing: "
                f"the {num_name}/{den_name} gate cannot run"], True
    if den["mips"] <= 0:
        return [f"::error::{den_name} reports {den['mips']:.2f} MIPS; "
                f"the {num_name}/{den_name} ratio is undefined"], True
    ratio = num["mips"] / den["mips"]
    line = (f"{num_name}/{den_name} MIPS ratio {ratio:.2f} "
            f"(floor {floor:.2f})")
    if ratio < floor:
        return [f"::error::{line}: below the floor"], True
    return [line], False


def compare(current_doc, baseline_doc, max_drop):
    """Compares the two parsed reports. Returns (lines, warnings): the
    table/annotation output as a list of strings, and the warning count.
    Pure function of its inputs so tests can drive it without files."""
    current = scenario_map(current_doc)
    baseline = scenario_map(baseline_doc)

    lines = []
    warnings = 0

    def warn(message):
        nonlocal warnings
        lines.append(f"::warning::{message}")
        warnings += 1

    lines.append(f"{'scenario':<20} {'baseline':>10} {'current':>10} {'delta':>8}")
    # Union of both reports, baseline order first, then current-only
    # scenarios in report order.
    names = list(baseline) + [n for n in current if n not in baseline]
    for name in names:
        base = baseline.get(name)
        cur = current.get(name)
        if cur is None:
            lines.append(f"{name:<20} {base['mips']:>10.2f} {'missing':>10}")
            warn(f"sim_throughput scenario '{name}' missing from current run")
            continue
        if base is None:
            lines.append(f"{name:<20} {'missing':>10} {cur['mips']:>10.2f}")
            warn(f"sim_throughput scenario '{name}' has no baseline entry "
                 f"(bump bench/sim_throughput_baseline.json to guard it)")
            continue
        if base["mips"] <= 0:
            lines.append(f"{name:<20} {base['mips']:>10.2f} {cur['mips']:>10.2f}")
            warn(f"sim_throughput baseline for '{name}' is {base['mips']:.2f} MIPS; "
                 f"delta undefined (malformed baseline entry?)")
            continue
        delta = (cur["mips"] - base["mips"]) / base["mips"] * 100.0
        lines.append(f"{name:<20} {base['mips']:>10.2f} {cur['mips']:>10.2f} {delta:>+7.1f}%")
        if delta < -max_drop:
            warn(f"sim_throughput regression: {name} at {cur['mips']:.2f} MIPS, "
                 f"{-delta:.1f}% below the {base['mips']:.2f} MIPS baseline "
                 f"(threshold {max_drop:.0f}%)")
    sweep = current_doc.get("canonical_sweep_seconds")
    if sweep is not None:
        lines.append(f"{'tiny_sweep':<20} {'':>10} {sweep:>9.4f}s")
    lines.append(f"{warnings} warning(s)")
    return lines, warnings


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--max-drop", type=float, default=20.0,
                        help="warn when MIPS drops more than this percent")
    args = parser.parse_args()

    current = load(args.current)
    lines, _ = compare(current, load(args.baseline), args.max_drop)
    failed = False
    for floor, pair in ((MODEL_COST_FLOOR, MODEL_COST_RATIO),
                        (BLOCK_TRACE_FLOOR, BLOCK_TRACE_RATIO)):
        gate_lines, gate_failed = check_ratio(current, floor, pair)
        lines += gate_lines
        failed = failed or gate_failed
    for line in lines:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
