"""Arithmetic that turns the raw measurements of sweep_bench into named metrics.

Kept free of I/O so that test_metrics.py can check it on hand-built inputs.
Each metric is returned as (value, unit); run.py prints and emits them.
"""

import math
import statistics

# Kernel pairs whose speedup the paper reports: baseline -> proposed.
SPEEDUP_PAIRS = (("rowwise", "indexmac"), ("rowwise", "indexmac4"))

# Host-probe burst time, in seconds, at the reference host speed that the
# end-to-end times are scaled to (perfbench/host_probe.cpp; README.md).
REFERENCE_PROBE_S = 0.002

# Share of a point's span that its replayed stages may leave unexplained.
RESIDUAL_TOLERANCE = 0.10


def percentile(values, pct, min_beyond=10):
    """Nearest-rank percentile of `values`.

    Returns (value, sample count, samples beyond it). Raises ValueError when
    fewer than `min_beyond` samples lie beyond the percentile, because a
    tail figure resting on fewer samples is not a measurement.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond} beyond it (need {min_beyond})")
    return ordered[rank - 1], n, beyond


def self_time(span, children):
    """A span's self time: its duration minus the time its children took."""
    return span - sum(children)


def ratio_text(name, part, base, part_label, base_label, unit):
    """Renders a ratio with its base, e.g. `x = 0.25 (1 s a of 4 s b)`."""
    return (f"{name} = {part / base:.4f} "
            f"({part:.6g} {unit} {part_label} of {base:.6g} {unit} {base_label})")


def redundant_share(keys):
    """1 - distinct operand sets / generation calls."""
    return 1.0 - len(set(keys)) / len(keys)


def _config(row):
    return (row["suite"], row["sparsity"], row["algorithm"], int(row["unroll"]))


def est_errors(exact_rows, sampled_rows):
    """Signed sampled-vs-exact errors of two network rollups.

    Returns (net, speedup): `net` maps each configuration present in both
    rollups to (sampled - exact) / exact of its network cycles; `speedup`
    maps each SPEEDUP_PAIRS pair present in both to the same relative error
    of the paired speedup baseline_cycles / proposed_cycles.
    """
    exact = {_config(r): float(r["cycles"]) for r in exact_rows}
    sampled = {_config(r): float(r["cycles"]) for r in sampled_rows}
    common = [c for c in exact if c in sampled]
    net = {c: (sampled[c] - exact[c]) / exact[c] for c in common}
    speedup = {}
    for suite, sp, alg, unroll in common:
        for base, proposed in SPEEDUP_PAIRS:
            if alg != base:
                continue
            other = (suite, sp, proposed, unroll)
            if other not in net:
                continue
            s_exact = exact[(suite, sp, alg, unroll)] / exact[other]
            s_sampled = sampled[(suite, sp, alg, unroll)] / sampled[other]
            speedup[(suite, sp, f"{base}->{proposed}", unroll)] = (
                (s_sampled - s_exact) / s_exact)
    if not net or not speedup:
        raise ValueError("the rollups share no configuration or speedup pair")
    return net, speedup


def largest_abs_pct(errors):
    return 100.0 * max(abs(e) for e in errors.values())


def host_scales(raw):
    """Per sweep: REFERENCE_PROBE_S / the host probe's mean burst during it.

    A sweep's times times its scale are its times at the reference host
    speed: on a slower host the probe's bursts take longer and the scale is
    below 1.
    """
    reps = raw["reps"]
    if any(r["probe_samples"] == 0 for r in reps):
        raise ValueError("a sweep ended before the host probe took a sample")
    return [REFERENCE_PROBE_S / r["probe_burst_s"] for r in reps]


def raw_end_to_end(raw):
    """Unscaled medians of the host-time metrics, and the median host scale."""
    reps = raw["reps"]
    med = statistics.median
    return {
        "points_per_s": (med([r["points"] / r["wall_s"] for r in reps]), "1/s"),
        "sim_mips": (med([r["instructions"] / r["wall_s"] / 1e6 for r in reps]), "MIPS"),
        "cpu_s": (med([r["cpu_s"] for r in reps]), "s"),
        "host_scale": (med(host_scales(raw)), "ratio"),
    }


def end_to_end(raw, setup_samples):
    """End-to-end metrics of an untraced run: medians over its sweeps.

    points_per_s, sim_mips and cpu_s are scaled to the reference host
    speed by host_scales; the unscaled figures are in raw_end_to_end.
    peak_rss_mb is the high-water mark after the first sweep, i.e. of a
    process that ran one sweep as `imac_run sweep` does; later sweeps in
    the same process only add allocator fragmentation.
    """
    reps = raw["reps"]
    scales = host_scales(raw)
    walls = [r["wall_s"] * k for r, k in zip(reps, scales)]
    med = statistics.median
    net, speedup = est_errors(raw["rollups"]["exact"], raw["rollups"]["sampled"])
    return {
        "setup_s": (med(setup_samples), "s"),
        "points_per_s": (med([r["points"] / w for r, w in zip(reps, walls)]), "1/s"),
        "sim_mips": (med([r["instructions"] / w / 1e6 for r, w in zip(reps, walls)]), "MIPS"),
        "cpu_s": (med([r["cpu_s"] * k for r, k in zip(reps, scales)]), "s"),
        "peak_rss_mb": (reps[0]["peak_rss_kb"] / 1024.0, "MB"),
        "est_net_err_pct": (largest_abs_pct(net), "%"),
        "est_speedup_err_pct": (largest_abs_pct(speedup), "%"),
    }


def stage_split(replicas):
    """Self time of every replayed stage, summed over replicas, in seconds.

    The stages nest as the point's call does: span = gen + prepare +
    timing run + residual; prepare = pack + emit + own work; timing run =
    trace drain + model; trace drain = fsim block run + step overhead. The
    residual is what the replay leaves unexplained, including run_sampled's
    extrapolation.
    """
    total = {k: sum(r[k] for r in replicas)
             for k in ("span", "gen", "pack", "emit", "prepare", "fsim", "trace", "tsim")}
    return {
        "gen": total["gen"],
        "pack": total["pack"],
        "emit": total["emit"],
        "prepare": self_time(total["prepare"], [total["pack"], total["emit"]]),
        "fsim": total["fsim"],
        "step_overhead": self_time(total["trace"], [total["fsim"]]),
        "model": self_time(total["tsim"], [total["trace"]]),
        "residual": self_time(total["span"], [total["gen"], total["prepare"], total["tsim"]]),
    }, total


def per_layer(raw):
    """Per-layer metrics of a traced run."""
    t = raw["traced"]
    reps = t["replicas"]
    stages, total = stage_split(reps)
    inst = sum(r["instructions"] for r in reps)
    ns = 1e9 / inst
    extrapolate = sum(self_time(r["span"], [r["gen"], r["prepare"], r["tsim"]])
                      for r in reps if r["mode"] == "sampled")
    model = raw["model"]
    cycles = model["cycles"]
    return {
        "sparse.gen_s": (total["gen"], "s"),
        "sparse.gen_calls": (len(reps), "count"),
        "sparse.gen_unique": (len({r["gen_key"] for r in reps}), "count"),
        "sparse.gen_redundant_share": (redundant_share([r["gen_key"] for r in reps]), "ratio"),
        "sparse.pack_s": (total["pack"], "s"),
        "kernels.emit_s": (total["emit"], "s"),
        "core.prepare_s": (stages["prepare"], "s"),
        "fsim.run_ns_per_inst": (total["fsim"] * ns, "ns"),
        "timing.trace_ns_per_inst": (total["trace"] * ns, "ns"),
        "timing.step_overhead_ns_per_inst": (stages["step_overhead"] * ns, "ns"),
        "timing.model_ns_per_inst": (stages["model"] * ns, "ns"),
        "timing.model_share": (stages["model"] / total["span"], "ratio"),
        "core.extrapolate_s": (extrapolate, "s"),
        "trace.residual_share": (stages["residual"] / total["span"], "ratio"),
        "core.result_store.put_us_p50": (percentile(t["put_s"], 50)[0] * 1e6, "us"),
        "core.result_store.journal_bytes": (t["journal_bytes"], "bytes"),
        "core.result_store.replay_s": (t["replay_s"], "s"),
        "core.sweep.report_s": (t["report_s"], "s"),
        "core.batch.job_ms_p50": (percentile(t["job_s"], 50)[0] * 1e3, "ms"),
        "core.batch.job_ms_p90": (percentile(t["job_s"], 90)[0] * 1e3, "ms"),
        "core.batch.utilization": (t["busy_s"] / (t["wall_s"] * t["workers"]), "ratio"),
        "model.ipc": (model["instructions"] / cycles, "inst/cycle"),
        "model.vector_macs": (model["vector_macs"], "count"),
        "model.v2s_moves": (model["v2s_moves"], "count"),
        "model.dram_lines": (model["dram_lines"], "count"),
        "model.stall.scalar_operand": (model["stall.scalar_operand"] / cycles, "ratio"),
        "model.stall.queue_full": (model["stall.queue_full"] / cycles, "ratio"),
        "model.stall.bandwidth": (model["stall.bandwidth"] / cycles, "ratio"),
    }
