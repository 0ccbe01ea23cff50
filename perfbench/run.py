#!/usr/bin/env python3
"""End-to-end sweep benchmark of the IndexMAC simulator.

Builds the simulator and the sweep_bench program from source (Release, under
.bench_build or $CARGO_TARGET_DIR), runs one workload, checks its outputs,
prints every metric by name and unit, and ends with one JSON line:

    python3 perfbench/run.py --workload registry-sampled --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, with host times scaled to a
reference host speed by a probe that runs beside the sweeps; --trace 1
reports the per-layer ones.
--workload all runs both workloads in turn. The full result of each run is
also written to <build dir>/BENCH_<workload>_trace<0|1>.json. The exit code
is 0 only when every output check passed. perfbench/README.md documents the
workloads, metrics and the layer map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("registry-sampled", "mobilenet-exact")
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_PROCESSES = 30
BENCH_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "sweep_bench",
                    "-j", str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return out / "sweep_bench"


def run_bench(cmd):
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE, text=True,
                          timeout=BENCH_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"sweep_bench exited with {proc.returncode}")
    return json.loads(proc.stdout)


def show(name, value, unit, note=""):
    print(f"  {name:36s} {value:14.6g} {unit:10s} {note}")


def report_end_to_end(raw, result, setups):
    reps = raw["reps"]
    print(f"sweeps measured: {len(reps)} (closed loop, pool of {raw['pool_width']}); "
          f"setup_s from {len(setups)} fresh processes")
    points = reps[0]["points"]
    walls = [r["wall_s"] for r in reps]
    scales = metrics.host_scales(raw)
    print(f"host probe: {raw['probe_threads']} sampler threads, "
          f"{sum(r['probe_samples'] for r in reps)} bursts during the sweeps; host scale "
          f"(reference burst {metrics.REFERENCE_PROBE_S * 1e3:g} ms / mean burst) per sweep: "
          + " ".join(f"{k:.3f}" for k in scales))
    unscaled = metrics.raw_end_to_end(raw)
    notes = {
        "points_per_s": f"{points} points / median sweep wall ({statistics.median(walls):.4g} s "
                        f"unscaled), at reference host speed",
        "sim_mips": f"{reps[0]['instructions']} simulated instructions per sweep / wall, "
                    "at reference host speed",
        "cpu_s": "process CPU seconds per sweep without the probe's, at reference host speed",
        "peak_rss_mb": "peak resident set after the first sweep",
        "setup_s": "registry, spec parse, expand, pool spawn, store open",
    }
    for name, (value, unit) in result.items():
        show(name, value, unit, notes.get(name, ""))
    print("unscaled medians (host time as measured; not metrics, because they follow the host):")
    for name, (value, unit) in unscaled.items():
        show(name, value, unit)
    net, speedup = metrics.est_errors(raw["rollups"]["exact"], raw["rollups"]["sampled"])
    print("accuracy: sampled vs exact mode (exact mode is the only reference; the timing "
          "model is unvalidated against hardware, so no hardware error is given)")
    for (suite, sp, alg, unroll), err in net.items():
        print(f"  net cycles  {suite} {sp} {alg} u{unroll}: {100 * err:+.2f}%")
    for (suite, sp, pair, unroll), err in speedup.items():
        print(f"  speedup     {suite} {sp} {pair} u{unroll}: {100 * err:+.2f}%")


def report_per_layer(raw, result):
    t = raw["traced"]
    stages, total = metrics.stage_split(t["replicas"])
    span = total["span"]
    print(f"traced: {len(t['replicas'])} simulated jobs, each replayed stage by stage "
          f"on fresh memory (the whole grid, no subset)")
    print(f"stage split (self time summed over jobs, share of {span:.4g} s of point spans):")
    for stage, seconds in stages.items():
        print(f"  {stage:14s} {seconds:10.4f} s  {seconds / span:7.2%}")
    residual = stages["residual"] / span
    verdict = "within" if abs(residual) <= metrics.RESIDUAL_TOLERANCE else "OUTSIDE"
    print(f"  residual {residual:+.2%} is {verdict} the "
          f"{metrics.RESIDUAL_TOLERANCE:.0%} accounting tolerance")
    print("  " + metrics.ratio_text("timing.model_share", stages["model"], span,
                                    "model", "point spans", "s"))
    print("  " + metrics.ratio_text("core.batch.utilization", t["busy_s"],
                                    t["wall_s"] * t["workers"], "busy",
                                    f"wall x {t['workers']} workers", "s"))
    _, n, beyond = metrics.percentile(t["job_s"], 90)
    print(f"  job percentiles over {n} primary-sweep jobs ({beyond} beyond p90)")
    stalls = raw["model"]
    print(f"  simulated: {stalls['runs']} runs, {stalls['cycles']} cycles, "
          f"{stalls['instructions']} instructions, branch_shadow stalls "
          f"{stalls['stall.branch_shadow']}")
    for name, (value, unit) in result.items():
        show(name, value, unit)


def run_one(workload, seed, seconds, trace, binary, out):
    common = [binary, "--workload", workload, "--seed", seed,
              "--golden", ROOT / "tests" / "golden", "--work", out / "work"]
    def time_setups(count):
        return [run_bench(common + ["--setup-only"])["setup_s"] for _ in range(count)]

    # Half the set-up processes run before the measured sweeps and half
    # after, so that setup_s spans the same stretch of host time.
    setups = time_setups(SETUP_PROCESSES // 2) if not trace else []
    raw = run_bench(common + ["--seconds", seconds, "--trace", int(trace)])
    if not trace:
        setups += time_setups(SETUP_PROCESSES - len(setups))

    print(f"== {workload} seed={seed} trace={int(trace)}")
    print(f"build: type={raw['build_type']} compiler=\"{raw['compiler']}\" "
          f"ndebug={raw['ndebug']} nproc={raw['nproc']} pool_width={raw['pool_width']} "
          f"engine={raw['engine']}")
    print(f"sim_digest: {raw.get('sim_digest', 'none')}")
    for check in raw["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")

    correct = raw["ndebug"] and raw["failed_points"] == 0 and all(
        c["ok"] for c in raw["checks"])
    result = {}
    if "rollups" in raw:  # absent when a sweep threw
        if trace:
            result = metrics.per_layer(raw)
            report_per_layer(raw, result)
        else:
            result = metrics.end_to_end(raw, setups)
            report_end_to_end(raw, result, setups)
    attempted = int(raw["attempted_points"] + raw["golden_points"])
    failed = int(raw["failed_points"])
    print(f"error_rate = {failed / attempted:.6f} ({failed} failed of {attempted} points)")

    record = {"raw": raw, "metrics": result, "setup_samples": setups}
    (out / f"BENCH_{workload}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return correct, attempted, failed, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = build_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
        binary = build(out)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = {w: run_one(w, args.seed, args.seconds, args.trace, binary, out)
                for w in names}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"failed: {e}")
        return 1

    correct = all(r[0] for r in runs.values())
    if args.workload == "all":
        values = {f"{w}.{k}": v for w, r in runs.items() for k, v in r[3].items()}
    else:
        values = runs[args.workload][3]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[1] for r in runs.values()),
        "failed": sum(r[2] for r in runs.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
