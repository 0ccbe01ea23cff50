"""Tests of the benchmark's own arithmetic: python3 perfbench/test_metrics.py"""

import unittest

import metrics


def row(suite, sp, alg, unroll, cycles):
    return {"suite": suite, "sparsity": sp, "algorithm": alg, "unroll": unroll,
            "cycles": cycles}


class Percentile(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        values = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(metrics.percentile(values, 50), (50, 100, 50))
        self.assertEqual(metrics.percentile(values, 90), (90, 100, 10))

    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            metrics.percentile(list(range(100)), 91)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_highest_supported_percentile_of_the_smallest_workload(self):
        # 114 exact jobs: p90 is rank 103, leaving 11 beyond it.
        self.assertEqual(metrics.percentile(list(range(114)), 90)[1:], (114, 11))


class SelfTime(unittest.TestCase):
    def test_span_minus_children(self):
        self.assertAlmostEqual(metrics.self_time(10.0, [2.5, 4.0, 1.5]), 2.0)
        self.assertEqual(metrics.self_time(3.0, []), 3.0)

    def test_stage_split_accounts_for_the_span(self):
        replica = {"span": 10.0, "gen": 1.0, "pack": 0.2, "emit": 0.1, "prepare": 0.5,
                   "fsim": 2.0, "trace": 3.0, "tsim": 8.0, "mode": "sampled"}
        stages, total = metrics.stage_split([replica, dict(replica)])
        self.assertAlmostEqual(sum(stages.values()), total["span"])
        self.assertAlmostEqual(stages["prepare"], 0.4)
        self.assertAlmostEqual(stages["step_overhead"], 2.0)
        self.assertAlmostEqual(stages["model"], 10.0)
        self.assertAlmostEqual(stages["residual"], 1.0)


class Ratio(unittest.TestCase):
    def test_printed_with_its_base(self):
        text = metrics.ratio_text("timing.model_share", 1.5, 6.0, "model", "spans", "s")
        self.assertEqual(text, "timing.model_share = 0.2500 (1.5 s model of 6 s spans)")


class RedundantShare(unittest.TestCase):
    def test_one_minus_unique_over_calls(self):
        self.assertAlmostEqual(metrics.redundant_share(["a", "a", "b", "a"]), 0.5)
        self.assertEqual(metrics.redundant_share(["a", "b"]), 0.0)


class EstimatorError(unittest.TestCase):
    exact = [row("net", "2:4", "rowwise", 4, 400.0), row("net", "2:4", "indexmac", 4, 200.0),
             row("net", "2:4", "indexmac4", 4, 100.0), row("net", "1:4", "ssr", 1, 50.0)]
    sampled = [row("net", "2:4", "rowwise", 4, 420.0), row("net", "2:4", "indexmac", 4, 180.0),
               row("net", "2:4", "indexmac4", 4, 75.0), row("net", "2:4", "rowwise", 2, 9.0)]

    def test_signed_errors_of_hand_built_rollups(self):
        net, speedup = metrics.est_errors(self.exact, self.sampled)
        self.assertEqual(set(net), {("net", "2:4", a, 4)
                                    for a in ("rowwise", "indexmac", "indexmac4")})
        self.assertAlmostEqual(net[("net", "2:4", "rowwise", 4)], 0.05)
        self.assertAlmostEqual(net[("net", "2:4", "indexmac4", 4)], -0.25)
        # exact speedups 2 and 4; sampled 420/180 and 420/75 = 5.6.
        self.assertAlmostEqual(speedup[("net", "2:4", "rowwise->indexmac", 4)],
                               (420 / 180 - 2) / 2)
        self.assertAlmostEqual(speedup[("net", "2:4", "rowwise->indexmac4", 4)], 0.4)
        self.assertAlmostEqual(metrics.largest_abs_pct(net), 25.0)
        self.assertAlmostEqual(metrics.largest_abs_pct(speedup), 40.0)

    def test_disjoint_rollups_are_an_error(self):
        with self.assertRaises(ValueError):
            metrics.est_errors(self.exact[3:], self.sampled[:1])


class HostScale(unittest.TestCase):
    @staticmethod
    def raw(*reps):
        return {"reps": [{"points": 100, "instructions": 2e6, "wall_s": w, "cpu_s": c,
                          "probe_burst_s": b, "probe_samples": 40, "peak_rss_kb": 1024} for w, c, b in reps],
                "rollups": {"exact": EstimatorError.exact, "sampled": EstimatorError.exact}}

    def test_scale_is_reference_over_burst(self):
        ref = metrics.REFERENCE_PROBE_S
        raw = self.raw((1.0, 4.0, ref), (1.0, 4.0, 2 * ref))
        self.assertEqual(metrics.host_scales(raw), [1.0, 0.5])

    def test_a_sweep_without_probe_samples_is_an_error(self):
        raw = self.raw((1.0, 4.0, 0.0))
        raw["reps"][0]["probe_samples"] = 0
        with self.assertRaises(ValueError):
            metrics.host_scales(raw)

    def test_a_host_twice_as_slow_reads_the_same(self):
        ref = metrics.REFERENCE_PROBE_S
        steady = metrics.end_to_end(self.raw((2.0, 8.0, ref)), [0.1])
        slowed = metrics.end_to_end(self.raw((4.0, 16.0, 2 * ref)), [0.1])
        for name in ("points_per_s", "sim_mips", "cpu_s"):
            self.assertAlmostEqual(steady[name][0], slowed[name][0])
        self.assertAlmostEqual(steady["points_per_s"][0], 50.0)
        self.assertAlmostEqual(steady["sim_mips"][0], 1.0)
        self.assertAlmostEqual(steady["cpu_s"][0], 8.0)

    def test_unscaled_figures_are_kept(self):
        ref = metrics.REFERENCE_PROBE_S
        unscaled = metrics.raw_end_to_end(self.raw((4.0, 16.0, 2 * ref)))
        self.assertAlmostEqual(unscaled["points_per_s"][0], 25.0)
        self.assertAlmostEqual(unscaled["cpu_s"][0], 16.0)
        self.assertAlmostEqual(unscaled["host_scale"][0], 0.5)


if __name__ == "__main__":
    unittest.main()
