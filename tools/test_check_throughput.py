#!/usr/bin/env python3
"""Unit tests for check_throughput.compare (stdlib only).

Regression coverage for two bugs the original script shipped with:
  * scenarios present only in the current report were silently skipped
    (the loop iterated the baseline), so newly added benchmarks were
    never guarded — now they warn until the baseline is bumped;
  * a baseline entry with mips == 0 crashed with ZeroDivisionError —
    now it warns about the malformed entry instead.
"""

import unittest

import check_throughput


def report(scenarios, sweep=None):
    doc = {"schema": "indexmac-sim-throughput-v1",
           "scenarios": [{"name": n, "mips": m} for n, m in scenarios]}
    if sweep is not None:
        doc["canonical_sweep_seconds"] = sweep
    return doc


class CompareTest(unittest.TestCase):
    def test_no_warnings_when_within_threshold(self):
        lines, warnings = check_throughput.compare(
            report([("a", 95.0), ("b", 210.0)]),
            report([("a", 100.0), ("b", 200.0)]), max_drop=20.0)
        self.assertEqual(warnings, 0)
        self.assertFalse(any(l.startswith("::warning::") for l in lines))

    def test_regression_warns(self):
        lines, warnings = check_throughput.compare(
            report([("a", 50.0)]), report([("a", 100.0)]), max_drop=20.0)
        self.assertEqual(warnings, 1)
        self.assertTrue(any("regression: a at 50.00 MIPS" in l for l in lines))

    def test_current_missing_scenario_warns(self):
        _, warnings = check_throughput.compare(
            report([]), report([("a", 100.0)]), max_drop=20.0)
        self.assertEqual(warnings, 1)

    def test_current_only_scenario_warns_instead_of_silent_skip(self):
        # The original script iterated baseline.items() only: a scenario
        # added to the bench but not yet to the baseline JSON vanished
        # from the comparison entirely. It must surface as a warning.
        lines, warnings = check_throughput.compare(
            report([("a", 100.0), ("new_scenario", 42.0)]),
            report([("a", 100.0)]), max_drop=20.0)
        self.assertEqual(warnings, 1)
        self.assertTrue(any("'new_scenario' has no baseline entry" in l for l in lines))
        # The scenario still appears in the table, not just the annotation.
        self.assertTrue(any(l.startswith("new_scenario") and "42.00" in l for l in lines))

    def test_zero_mips_baseline_warns_instead_of_crashing(self):
        # The original script divided by base["mips"]: a zero entry (e.g.
        # a truncated or hand-edited baseline) raised ZeroDivisionError.
        lines, warnings = check_throughput.compare(
            report([("a", 100.0)]), report([("a", 0.0)]), max_drop=20.0)
        self.assertEqual(warnings, 1)
        self.assertTrue(any("delta undefined" in l for l in lines))

    def test_union_order_is_baseline_then_current_only(self):
        lines, _ = check_throughput.compare(
            report([("x", 1.0), ("c_only", 2.0)]),
            report([("b1", 1.0), ("b2", 1.0)]), max_drop=20.0)
        rows = [l.split()[0] for l in lines[1:]
                if not l.startswith("::warning::") and not l.endswith("warning(s)")]
        self.assertEqual(rows, ["b1", "b2", "x", "c_only"])

    def test_sweep_seconds_rendered(self):
        lines, _ = check_throughput.compare(
            report([("a", 100.0)], sweep=1.25), report([("a", 100.0)]), max_drop=20.0)
        self.assertTrue(any(l.startswith("tiny_sweep") and "1.2500s" in l for l in lines))


class RatioGateTest(unittest.TestCase):
    """The hard gate: vector_heavy_threaded MIPS / vector_heavy MIPS."""

    def test_passes_at_the_floor(self):
        lines, failed = check_throughput.check_ratio(
            report([("vector_heavy", 10.0), ("vector_heavy_threaded", 20.0)]),
            floor=2.0)
        self.assertFalse(failed)
        self.assertTrue(any("ratio 2.00 (floor 2.00)" in l for l in lines))
        self.assertFalse(any(l.startswith("::error::") for l in lines))

    def test_fails_below_the_floor(self):
        lines, failed = check_throughput.check_ratio(
            report([("vector_heavy", 10.0), ("vector_heavy_threaded", 19.0)]),
            floor=2.0)
        self.assertTrue(failed)
        self.assertTrue(any(l.startswith("::error::") and "below the floor" in l
                            for l in lines))

    def test_missing_scenario_fails(self):
        # Dropping a scenario from the bench must not switch the gate off.
        for present in ("vector_heavy", "vector_heavy_threaded"):
            lines, failed = check_throughput.check_ratio(
                report([(present, 10.0)]), floor=2.0)
            self.assertTrue(failed, present)
            self.assertTrue(any("missing" in l for l in lines), present)

    def test_zero_denominator_fails(self):
        _, failed = check_throughput.check_ratio(
            report([("vector_heavy", 0.0), ("vector_heavy_threaded", 20.0)]),
            floor=2.0)
        self.assertTrue(failed)

    def test_default_floor_is_set(self):
        self.assertGreater(check_throughput.THREADED_TRACE_FLOOR, 1.0)


if __name__ == "__main__":
    unittest.main()
