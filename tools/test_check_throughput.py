#!/usr/bin/env python3
"""Unit tests for check_throughput: compare and the hard ratio gates (stdlib only).

Regression coverage for two bugs the original script shipped with:
  * scenarios present only in the current report were silently skipped
    (the loop iterated the baseline), so newly added benchmarks were
    never guarded — now they warn until the baseline is bumped;
  * a baseline entry with mips == 0 crashed with ZeroDivisionError —
    now it warns about the malformed entry instead.
"""

import json
import os
import tempfile
import unittest
from unittest import mock

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
    """check_ratio itself: MIPS of pair[0] over MIPS of pair[1] against a
    floor, on its default pair (the model-cost gate)."""

    def test_passes_at_the_floor(self):
        lines, failed = check_throughput.check_ratio(
            report([("fsim_vector_threaded", 10.0), ("vector_heavy", 20.0)]),
            floor=2.0)
        self.assertFalse(failed)
        self.assertTrue(any("ratio 2.00 (floor 2.00)" in l for l in lines))
        self.assertFalse(any(l.startswith("::error::") for l in lines))

    def test_fails_below_the_floor(self):
        lines, failed = check_throughput.check_ratio(
            report([("fsim_vector_threaded", 10.0), ("vector_heavy", 19.0)]),
            floor=2.0)
        self.assertTrue(failed)
        self.assertTrue(any(l.startswith("::error::") and "below the floor" in l
                            for l in lines))


class GateTestBase:
    """Shared cases for one hard gate: PAIR over its FLOOR."""

    PAIR = None
    FLOOR = None

    def gate(self, scenarios, floor=0.15):
        return check_throughput.check_ratio(report(scenarios), floor=floor, pair=self.PAIR)

    def test_passes_at_the_floor(self):
        num, den = self.PAIR
        lines, failed = self.gate([(den, 200.0), (num, 30.0)])
        self.assertFalse(failed)
        self.assertTrue(any(f"{num}/{den} MIPS ratio 0.15 (floor 0.15)" in l for l in lines))
        self.assertFalse(any(l.startswith("::error::") for l in lines))

    def test_fails_below_the_floor(self):
        num, den = self.PAIR
        lines, failed = self.gate([(den, 200.0), (num, 29.0)])
        self.assertTrue(failed)
        self.assertTrue(any(l.startswith("::error::") and "below the floor" in l
                            for l in lines))

    def test_missing_scenario_fails(self):
        # Dropping a scenario from the bench must not switch the gate off.
        for present in self.PAIR:
            lines, failed = self.gate([(present, 10.0)])
            self.assertTrue(failed, present)
            self.assertTrue(any("missing" in l for l in lines), present)

    def test_zero_denominator_fails(self):
        num, den = self.PAIR
        lines, failed = self.gate([(den, 0.0), (num, 30.0)])
        self.assertTrue(failed)
        self.assertTrue(any("undefined" in l for l in lines))

    def test_default_floor_is_a_fraction(self):
        self.assertGreater(self.FLOOR, 0.0)
        self.assertLess(self.FLOOR, 1.0)


class ModelCostGateTest(GateTestBase, unittest.TestCase):
    """vector_heavy MIPS / fsim_vector_threaded MIPS: the timing model's
    cost relative to the functional engine."""

    PAIR = check_throughput.MODEL_COST_RATIO
    FLOOR = check_throughput.MODEL_COST_FLOOR

    def test_pair_is_model_over_threaded_fsim(self):
        self.assertEqual(self.PAIR, ("vector_heavy", "fsim_vector_threaded"))
        self.assertEqual(self.FLOOR, 0.15)


class BlockTraceGateTest(GateTestBase, unittest.TestCase):
    """vector_heavy MIPS / fsim_vector_interp MIPS: block-driven timing
    against the interpreter alone, which a per-instruction trace cannot
    reach."""

    PAIR = check_throughput.BLOCK_TRACE_RATIO
    FLOOR = check_throughput.BLOCK_TRACE_FLOOR

    def test_pair_is_model_over_interp_fsim(self):
        self.assertEqual(self.PAIR, ("vector_heavy", "fsim_vector_interp"))


class MainTest(unittest.TestCase):
    """main() exits 1 when either hard gate fails."""

    def run_main(self, scenarios):
        with tempfile.TemporaryDirectory() as tmp:
            current = os.path.join(tmp, "current.json")
            with open(current, "w", encoding="utf-8") as f:
                json.dump(report(scenarios), f)
            argv = ["check_throughput.py", current, current]
            with mock.patch("sys.argv", argv), mock.patch("builtins.print"):
                return check_throughput.main()

    def scenarios(self, model_cost, block_trace):
        """A report whose two gate ratios are the given multiples of their
        floors."""
        model = 100.0
        return [("vector_heavy", model),
                ("fsim_vector_threaded", model / (check_throughput.MODEL_COST_FLOOR * model_cost)),
                ("fsim_vector_interp", model / (check_throughput.BLOCK_TRACE_FLOOR * block_trace))]

    def test_both_gates_pass(self):
        self.assertEqual(self.run_main(self.scenarios(1.01, 1.01)), 0)

    def test_model_cost_gate_fails_the_run(self):
        self.assertEqual(self.run_main(self.scenarios(0.9, 1.5)), 1)

    def test_block_trace_gate_fails_the_run(self):
        self.assertEqual(self.run_main(self.scenarios(1.5, 0.9)), 1)


if __name__ == "__main__":
    unittest.main()
