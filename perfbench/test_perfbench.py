"""Self-tests of the benchmark: wrong values count as failures, the tracer measures.

    python3 -m pytest perfbench        (or: python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ellsuper import jumps, orbits, superpotential  # noqa: E402


class SessionCountsFailures(unittest.TestCase):
    def test_wrong_value_fails_all_ops_of_the_request(self):
        session = workloads.Session()
        session.request(3, lambda: 1, lambda result: None)
        session.request(5, lambda: 2, lambda result: "wrong value")
        self.assertEqual((session.ops, session.failed), (8, 5))
        self.assertEqual(len(session.latencies), 2)

    def test_exception_is_a_failed_request(self):
        session = workloads.Session()
        session.request(4, lambda: 1 / 0, lambda result: None)
        session.request(2, lambda: 1, lambda result: 1 / 0)
        self.assertEqual((session.ops, session.failed), (6, 6))


class SeedPicksOnlyEqualCostInputs(unittest.TestCase):
    def test_jump_scan_problems_are_the_same_for_every_seed(self):
        one, two = (workloads.inputs_jump_scan(random.Random(seed)) for seed in (1, 2))
        self.assertEqual(one["tuples"], two["tuples"])
        self.assertEqual(len(one["tuples"]), 340)
        self.assertEqual(sorted(a for a, _ in one["inverse"]), sorted(a for a, _ in two["inverse"]))
        self.assertEqual(sorted(tuple(a for a, _ in t) for t in one["chains"]),
                         sorted(tuple(a for a, _ in t) for t in two["chains"]))

    def test_cli_commands_differ_only_in_ratios(self):
        def shape(seed):
            commands = workloads.inputs_cli_mix(random.Random(seed))["commands"]
            return sorted([arg if i == 0 or args[i - 1] != "--a" else "RATIO" for i, arg in enumerate(args)]
                          for args in commands)

        self.assertEqual(shape(1), shape(2))

    def test_reference_is_sampled_at_most_every_interval(self):
        session = workloads.Session()
        session.reference(force=True)
        session.reference()
        self.assertEqual(len(session.ref_s), 1)
        session.ref_due = 0.0
        session.reference()
        self.assertEqual(len(session.ref_s), 2)


class OutputChecks(unittest.TestCase):
    def test_point_query_against_tables(self):
        target, d = superpotential.CP2Target(), 4
        pw = superpotential.piecewise_table(target, d, 1, None)
        nt = superpotential.normalized_table(target, d, 1, None)
        limits = (superpotential.wt_T_infinity(d), superpotential.T_infinity(d))
        for a, side in ((Fraction(13, 2), orbits.Side.PLUS), (Fraction(20), orbits.Side.MINUS)):
            params = orbits.normalized(a, side)
            wt = superpotential.wt_T(target, d, params)
            t = superpotential.T(target, d, params)
            mult = orbits.orbit(params, 3 * d - 1).multiplicity
            self.assertIsNone(workloads.check_query(pw, nt, d, a, side, wt, t, mult, *limits))
            self.assertIsNotNone(workloads.check_query(pw, nt, d, a, side, wt + 1, t, mult, *limits))
            self.assertIsNotNone(workloads.check_query(pw, nt, d, a, side, wt, t + 1, mult, *limits))

    def test_cli_output(self):
        good = json.dumps({"command": "gamma", "input": {}, "result": {}})
        self.assertIsNone(workloads.check_cli_output(["gamma"], 0, good))
        self.assertIsNotNone(workloads.check_cli_output(["gamma"], 1, good))
        self.assertIsNotNone(workloads.check_cli_output(["gamma"], 0, good[:-1]))
        self.assertIsNotNone(workloads.check_cli_output(["gamma"], 0, json.dumps({"command": "gamma"})))
        failed = json.dumps({"command": "check", "input": {}, "result": {"ok": False}})
        self.assertIsNotNone(workloads.check_cli_output(["check"], 0, failed))

    def test_wrong_jump_route_is_counted(self):
        inputs = workloads.inputs_jump_scan(random.Random(3))
        inputs["inverse"], inputs["chains"] = [], []
        original = jumps.jump_via_xi
        jumps.jump_via_xi = lambda a, idx: original(a, idx) + 1
        try:
            session = workloads.Session()
            workloads.run_jump_scan(inputs, session)
        finally:
            jumps.jump_via_xi = original
        self.assertEqual(session.failed, len(inputs["tuples"]))

    def test_independent_op_counts(self):
        self.assertEqual(workloads.window_word_count(4, 4), 7139)
        self.assertEqual(workloads.psi_word_count(3, 4), 34)
        # only (1, 1) has output index <= 3, at the ratios J_1 ∪ J_2 ∪ J_3 = {1/3, 1/2, 1, 2, 3}
        self.assertEqual(workloads.scan_pairs(3), 5)


class TracerMeasures(unittest.TestCase):
    def test_generator_is_timed_across_its_iteration(self):
        def slow_items():
            for i in range(3):
                time.sleep(0.01)
                yield i

        trace = tracer.Tracer("test")
        wrapped = tracer._wrap(trace, "exact.slow_items", slow_items)
        items = wrapped()
        self.assertEqual(trace.stats["exact.slow_items"][1], 0.0)
        self.assertEqual(list(items), [0, 1, 2])
        calls, self_s = trace.stats["exact.slow_items"][:2]
        self.assertEqual(calls, 1)
        self.assertGreaterEqual(self_s, 0.03)

    def test_install_rebinds_copies_and_attributes_self_time(self):
        script = (
            "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import ellsuper, tracer\n"
            "t = tracer.Tracer('t'); tracer.install(t)\n"
            "from ellsuper import linf, rounding\n"
            "assert rounding.extend_coderivation is linf.extend_coderivation\n"
            "rounding.verify_aug(2, 2)\n"
            "m = tracer.layer_metrics(tracer.counters(t, tracer.cache_sizes()), 1.0)\n"
            "edges = {f'{n}<{p}': c for (n, p), (c, s) in t.edges.items()}\n"
            "print(json.dumps([m, edges]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True)
        metrics, edges = json.loads(proc.stdout)
        self.assertGreater(metrics["linf.extend_coderivation.calls"], 0)
        self.assertGreater(metrics["linf.LinfStructure.level.memo_entries"], 0)
        self.assertEqual(metrics["superpotential.wt_T.calls"], 0)
        self.assertGreater(edges["linf.extend_coderivation<rounding.verify_aug"], 0)
        self.assertAlmostEqual(sum(metrics[f"layer.{x}.share"] for x in tracer.LAYERS), 1.0)

    def test_missing_cache_reads_as_absent(self):
        saved = superpotential._WT_CACHE
        del superpotential._WT_CACHE
        try:
            self.assertIsNone(tracer.cache_sizes()["wt_T"])
            self.assertIsNone(tracer.signatures())
        finally:
            superpotential._WT_CACHE = saved


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.PER_LAYER)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-mix",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, cwd=bare, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
