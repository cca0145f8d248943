#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 benchmark/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the planted-truth checkers count corrupted reports as failures, that the
tracer's factorization counts match counts taken by hand on the program, and
that the benchmark refuses to run without the program's sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run  # pins the BLAS threads before numpy loads
import workloads
from tracer import Tracer

TINY = {"WOLD_SHAPES": [(4, 2), (5, 3)], "LAB_SHAPES": [(3, 6), (4, 8)]}
SELFTEST_DIR = os.path.join(run.WORK, "selftest")


def tiny():
    return mock.patch.multiple(workloads, **TINY)


def scalex():
    sys.path.insert(0, run.SRC)
    import scalex.cli as cli
    import scalex.matio as matio

    return cli, matio


def replay(name: str, seed: int = 3):
    """Run one cycle of a workload in-process; [(op, code, stdout)]."""
    cli, _ = scalex()
    out = []
    for op in workloads.make(name, seed, os.path.join(SELFTEST_DIR, name)):
        code, stdout = run.call_main(cli, op.argv)
        out.append((op, code, stdout))
    return out


def corrupt(stdout: str, edit) -> str:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc)


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                buf = io.StringIO()
                argv = ["--workload", w["name"], "--seed", "5", "--seconds", "1", "--trace", str(trace)]
                with tiny(), contextlib.redirect_stdout(buf):
                    self.assertEqual(run.main(argv), 0)
                result = json.loads(buf.getvalue().splitlines()[-1])
                with self.subTest(workload=w["name"], trace=trace):
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], buf.getvalue())
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, line in ((n, f"  {n:48s}") for n in expected):
                        self.assertIn(line, buf.getvalue(), name)


class CheckersCountCorruption(unittest.TestCase):
    def test_flipped_verdict(self):
        with tiny():
            ran = replay("lab_wide")
        verify = [r for r in ran if r[0].argv[0] == "verify"]
        for op, code, stdout in ran:  # chain state comes from each chain's synth check
            self.assertIsNone(workloads.judge(op, code, stdout))
            if op.argv[0] == "verify":
                flip = {"proper": "nonproper", "nonproper": "proper"}
                bad = corrupt(stdout, lambda d: d.update(verdict=flip[d["verdict"]]))
                self.assertIsNotNone(workloads.judge(op, code, bad))
        self.assertTrue(verify)

    def test_wold_eigenvalue_and_q_ranks(self):
        with tiny():
            ran = replay("wold_deep")
        for op, code, stdout in ran:
            self.assertIsNone(workloads.judge(op, code, stdout))

            def shift(d):
                d["a_eigenvalues"][0] += 1e-6

            self.assertIsNotNone(workloads.judge(op, code, corrupt(stdout, shift)))
            dropped = corrupt(stdout, lambda d: d["q_ranks"].pop())
            self.assertIsNotNone(workloads.judge(op, code, dropped))

    def test_exit_0_where_2_expected(self):
        ran = replay("decide")
        malformed = [(op, out) for op, code, out in ran if code == 2]
        self.assertEqual(len(malformed), 6)
        for op, code, stdout in ran:
            self.assertIsNone(workloads.judge(op, code, stdout))
        for op, stdout in malformed:
            self.assertIsNotNone(workloads.judge(op, 0, stdout))


class TracerCounts(unittest.TestCase):
    """Per-call factorization counts measured by hand on the program."""

    def counts(self, name: str, shapes: dict) -> dict[str, list[dict]]:
        cli, matio = scalex()
        with mock.patch.multiple(workloads, **shapes):
            ops = workloads.make(name, 2, os.path.join(SELFTEST_DIR, name))
        tracer = Tracer()
        for op in ops:
            run.run_op(cli, matio, op, tracer, [])
        out: dict[str, list[dict]] = {}
        for sp in tracer.spans:
            out.setdefault(sp.name, []).append(dict(sp.counts))
        return out

    def test_wold_at_depth_20(self):
        got = self.counts("wold_deep", {"WOLD_SHAPES": [(20, 2)]})
        self.assertEqual(got["wold.wold_decompose"], [{"norm2": 256, "svd": 3, "eigh": 3}])

    def test_lab_chain(self):
        # chain 0 cuts at a gap point, so its witness is built
        got = self.counts("lab_wide", {"LAB_SHAPES": [(4, 8)]})
        self.assertEqual(got["operators.classify_properness"], [{"svd": 1, "norm2": 3}])
        self.assertEqual(
            got["operators.infinite_projection_witness"],
            [{"svd": 2, "norm2": 4, "eigh": 1, "eigvalsh": 1}],
        )
        self.assertEqual(got["operators.estimate_spectrum"], [{"svd": 1}, {"svd": 1}])


class NeedsSources(unittest.TestCase):
    def test_refuses_without_program(self):
        bare = os.path.join(SELFTEST_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, "benchmark"), ignore=shutil.ignore_patterns("__pycache__"))
        argv = ["--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", *argv], cwd=bare, capture_output=True, text=True, timeout=180
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
