#!/usr/bin/env python3
"""Tests for the whole-chain benchmark itself.

    python3 perfbench/test_perfbench.py

Short runs of every workload check the result line against BENCHMARK.json
(every metric name and unit, nothing extra), a deliberately corrupted
payload must make the run fail, the deterministic counters must repeat
exactly for a fixed seed, and the Table 3 counts of handshake-full must
match the paper's closed forms and, when the repository's own build is
present, bench_table3_crypto_ops.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TABLE3_BIN = os.path.join(ROOT, "build", "bench", "bench_table3_crypto_ops")

# Per-layer metrics that are exact for a fixed seed.
EXACT_UNITS = {"count", "bytes"}
EXACT_RATIOS = {"mctls.resumed_ratio", "util.cache.server.hit_ratio",
                "util.cache.middlebox.hit_ratio"}


def bench(workload, seed=1, seconds=1, trace=0, extra=()):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args + list(extra), capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


class ResultLine(unittest.TestCase):
    def check(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_reports_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                code, result, out = bench(w, trace=0)
                self.assertEqual(code, 0, out)
                self.check(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w, trace=1):
                code, result, out = bench(w, trace=1)
                self.assertEqual(code, 0, out)
                self.check(result, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["obs.spans_dropped"]["value"], 0)


class Oracle(unittest.TestCase):
    def test_corrupted_payload_fails_the_run(self):
        for w in ("records-tiny", "records-bulk", "resume-churn"):
            with self.subTest(workload=w):
                code, result, out = bench(w, extra=["--corrupt-every", "3"])
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["failed"] / result["attempted"], 0)
                self.assertIn("CORRECTNESS FAILURE", out)


class Deterministic(unittest.TestCase):
    def exact(self, result):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        return {k: v["value"] for k, v in result["metrics"].items()
                if units[k] in EXACT_UNITS or k in EXACT_RATIOS}

    def test_counters_repeat_for_a_fixed_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a, _ = bench(w, seed=9, trace=1)
                _, b, _ = bench(w, seed=9, trace=1)
                self.assertEqual(self.exact(a), self.exact(b))

    def test_table3_counts_for_handshake_full(self):
        _, result, _ = bench("handshake-full", trace=1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        n, k = 2, 4  # middleboxes, contexts
        for party in ("client", "server"):
            self.assertEqual(m["crypto.ops.%s.secret_comp" % party], n + 1)
            self.assertEqual(m["crypto.ops.%s.key_gen" % party], 4 * k + n + 1)
            self.assertEqual(m["crypto.ops.%s.sym_encrypt" % party], n + 2)
            self.assertEqual(m["crypto.ops.%s.sym_decrypt" % party], 2)
        self.assertEqual(m["crypto.ops.middlebox.hash"], 0)
        self.assertEqual(m["crypto.ops.middlebox.secret_comp"], 2)
        self.assertEqual(m["crypto.ops.middlebox.sym_decrypt"], 2)
        # mbox0 reads ctx1 and ctx2 only: its two DH pairs plus one reader
        # key per readable context, within the paper's bound of 2K+2.
        self.assertEqual(m["crypto.ops.middlebox.key_gen"], 4)
        self.assertEqual(m["mctls.resumed_ratio"], 0)

        if not os.path.exists(TABLE3_BIN):
            self.skipTest("repository build absent: " + TABLE3_BIN)
        out = subprocess.run([TABLE3_BIN], capture_output=True, text=True).stdout
        section = out.split("N=2 middleboxes, K=4 contexts")[1]
        names = {"hash": "hash", "secret": "secret_comp", "keygen": "key_gen",
                 "verify": "asym_verify", "enc": "sym_encrypt", "dec": "sym_decrypt"}
        # Client and server rows do not depend on the middleboxes' grants,
        # so they must equal Table 3's measured rows exactly.
        for party in ("client", "server"):
            row = re.search(r"measured mcTLS %s:(.*)" % party, section).group(1)
            for key, value in re.findall(r"(\w+)=(\d+)", row):
                self.assertEqual(m["crypto.ops.%s.%s" % (party, names[key])], int(value),
                                 (party, key))


if __name__ == "__main__":
    unittest.main()
