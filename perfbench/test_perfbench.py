#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs every workload for one round (--seconds 0) through run.py and
checks that:

* every VM matches its interpreter reference (correct, failed == 0);
* two runs with the same seed give the same model_cycles_per_insn and
  the same counts and ratios among the per-layer metrics (everything
  but the timings), so a change that only speeds up the host leaves
  them exactly equal;
* the per-layer replays cover the work the VMs did: replaying the BBT
  over a cold_boot program's block entries translates exactly the
  VM's bbtInsnsTranslated, and the replayed warm install of a
  warm_boot class accepts exactly the VM's warmInstalled.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEED = 3
# Per-layer units that are times, not counts; they may differ run to run.
TIME_UNITS = {"ms", "s", "ns", "ns/insn", "ns/uop"}


def bench(workload, trace, spans=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    if spans:
        cmd += ["--spans-out", spans]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         cwd=run.ROOT, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n"
                             f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check_correct(self, result):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_determinism(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = bench(w, 0), bench(w, 0)
                self.check_correct(a)
                self.check_correct(b)
                self.assertEqual(
                    a["metrics"]["model_cycles_per_insn"]["value"],
                    b["metrics"]["model_cycles_per_insn"]["value"])

    def test_per_layer_counts_repeat(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = bench(w, 1), bench(w, 1)
                self.check_correct(a)
                counts = {k: v["value"] for k, v in a["metrics"].items()
                          if v["unit"] not in TIME_UNITS}
                self.assertTrue(
                    any(k.startswith("engine.") for k in counts))
                for k, v in counts.items():
                    self.assertEqual(v, b["metrics"][k]["value"], k)

    def replay_summary(self, workload):
        spans = str(Path(self.tmp.name) / f"{workload}.json")
        self.check_correct(bench(workload, 1, spans))
        with open(spans) as f:
            doc = json.load(f)
        self.assertTrue(doc["spans"])
        return doc["summary"]

    def test_bbt_replay_matches_cold_boot_vms(self):
        summary = self.replay_summary("cold_boot")
        self.assertEqual(summary["decode_failures"], 0)
        for p in summary["programs"]:
            self.assertGreater(p["vm_bbt_insns"], 0)
            self.assertEqual(p["replay_bbt_insns"], p["vm_bbt_insns"])

    def test_warm_install_replay_matches_warm_boot_vms(self):
        summary = self.replay_summary("warm_boot")
        for p in summary["programs"]:
            self.assertGreater(p["vm_warm_installed"], 0)
            self.assertEqual(p["replay_warm_installed"],
                             p["vm_warm_installed"])


if __name__ == "__main__":
    unittest.main()
