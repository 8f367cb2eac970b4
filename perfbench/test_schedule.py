"""Schedule determinism self-test of the benchmark.

Run with ``python3 perfbench/test_schedule.py`` (or ``python3 -m pytest
perfbench``).  It checks that a seed fixes the op schedule exactly, that
another seed changes it, and that generating a schedule never imports
``repro``, so the program under test cannot shape its own inputs.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import schedule as sched  # noqa: E402

def digest(workload, seed):
    return sched.schedule_hash(sched.schedule(workload, seed, 8, 5))


class ScheduleDeterminism(unittest.TestCase):
    WORKLOADS = ("interactive", "batch")

    def test_same_seed_same_schedule(self):
        for workload in self.WORKLOADS:
            self.assertEqual(digest(workload, 7), digest(workload, 7),
                             workload)

    def test_other_seed_other_schedule(self):
        for workload in self.WORKLOADS:
            self.assertNotEqual(digest(workload, 7), digest(workload, 8),
                                workload)

    def test_blocks_keep_their_composition(self):
        for workload in self.WORKLOADS:
            kinds = {tuple(sorted(op["kind"] for op in block))
                     for seed in (1, 2)
                     for block in sched.blocks(workload, seed)}
            self.assertEqual(len(kinds), 1, workload)

    def test_serve_offers_a_fixed_load(self):
        mixes = {tuple(sorted(request["kind"] for _, request in
                              sched.serve_schedule(seed, 8, 5)))
                 for seed in range(5)}
        self.assertEqual(len(mixes), 1)
        self.assertEqual(len(next(iter(mixes))), 40)

    def test_generation_never_imports_repro(self):
        code = ("import sys; sys.path.insert(0, {here!r})\n"
                "import schedule as s\n"
                "for w in ('interactive', 'batch'):\n"
                "    s.schedule_hash(s.schedule(w, 3, 8, 5))\n"
                "print(sorted(m for m in sys.modules if m == 'repro' "
                "or m.startswith('repro.')))").format(here=HERE)
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=120,
                             env={k: v for k, v in os.environ.items()
                                  if k != "PYTHONPATH"})
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertEqual(out.stdout.strip(), "[]")


if __name__ == "__main__":
    unittest.main()
