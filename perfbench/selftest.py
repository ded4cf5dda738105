"""Checks of the harness's own arithmetic; needs no tfcgc sources.

    python3 perfbench/selftest.py
"""

import multiprocessing
import os
import sys
import tempfile
import unittest
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Patcher, Recorder, Span, self_times  # noqa: E402
from stats import Tally, describe, tail_percentile  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 39 samples: p75 leaves 9 beyond it, too few
        self.assertIsNone(tail_percentile(range(1, 40)))
        # 40 samples: p75 is the 30th value, 10 beyond
        self.assertEqual(tail_percentile(range(1, 41)), (75.0, 30))

    def test_picks_highest_qualifying(self):
        # 100 samples: p90 = 90th value with 10 beyond; p95 leaves 5
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90))
        # 1000 samples: p99 = 990th value with 10 beyond
        self.assertEqual(tail_percentile(range(1000, 0, -1)), (99.0, 990))

    def test_describe_states_count(self):
        d = describe([3.0, 1.0, 2.0])
        self.assertEqual((d["median"], d["n"]), (2.0, 3))
        self.assertNotIn("tail_percentile", d)


class SelfTime(unittest.TestCase):
    def test_sequential_children(self):
        spans = [
            Span(0, None, "a", 0.0, 10.0, 1),
            Span(1, 0, "b", 1.0, 4.0, 1),
            Span(2, 0, "c", 5.0, 6.0, 1),
            Span(3, 1, "d", 2.0, 3.5, 1),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 1.5)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 1.5)
        # self times partition the root
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_overlapping_worker_children(self):
        # two workers busy under one parent: the union is covered once
        spans = [
            Span(0, None, "pool", 0.0, 10.0, 1),
            Span(1, 0, "unit", 1.0, 7.0, 2),
            Span(2, 0, "unit", 2.0, 9.0, 3),
            Span(3, 0, "unit", 9.5, 12.0, 2),  # clipped at the parent's end
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 8.0 - 0.5)
        self.assertAlmostEqual(own[1], 6.0)


class Failures(unittest.TestCase):
    def test_counts_and_ratio(self):
        tally = Tally()
        for problems in ([], ["bad"], [], [], ["worse", "worst"]):
            tally.record(problems)
        self.assertEqual((tally.attempted, tally.failed), (5, 2))
        self.assertAlmostEqual(tally.failure_ratio, 0.4)
        self.assertAlmostEqual(tally.success_pct, 60.0)
        self.assertEqual(tally.reasons, ["bad", "worse", "worst"])

    def test_empty(self):
        self.assertEqual(Tally().failure_ratio, 0.0)


def _leaf(x):
    return x + 1


def _root(x):
    return _leaf(x) * 2


class Patching(unittest.TestCase):
    def setUp(self):
        self.module = sys.modules[__name__]
        self.originals = (_leaf, _root)
        self.spool = tempfile.TemporaryDirectory()
        self.recorder = Recorder(self.spool.name)
        self.patcher = Patcher(self.recorder, [self.module])
        self.patcher.function(self.module, "_leaf", "t.leaf")
        self.patcher.function(self.module, "_root", "t.root")

    def tearDown(self):
        self.patcher.restore()
        self.spool.cleanup()

    def test_spans_and_restore(self):
        self.assertEqual(self.module._root(1), 4)
        self.patcher.restore()
        self.assertEqual((self.module._leaf, self.module._root), self.originals)
        leaf, root = self.recorder.collect()
        self.assertEqual((leaf.name, root.name), ("t.leaf", "t.root"))
        self.assertEqual(leaf.parent, root.sid)
        self.assertIsNone(root.parent)

    def test_forked_workers_spool_their_spans(self):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            self.assertEqual(list(pool.map(self.module._root, range(4))), [2, 4, 6, 8])
        spans = self.recorder.collect()
        self.assertEqual(sorted(s.name for s in spans), ["t.leaf"] * 4 + ["t.root"] * 4)
        self.assertTrue(all(s.pid != os.getpid() for s in spans))
        self.assertEqual(os.listdir(self.spool.name), [])


if __name__ == "__main__":
    unittest.main()
