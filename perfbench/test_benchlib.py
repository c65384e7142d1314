"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(samples, 50), 50)
        self.assertEqual(benchlib.percentile(samples, 99), 99)
        self.assertEqual(benchlib.percentile(samples, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_tail_needs_ten_samples_beyond(self):
        # p99 needs n * 1% >= 10, i.e. 1000 samples.
        self.assertEqual(benchlib.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(benchlib.tail_percentile(list(range(999)))[0], 95.0)
        # p99.9 from 10,000 samples.
        self.assertEqual(benchlib.tail_percentile(list(range(10000)))[0],
                         99.9)
        # 200 samples: p95 has exactly 10 beyond it.
        p, value = benchlib.tail_percentile(list(range(1, 201)))
        self.assertEqual((p, value), (95.0, 190))
        # 20 samples: only the median qualifies; 19 is too few for any.
        self.assertEqual(benchlib.tail_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(benchlib.tail_percentile(list(range(19))),
                         (None, None))

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)


class SpanTest(unittest.TestCase):
    # (id, parent, name, start, end)
    SPANS = [
        (0, -1, "top", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "a.child", 2.0, 3.0),
        (3, 0, "b", 5.0, 9.0),
        (4, 3, "b.x", 5.0, 7.0),
        (5, 3, "b.y", 6.0, 8.0),      # overlaps b.x: the union counts
        (6, -1, "top2", 11.0, 12.0),
    ]

    def test_self_time_subtracts_direct_children(self):
        selfs = benchlib.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 4.0 - 3.0)  # children cover 5..8
        self.assertAlmostEqual(selfs[6], 1.0)

    def test_self_times_add_up_to_top_level_time(self):
        selfs = benchlib.self_times(self.SPANS)
        # Top-level spans cover 11 s. Overlapping siblings each keep their
        # own self time, so b.x and b.y charge their shared second twice.
        self.assertAlmostEqual(sum(selfs.values()), 11.0 + 1.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [(0, -1, "p", 0.0, 2.0), (1, 0, "c", 1.0, 5.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 1.0)

    def test_totals_and_coverage(self):
        total, own = benchlib.span_totals(self.SPANS)
        self.assertAlmostEqual(total["top"], 10.0)
        self.assertAlmostEqual(own["b"], 1.0)
        covered, gap = benchlib.top_level_coverage(self.SPANS, 12.5)
        self.assertAlmostEqual(covered, 11.0)
        self.assertAlmostEqual(gap, 1.5)


class ScheduleTest(unittest.TestCase):
    TARGETS = ["/t%d" % i for i in range(50)]

    def test_same_seed_same_schedule(self):
        a = benchlib.poisson_schedule(self.TARGETS, 7, 500.0, 2.0)
        b = benchlib.poisson_schedule(self.TARGETS, 7, 500.0, 2.0)
        self.assertEqual(a, b)
        self.assertEqual(benchlib.request_sequence(self.TARGETS, 7, 300),
                         benchlib.request_sequence(self.TARGETS, 7, 300))

    def test_other_seed_other_schedule(self):
        a = benchlib.poisson_schedule(self.TARGETS, 7, 500.0, 2.0)
        b = benchlib.poisson_schedule(self.TARGETS, 8, 500.0, 2.0)
        self.assertNotEqual(a, b)

    def test_poisson_rate_and_order(self):
        sched = benchlib.poisson_schedule(self.TARGETS, 3, 1000.0, 10.0)
        dues = [d for d, _t in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(0.0 < dues[0] and dues[-1] < 10.0)
        self.assertLess(abs(len(sched) - 10000), 400)  # ~4 sigma

    def test_zipf_rank_frequencies(self):
        seq = benchlib.request_sequence(self.TARGETS, 11, 20000)
        order = benchlib.ZipfTargets(self.TARGETS, 11).order
        counts = [seq.count(t) for t in order[:4]]
        # Zipf(1): rank r is drawn in proportion to 1/r.
        for r in (2, 3, 4):
            self.assertAlmostEqual(counts[0] / counts[r - 1], r, delta=0.35 * r)
        self.assertEqual(set(seq) <= set(self.TARGETS), True)


class HostCounterTest(unittest.TestCase):
    def test_steal_share(self):
        before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
        after = [200, 0, 100, 1600, 0, 0, 0, 100, 0, 0]
        self.assertAlmostEqual(benchlib.steal_pct(before, after), 5.0)

    def test_backlog(self):
        self.assertFalse(benchlib.backlog_growing([1, 2, 1, 2, 1, 2]))
        self.assertTrue(benchlib.backlog_growing([1, 1, 10, 20, 40, 80]))


if __name__ == "__main__":
    unittest.main()
