"""Self-checks of the benchmark's own arithmetic.

Run from the root of the checkout:
  python3 -m unittest discover -s tpchbench -p 'test_*.py'
"""

import random
import unittest

import metrics

RANK_PHASES = {
    "phase.local_histogram": 0.01, "phase.global_histogram": 0.02,
    "phase.network_partition": 0.03, "phase.local_partition": 0.04,
    "phase.build_probe": 0.05, "phase.reduce_by_key": 0.06,
    "phase.sort": 0.007, "phase.topk": 0.008, "phase.reduce": 0.009,
    "phase.scan": 0.011, "phase.s3_exchange": 0.012,
}


def query_times(total=0.5, **extra):
    times = dict(RANK_PHASES)
    times["phase.rank_total"] = total
    times["phase.driver_merge"] = 0.1  # driver side: not part of the rank
    times["phase.driver_topk"] = 0.2
    times["net.charged_seconds"] = 0.3  # not a phase
    times.update(extra)
    return times


def sweep(walls, traced=False):
    return {"traced": traced, "wall_s": sum(walls), "cpu_s": 2 * sum(walls),
            "retained_objects": 0, "retained_bytes": 0,
            "queries": [{"query": q, "wall_s": w, "cpu_s": 2 * w,
                         "plan_s": 0.001,
                         "error": "", "times": query_times(w / 2),
                         "counters": {}}
                        for q, w in zip(metrics.QUERIES, walls)]}


class TailTest(unittest.TestCase):
    def test_tail_is_at_least_p50(self):
        rng = random.Random(7)
        for n in range(22, 80):
            for _ in range(20):
                values = [rng.lognormvariate(0, 0.3) for _ in range(n)]
                value, pct, count = metrics.tail(values)
                self.assertGreaterEqual(value, metrics.median(values))
                self.assertEqual(count, n)
                above = sum(v > value for v in values)
                self.assertEqual(above, 10)
                self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_tail_comes_from_the_same_sample(self):
        walls = [1.0 + 0.01 * i for i in range(30)]
        doc = {"meta": {"spawn_s_per_query": 0.0, "peak_rss_mb": 1.0},
               "setups": [{"generate_s": 1, "prepare_s": 1, "warmup_s": 1}],
               "warmup": sweep([0.1] * 8),
               "sweeps": [sweep([w / 8] * 8) for w in walls]}
        _, (wall, notes) = metrics.end_to_end(doc)
        self.assertEqual(notes["sweep_samples"], 30)
        self.assertAlmostEqual(wall["sweep_tail_s"], walls[19])
        self.assertGreaterEqual(wall["sweep_tail_s"], wall["sweep_p50_s"])

    def test_query_geomeans_use_per_query_medians(self):
        sweeps = [sweep([0.1, 0.2, 0.4, 0.8, 0.1, 0.2, 0.4, 0.8]),
                  sweep([0.1, 0.2, 0.4, 0.8, 0.1, 0.2, 0.4, 0.8]),
                  sweep([9.0] * 8)]  # one slow sweep moves no median
        self.assertAlmostEqual(metrics.query_geomean(sweeps, "wall_s"),
                               0.1 * 2 ** 1.5)
        self.assertAlmostEqual(metrics.query_geomean(sweeps, "cpu_s"),
                               0.2 * 2 ** 1.5)

    def test_too_few_sweeps_for_a_tail(self):
        with self.assertRaises(ValueError):
            metrics.tail([1.0] * 10)


class BreakdownTest(unittest.TestCase):
    def test_groups_plus_unattributed_reproduce_rank_total(self):
        times = query_times(0.5)
        parts = metrics.rank_breakdown(times)
        self.assertAlmostEqual(sum(parts.values()), 0.5)
        self.assertAlmostEqual(parts[metrics.UNATTRIBUTED],
                               0.5 - sum(RANK_PHASES.values()))
        self.assertAlmostEqual(parts["suboperators.rank_sort_s"], 0.015)
        self.assertAlmostEqual(parts[metrics.OTHER_GROUP], 0.009)
        self.assertIsNone(metrics.check_breakdown(times))

    def test_worker_total_is_the_lambda_rank_total(self):
        times = query_times(0.0)
        del times["phase.rank_total"]
        times["phase.worker_total"] = 0.4
        parts = metrics.rank_breakdown(times)
        self.assertAlmostEqual(sum(parts.values()), 0.4)

    def test_each_phase_key_has_one_group(self):
        seen = [k for keys in metrics.RANK_PHASE_GROUPS.values() for k in keys]
        self.assertEqual(len(seen), len(set(seen)))
        for key in seen:
            self.assertNotIn(key, metrics.RANK_TOTALS + metrics.DRIVER_PHASES)

    def test_per_sweep_layers_add_up(self):
        s = sweep([0.2] * 8, traced=True)
        row = metrics.per_sweep_layers(s, 0.0)
        ranks = sum(row[g] for g in metrics.RANK_PHASE_GROUPS)
        ranks += row[metrics.OTHER_GROUP] + row[metrics.UNATTRIBUTED]
        self.assertAlmostEqual(ranks, sum(metrics.rank_total(q["times"])
                                          for q in s["queries"]))
        self.assertAlmostEqual(row["tpch.driver_s"], 8 * 0.1)
        self.assertAlmostEqual(row["suboperators.sort_s"], 8 * 0.215)


if __name__ == "__main__":
    unittest.main()
