"""Unit tests for bench_compare.py (pytest- and unittest-compatible).

Run with `python3 -m pytest .github/scripts/test_bench_compare.py -q`
or, where pytest is not installed,
`python3 -m unittest discover -s .github/scripts -p 'test_*.py'`.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402


def report(cells):
    """A minimal report: cells = [(sim, dim, rho, engine, eps)]."""
    return {
        "results": [
            {"sim": s, "dim": d, "rho": r, "engine": e, "events_per_sec": eps}
            for (s, d, r, e, eps) in cells
        ]
    }


BASELINE = report([
    ("hypercube", 10, 0.5, "seed", 100.0),
    ("torus", 8, 0.5, "seed", 100.0),
    ("hypercube", 10, 0.5, "event", 200.0),
    ("torus", 8, 0.5, "event", 300.0),
])


def fresh(scale_seed, scale_shipped, drop=()):
    cells = []
    for c in BASELINE["results"]:
        key = (c["sim"], c["dim"], c["rho"], c["engine"])
        if key in drop:
            continue
        scale = scale_seed if c["engine"] == "seed" else scale_shipped
        cells.append((*key, c["events_per_sec"] * scale))
    return report(cells)


class MachineFactor(unittest.TestCase):
    def test_median_of_seed_cells(self):
        base = bench_compare.cells_by_key(BASELINE)
        new = bench_compare.cells_by_key(fresh(0.5, 1.0))
        self.assertAlmostEqual(bench_compare.machine_factor(base, new), 0.5)

    def test_no_seed_overlap_is_unusable(self):
        base = bench_compare.cells_by_key(BASELINE)
        rows, regressions, _, machine = bench_compare.compare(
            BASELINE, report([("ring", 4, 0.5, "event", 1.0)]), 0.25)
        self.assertIsNone(machine)
        self.assertEqual(rows, [])
        self.assertTrue(regressions)
        self.assertIn("seed", regressions[0])
        del base


class Gate(unittest.TestCase):
    def test_machine_slowdown_alone_passes(self):
        # Everything (seed and shipped) at half speed: a slow runner,
        # not a code regression.
        rows, regressions, warnings, machine = bench_compare.compare(
            BASELINE, fresh(0.5, 0.5), 0.25)
        self.assertAlmostEqual(machine, 0.5)
        self.assertEqual(regressions, [])
        # Raw ratios look bad (0.5) but every cell normalises clean.
        self.assertEqual({m for (_, _, _, m) in rows}, {"warn(raw)"})
        self.assertTrue(all("slow machine" in w for w in warnings))

    def test_real_regression_fails(self):
        # Seed cells steady, shipped cells down 40%: a code regression.
        rows, regressions, _, _ = bench_compare.compare(
            BASELINE, fresh(1.0, 0.6), 0.25)
        markers = {key: m for (key, _, _, m) in rows}
        self.assertEqual(
            markers[("hypercube", 10, 0.5, "event")], "REGRESSION")
        self.assertEqual(len(regressions), 2)

    def test_threshold_is_respected(self):
        # A 10% normalised drop passes at 25% but fails at 5%.
        _, loose, _, _ = bench_compare.compare(BASELINE, fresh(1.0, 0.9), 0.25)
        _, tight, _, _ = bench_compare.compare(BASELINE, fresh(1.0, 0.9), 0.05)
        self.assertEqual(loose, [])
        self.assertEqual(len(tight), 2)

    def test_missing_fresh_cell_hard_fails(self):
        gone = ("torus", 8, 0.5, "event")
        rows, regressions, _, _ = bench_compare.compare(
            BASELINE, fresh(1.0, 1.0, drop={gone}), 0.25)
        markers = {key: m for (key, _, _, m) in rows}
        self.assertEqual(markers[gone], "MISSING")
        self.assertEqual(len(regressions), 1)
        self.assertIn("missing from fresh report", regressions[0])

    def test_extra_fresh_cell_only_warns(self):
        extra = fresh(1.0, 1.0)
        extra["results"].append(
            {"sim": "ring", "dim": 6, "rho": 0.5, "engine": "event",
             "events_per_sec": 50.0})
        _, regressions, warnings, _ = bench_compare.compare(
            BASELINE, extra, 0.25)
        self.assertEqual(regressions, [])
        self.assertTrue(any("checked-in report" in w for w in warnings))


class Output(unittest.TestCase):
    def test_markdown_table_lists_every_row(self):
        rows, _, _, machine = bench_compare.compare(
            BASELINE, fresh(1.0, 1.0), 0.05)
        md = bench_compare.render_markdown(rows, 0.05, machine)
        self.assertIn("| sim | dim | rho | engine | raw |", md)
        self.assertEqual(md.count("| hypercube |"), 1)
        self.assertIn("threshold 5%", md)

    def test_step_summary_written_when_env_set(self):
        with tempfile.TemporaryDirectory() as d:
            summary = os.path.join(d, "summary.md")
            base_p = os.path.join(d, "base.json")
            fresh_p = os.path.join(d, "fresh.json")
            with open(base_p, "w") as f:
                json.dump(BASELINE, f)
            with open(fresh_p, "w") as f:
                json.dump(fresh(1.0, 1.0), f)
            old = os.environ.get("GITHUB_STEP_SUMMARY")
            os.environ["GITHUB_STEP_SUMMARY"] = summary
            try:
                code = bench_compare.main(
                    ["--threshold", "0.05", base_p, fresh_p])
            finally:
                if old is None:
                    del os.environ["GITHUB_STEP_SUMMARY"]
                else:
                    os.environ["GITHUB_STEP_SUMMARY"] = old
            self.assertEqual(code, 0)
            with open(summary) as f:
                self.assertIn("Bench throughput gate", f.read())

    def test_main_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            base_p = os.path.join(d, "base.json")
            ok_p = os.path.join(d, "ok.json")
            bad_p = os.path.join(d, "bad.json")
            with open(base_p, "w") as f:
                json.dump(BASELINE, f)
            with open(ok_p, "w") as f:
                json.dump(fresh(1.0, 1.0), f)
            with open(bad_p, "w") as f:
                json.dump(fresh(1.0, 0.5), f)
            self.assertEqual(bench_compare.main([base_p, ok_p]), 0)
            self.assertEqual(bench_compare.main([bad_p]), 1)  # bad usage
            self.assertEqual(bench_compare.main([base_p, bad_p]), 1)


if __name__ == "__main__":
    unittest.main()
