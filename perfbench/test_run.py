"""Tests of the benchmark's runner (run.py) and comparison (compare.py).

    python3 -m unittest discover -s perfbench

The Rust harness has its own tests (cargo test --manifest-path
perfbench/Cargo.toml): they check that every declared per-layer metric is
emitted for every workload, that a seed repeats its digest and another
seed changes the inputs, and that the harness digests equal run_sim's.
"""

import argparse
import io
import json
import os
import unittest

import compare
import run

HOST = {"cpu": "test cpu", "nproc": 2, "rustc": "rustc 1.0"}
FINGERPRINT = {"host": HOST, "revision": {"git": "none", "source": "0"}}


def record(workload, traced=False, digest="d1", cycles=100, **extra):
    """A well-formed instance record, as the Rust harness prints it."""
    _, layer = run.load_spec()
    rec = {
        "workload": workload, "seed": 5, "traced": traced,
        "jobs_attempted": 4, "jobs_failed": 0, "failures": [],
        "digest": digest, "cycles": cycles, "committed": 50,
        "setup_s": 0.01, "wall_s": 2.0, "sim_mips": 2.0, "job_s": [1.9],
        "peak_rss_mb": 30.0, "counts": {"cycles": float(cycles)},
        "layers": {m["name"]: 1.0 for m in layer if m["name"] != "obs.trace_overhead_pct"},
        "layer_self_s": {"sim": 1.0} if traced else {},
    }
    if workload == "campaign-mix":
        rec.update(second_digest=digest, replay_s=0.001)
    rec.update(extra)
    return rec


def args(workload, trace=0, seed=5):
    return argparse.Namespace(workload=workload, seed=seed, trace=trace, out=None)


def instances(*records):
    return [run.Instance(i, r["traced"], r) for i, r in enumerate(records)]


def report(a, insts, golden=None):
    out = io.StringIO()
    res = run.report(a, insts, golden or {}, FINGERPRINT, out=out)
    return res, out.getvalue()


class SpecTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(m["unit"], run.UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertIsInstance(spec["run_seconds"], int)

    def test_malformed_metric_names_are_refused(self):
        bad = os.path.join(os.path.dirname(__file__), "target", "spec-test")
        os.makedirs(bad, exist_ok=True)
        with open(os.path.join(bad, "BENCHMARK.json"), "w", encoding="utf-8") as f:
            json.dump({"end_to_end": [{"name": "a b", "unit": "s"}], "per_layer": []}, f)
        with self.assertRaises(run.BenchError):
            run.load_spec(bad)


class ReportTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit_for_every_workload(self):
        end, layer = run.load_spec()
        for workload in run.WORKLOADS:
            for trace, metrics in ((0, end), (1, layer)):
                recs = [record(workload), record(workload, traced=bool(trace)),
                        record(workload)]
                res, text = report(args(workload, trace), instances(*recs))
                self.assertEqual(list(res["metrics"]), [m["name"] for m in metrics])
                for m in metrics:
                    self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertRegex(text, rf"metric {m['name']} = \S+ {m['unit']}\n")
                self.assertEqual(json.loads(text.splitlines()[-1]), res)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)

    def test_corrupted_digest_counts_as_failed_jobs(self):
        recs = [record("solo-xapian"), record("solo-xapian"), record("solo-xapian", digest="bad")]
        res, text = report(args("solo-xapian"), instances(*recs))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 4)
        self.assertEqual(res["attempted"], 12)
        self.assertIn("digest bad differs", text)

    def test_golden_digest_is_the_reference_at_the_default_seed(self):
        recs = [record("solo-xapian") for _ in range(3)]
        res, text = report(args("solo-xapian", seed=run.GOLDEN_SEED), instances(*recs),
                           golden={"solo-xapian": "other"})
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("golden: MISMATCH", text)
        res, text = report(args("solo-xapian", seed=run.GOLDEN_SEED), instances(*recs),
                           golden={"solo-xapian": "d1"})
        self.assertTrue(res["correct"])
        self.assertIn("golden: match", text)

    def test_replay_digest_must_match(self):
        recs = [record("campaign-mix"), record("campaign-mix", second_digest="torn"),
                record("campaign-mix")]
        res, _ = report(args("campaign-mix"), instances(*recs))
        self.assertEqual(res["failed"], 4)

    def test_traced_path_must_simulate_what_the_untraced_run_did(self):
        recs = [record("solo-verilator"), record("solo-verilator", traced=True, cycles=101),
                record("solo-verilator"), record("solo-verilator", traced=True)]
        res, text = report(args("solo-verilator", trace=1), instances(*recs))
        self.assertEqual(res["failed"], 4)
        self.assertIn("traced path simulated 101 cycles", text)

    def test_no_record_at_all_is_an_error(self):
        crashed = [run.Instance(i, False, None, "exited 101") for i in range(3)]
        with self.assertRaises(run.BenchError):
            report(args("solo-xapian"), crashed)

    def test_job_failures_and_crashes_count(self):
        recs = instances(record("solo-xapian"), record("solo-xapian"), record("solo-xapian"),
                         record("solo-xapian", jobs_failed=1, failures=["aborted"]))
        recs.append(run.Instance(4, False, None, "instance 4 exited 101"))
        res, _ = report(args("solo-xapian"), recs)
        self.assertEqual((res["attempted"], res["failed"]), (17, 2))

    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(run.tail(list(range(20))), (50, 9))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (50, 2.0))


class CompareTest(unittest.TestCase):
    def result(self, host, sim_mips):
        metrics = {"sim_mips": {"value": sim_mips, "unit": "MIPS"}}
        return {"workload": "solo-xapian", "trace": 0, "host": host,
                "revision": {"git": "none", "source": "0"}, "result": {"metrics": metrics}}

    def test_different_hosts_are_never_compared(self):
        other = dict(HOST, nproc=64)
        out = io.StringIO()
        self.assertEqual(compare.compare(self.result(HOST, 2.0), self.result(other, 2.0), out), 3)
        self.assertIn("not comparable", out.getvalue())

    def test_a_drop_beyond_the_bound_is_flagged(self):
        out = io.StringIO()
        self.assertEqual(compare.compare(self.result(HOST, 2.0), self.result(HOST, 1.9), out), 0)
        self.assertEqual(compare.compare(self.result(HOST, 2.0), self.result(HOST, 1.0), out), 1)
        self.assertIn("REGRESSED", out.getvalue())


if __name__ == "__main__":
    unittest.main()
