"""Tests of the benchmark itself, on tiny filters.

    python3 -m pytest benchmarks/test_bench.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from bloomtree import tree  # noqa: E402

TINY = 2000
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

END_TO_END = {
    "setup_s": "s",
    "commit_elems_per_s": "1/s",
    "load_ms": "ms",
    "prove_p50_us": "us",
    "prove_p99_us": "us",
    "verify_p50_us": "us",
    "verify_p99_us": "us",
    "queries_per_s": "1/s",
    "proof_bytes_mean": "B",
    "cli_prove_p50_ms": "ms",
    "cli_verify_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}

PER_LAYER = {
    "bloom.insert.us": "us",
    "bloom.indices.us": "us",
    "tree.build.ms": "ms",
    "tree.leaf_hash.us": "us",
    "tree.prove.presence.us": "us",
    "tree.verify.presence.us": "us",
    "tree.prove.absence.us": "us",
    "tree.verify.absence.us": "us",
    "tree.presence.chunks": "count",
    "merkle.build_tree.ms": "ms",
    "merkle.prove_multi.us": "us",
    "merkle.verify_multi.us": "us",
    "merkle.prove_single.us": "us",
    "merkle.verify_single.us": "us",
    "merkle.multiproof.digests": "count",
    "merkle.node_hashes.presence": "count",
    "codec.encode_filter.ms": "ms",
    "codec.decode_filter.ms": "ms",
    "codec.encode_proof.us": "us",
    "codec.decode_proof.us": "us",
    "cli.interpreter.ms": "ms",
    "cli.import.ms": "ms",
    "cli.main.prove.ms": "ms",
    "cli.main.verify.ms": "ms",
    "bloom.failed": "count",
    "tree.failed": "count",
    "merkle.failed": "count",
    "codec.failed": "count",
    "cli.failed": "count",
    "trace.overhead_pct": "%",
}


def tiny_argv(name: str, trace: int) -> list[str]:
    return ["--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]


def run_tiny(name: str, trace: int):
    """Run one workload on a TINY-element filter in this process; returns (exit code, stdout lines, result)."""
    tiny = {name: dataclasses.replace(bench.WORKLOADS[name], n=TINY)}
    printed = io.StringIO()
    with mock.patch.dict(bench.WORKLOADS, tiny), contextlib.redirect_stdout(printed):
        code = bench.main(tiny_argv(name, trace))
    lines = printed.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def run_tiny_process(name: str, trace: int):
    """run_tiny in a fresh interpreter, whose peak RSS no earlier run has raised."""
    code = (
        "import dataclasses, sys; import bench; "
        f"bench.WORKLOADS[{name!r}] = dataclasses.replace(bench.WORKLOADS[{name!r}], n={TINY}); "
        f"sys.exit(bench.main({tiny_argv(name, trace)!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(bench.__file__).parent, capture_output=True, text=True, timeout=180
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def assert_printed(self, lines, expected):
        table = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3:
                table[parts[0]] = parts[2]
        for name, unit in expected.items():
            self.assertEqual(table.get(name), unit, f"{name} not printed with unit {unit}")

    def test_end_to_end_metrics_printed(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                code, lines, result = run_tiny_process(name, trace=0)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["end_to_end"]})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assert_printed(lines, END_TO_END)
                for metric, unit in END_TO_END.items():
                    if metric not in bench.REPORT_ONLY_UNITS:  # printed, never in the result line
                        self.assertEqual(result["metrics"][metric]["unit"], unit)
                        self.assertGreater(result["metrics"][metric]["value"], 0)

    def test_per_layer_metrics_printed_when_traced(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                code, lines, result = run_tiny_process(name, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assert_printed(lines, PER_LAYER)
                for metric, unit in PER_LAYER.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    if unit in ("us", "ms"):
                        self.assertGreater(result["metrics"][metric]["value"], 0, metric)


class NegativeTest(unittest.TestCase):
    def test_always_maybe_present_verifier_is_caught(self):
        def stub(root, params, element, proof):
            return tree.Verdict.maybe_present()

        for name in ("serve-members-1e6", "serve-absent-1e4"):
            with self.subTest(workload=name), mock.patch.object(tree, "verify", stub):
                code, _, result = run_tiny(name, trace=0)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_failing_cli_prove_ends_the_run(self):
        run_cli = bench.Run.run_cli

        def prove_without_filter(run, args, name, *rest):
            if args[0] == "prove":  # ["prove", "--filter", path, ...]: point it at a missing file
                args = [*args[:2], str(run.workdir / "missing.blt"), *args[3:]]
            return run_cli(run, args, name, *rest)

        for name in bench.WORKLOADS:
            with self.subTest(workload=name), mock.patch.object(bench.Run, "run_cli", prove_without_filter):
                code, _, result = run_tiny(name, trace=0)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIsNone(result["metrics"]["cli_prove_p50_ms"]["value"])

    def test_exits_nonzero_without_the_library(self):
        bench.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.WORK) as empty:
            shutil.copytree(Path(bench.__file__).parent, Path(empty) / "benchmarks")
            proc = subprocess.run(
                [sys.executable, "benchmarks/bench.py", "--workload", "serve-absent-1e4", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
