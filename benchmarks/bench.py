#!/usr/bin/env python3
"""The bloomtree benchmark: a presence and an absence serving workload.

    python3 benchmarks/bench.py                     # every workload, end-to-end metrics
    python3 benchmarks/bench.py --trace 1           # every workload, per-layer metrics
    python3 benchmarks/bench.py --workload serve-members-1e6 --seed 3 --seconds 12 --trace 0

With --workload, the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is 0 only if
every check passed. See benchmarks/README.md for the workloads, the metrics
and what each per-layer metric should move.

Every workload runs the same phases on its own filter, one process, one
client, a closed loop (each query is issued after the previous one has been
verified): set-up, load, serve and CLI. Serving runs until it has taken
--seconds; the others run a fixed number of times, spread over the run.
The library is driven from outside through its public functions and the
``bloomtree`` command; nothing in ``src/`` is instrumented.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import oracle
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bloomtree-bench"

sys.path.insert(0, str(SRC))
try:
    from bloomtree import bloom, cli, codec, merkle, tree
except ImportError as exc:
    sys.exit(f"error: cannot import bloomtree from {SRC}: {exc}")
if Path(tree.__file__).resolve().parent != SRC / "bloomtree":
    sys.exit(f"error: bloomtree was imported from {tree.__file__}, not from {SRC}")

FPR = 0.01
CHUNK_SIZE = 32
ELEMENT_BYTES = 16
LOOP = "closed, 1 client"

QUIET_SHARE = 0.05  # quiet() keeps this share of a run's repetitions, the fastest
BLOCK_QUERIES = 100  # round trips per block: short enough to fall inside a quiet stretch of the host
POOL_QUERIES = 1000  # least round trips pooled from the fastest blocks: ten beyond their p99
MIN_BLOCKS = 40  # least blocks per run (a traced run serves its reference blocks first)
REFERENCE_BLOCKS = 10  # untraced blocks a traced run's overhead is measured against
SIDE_CLI_QUERIES = 30  # side units per run, spread over the serving time: bloomtree prove, then verify
SIDE_CLI_VERIFIES = 50  # more side units: bloomtree verify alone, a tenth of a second each
INSERT_BATCH = 1000  # one bloom.insert span per batch of inserts
INDICES_EVERY = 16  # traced runs replay indices() on every 16th insert batch
CONTROL_QUERIES = 100  # queries of the other kind, checked but not in the latency figures
CANARY_EVERY = 10  # every tenth library proof is also tampered with
CLI_CANARY_EVERY = 4
CLI_MAIN_CALLS = 3
PROBE_REPS = 3

LAYERS = ("bloom", "tree", "merkle", "codec", "cli")
MAYBE_PRESENT = "MaybePresent"
DEFINITELY_ABSENT = "DefinitelyAbsent"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # elements committed
    members: bool  # queries are inserted elements (True) or fresh non-members
    setups: int  # set-ups per run: many where a set-up is cheap, few where it commits 10^6 elements
    loads: int  # decode_filter runs per run: likewise, many where one takes a millisecond
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-members-1e6", 10**6, True, 3, 20,
            "presence proofs on a deep tree that does not fit in cache: prove_multi and verify_multi dominate",
        ),
        Workload(
            "serve-absent-1e4", 10**4, False, 40, 200,
            "absence proofs on a small cached tree: single proofs and indices dominate, presence code barely runs",
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "load_ms": "ms",
    "prove_p50_us": "us",
    "verify_p50_us": "us",
    "queries_per_s": "1/s",
    "proof_bytes_mean": "B",
    "cli_prove_p50_ms": "ms",
    "cli_verify_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed, but not handed to the result line. failed_ratio is always 0 on a
# passing run; the result's "failed" and "attempted" carry it. The others
# spread between runs of the same code by more than 0.25 on a shared host:
# p99s move with other tenants' load, and commit_elems_per_s is n over the
# fastest set-up, which setup_s already gates.
REPORT_ONLY_UNITS = {
    "commit_elems_per_s": "1/s",
    "prove_p99_us": "us",
    "verify_p99_us": "us",
    "failed_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "bloom.insert.us": "us",
    "bloom.indices.us": "us",
    "tree.build.ms": "ms",
    "tree.build.self_ms": "ms",
    "tree.leaf_hash.us": "us",
    "tree.prove.presence.us": "us",
    "tree.prove.presence.self_us": "us",
    "tree.prove.absence.us": "us",
    "tree.prove.absence.self_us": "us",
    "tree.verify.presence.us": "us",
    "tree.verify.presence.self_us": "us",
    "tree.verify.absence.us": "us",
    "tree.verify.absence.self_us": "us",
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
    "codec.decode_filter.self_ms": "ms",
    "codec.encode_proof.us": "us",
    "codec.decode_proof.us": "us",
    "cli.interpreter.ms": "ms",
    "cli.import.ms": "ms",
    "cli.main.prove.ms": "ms",
    "cli.main.verify.ms": "ms",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


class Run:
    """One workload at one seed: its inputs, its checks and its measurements."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.tracer = Tracer(trace)
        self.params = bloom.derive_params(workload.n, FPR, CHUNK_SIZE)
        self.element_rng = random.Random(f"{workload.name}/{seed}/elements")
        self.query_rng = random.Random(f"{workload.name}/{seed}/queries")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        drawn = self.element_rng.randbytes(workload.n * ELEMENT_BYTES)
        self.elements = [drawn[i : i + ELEMENT_BYTES] for i in range(0, len(drawn), ELEMENT_BYTES)]
        del drawn
        # what the inputs add to the peak RSS, which peak_rss_mb leaves out
        self.inputs_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        self.workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.filter_path = self.workdir / "set.blt"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.layer_failed = dict.fromkeys(LAYERS, 0)
        self.errors: list[str] = []
        self._op_failed = False
        self.next_query = 0
        self.cli_count = 0  # CLI prove queries attempted
        self.cli_verify_count = 0  # CLI verify-only queries attempted
        self.setup_ns: list[int] = []
        self.setup_outcomes: list[bytes] = []  # root of each set-up
        self.load_ns: list[int] = []
        self.blocks: list[Block] = []
        self.cli_prove_ms: list[float] = []  # wall time of each bloomtree prove that succeeded
        self.cli_verify_ms: list[float] = []  # wall time of each bloomtree verify
        self.blob = None  # the committed filter file
        self.served = None  # the loaded tree that answers queries
        self.committed = None  # oracle.FilterFile of what is served
        self.root = None  # root as recomputed by the oracle: the verifier's trusted root

    # -- checks ---------------------------------------------------------------

    def begin_op(self) -> None:
        self.attempted += 1
        self._op_failed = False

    def check(self, ok: bool, layer: str, what: str) -> None:
        if ok:
            return
        self.layer_failed[layer] += 1
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        if len(self.errors) < 20:
            self.errors.append(f"{layer}: {what}")

    def check_committed(self, bloom_tree, blob: bytes) -> None:
        """Recompute the committed root from the filter file with the oracle."""
        self.begin_op()
        committed = oracle.parse_filter(blob)
        root = oracle.merkle_root(committed.bits, committed.chunk_size)
        params = (committed.m, committed.k, committed.chunk_size)
        self.check(params == (self.params.m, self.params.k, self.params.chunk_size), "codec", "filter file params")
        self.check(committed.stored_root == root, "codec", "stored root differs from the oracle root")
        self.check(bloom_tree.root == root, "tree", "build root differs from the oracle root")
        self.check(committed.bits == bytes(bloom_tree.filter.bits), "codec", "filter file bits differ from the tree's")
        self.committed, self.root = committed, root

    def expected_verdict(self, element: bytes, member: bool) -> str:
        present = oracle.contains(self.committed, element)
        if member:
            self.check(present, "bloom", "an inserted element has a zero bit in the committed filter")
        return MAYBE_PRESENT if present else DEFINITELY_ABSENT

    # -- inputs ---------------------------------------------------------------

    def _fresh(self) -> bytes:
        return self.element_rng.randbytes(ELEMENT_BYTES)

    def query_element(self, member: bool) -> bytes:
        return self.query_rng.choice(self.elements) if member else self._fresh()

    # -- phases ---------------------------------------------------------------

    def setup_unit(self):
        """The program's work before the first timed operation, once: a commit; returns the tree.

        Allocate the filter, insert every element and build the tree. The
        first set-up comes before everything else; measure() spreads the
        rest over the run.
        """
        start = perf_counter_ns()
        bloom_tree = self.commit(bloom.BloomFilter(self.params))
        self.setup_ns.append(perf_counter_ns() - start)
        self.begin_op()
        self.setup_outcomes.append(bloom_tree.root)
        self.check(self.setup_outcomes[-1] == self.setup_outcomes[0], "tree", "set-up committed another root")
        return bloom_tree

    def insert_all(self, filt, elements) -> None:
        """Insert elements in batches, one span per batch."""
        tracer = self.tracer
        insert = filt.insert

        def insert_batch(batch):
            for element in batch:
                insert(element)

        for number, start in enumerate(range(0, len(elements), INSERT_BATCH)):
            batch = elements[start : start + INSERT_BATCH]
            tracer.call("bloom.insert", insert_batch, batch, count=len(batch))
            if tracer.enabled and number % INDICES_EVERY == 0:
                self.replay_indices(batch, tracer.last)

    def commit(self, filt):
        """Insert every element and build the tree; returns the tree."""
        self.insert_all(filt, self.elements)
        bloom_tree, _ = self.tracer.call("tree.build", tree.build, filt)
        if self.tracer.enabled:
            self.replay_build(filt, bloom_tree, self.tracer.last)
        return bloom_tree

    def load_unit(self):
        """decode_filter of the committed bytes; returns the loaded tree."""
        tracer = self.tracer
        self.begin_op()
        bloom_tree, ns = tracer.call("codec.decode_filter", codec.decode_filter, self.blob)
        if tracer.enabled:
            filt = bloom.BloomFilter(self.params, bytearray(self.committed.bits))
            parent = tracer.last
            rebuilt, _ = tracer.call("tree.build", tree.build, filt, parent=parent)
            self.replay_build(filt, rebuilt, tracer.last)
        self.check(bloom_tree.root == self.root, "codec", "decode_filter root differs from the oracle root")
        self.load_ns.append(ns)
        return bloom_tree

    def serve_block(self) -> None:
        """BLOCK_QUERIES closed-loop round trips of the workload's query kind, kept as one block."""
        member = self.workload.members
        self.blocks.append(Block([self.query(self.query_element(member), member) for _ in range(BLOCK_QUERIES)]))

    def query(self, element: bytes, member: bool):
        """One round trip: prove, encode_proof, decode_proof, verify; checked against the oracle.

        Returns (prove + encode_proof ns, decode_proof + verify ns, proof bytes).
        """
        tracer = self.tracer
        qid = self.next_query
        self.next_query += 1
        self.begin_op()
        expected = self.expected_verdict(element, member)
        span = tracer.open("query", query=qid)
        proof, prove_ns = tracer.call("tree.prove", tree.prove, self.served, element, parent=span, query=qid)
        kind = "presence" if isinstance(proof, tree.PresenceProof) else "absence"
        tracer.rename_last(f"tree.prove.{kind}")
        if tracer.enabled:
            self.replay_prove(element, proof, tracer.last, qid)
        blob, encode_ns = tracer.call("codec.encode_proof", codec.encode_proof, self.params, proof, parent=span, query=qid)
        (echoed, decoded), decode_ns = tracer.call("codec.decode_proof", codec.decode_proof, blob, parent=span, query=qid)
        verdict, verify_ns = tracer.call(
            "tree.verify", tree.verify, self.root, self.params, element, decoded, parent=span, query=qid
        )
        tracer.rename_last(f"tree.verify.{kind}")
        if tracer.enabled:
            self.replay_verify(element, decoded, tracer.last, qid)
        tracer.close(span)
        self.check((kind == "presence") == (expected == MAYBE_PRESENT), "tree", f"prove made a {kind} proof")
        self.check(echoed == self.params and decoded == proof, "codec", "decode_proof(encode_proof(p)) != p")
        self.check(verdict.kind.value == expected, "tree", f"verify said {verdict}, expected {expected}")
        if qid % CANARY_EVERY == 0:
            self.canary(element, blob)
        return prove_ns + encode_ns, decode_ns + verify_ns, len(blob)

    def canary(self, element: bytes, blob: bytes) -> None:
        """A tampered copy of an honest proof must verify as Invalid."""
        self.begin_op()
        how = oracle.TAMPERS[self.query_rng.randrange(len(oracle.TAMPERS))]
        bad = oracle.tamper(blob, CHUNK_SIZE, how, self.query_rng.randrange(1 << 30))
        try:
            _, proof = codec.decode_proof(bad)
        except codec.CodecError:
            return  # rejected at decode: also a rejection
        verdict = tree.verify(self.root, self.params, element, proof)
        self.check(not verdict.is_valid, "tree", f"{how} tamper was accepted as {verdict}")

    def cli_unit(self) -> None:
        """One query through the CLI: bloomtree prove, then bloomtree verify --root, as processes."""
        count = self.cli_count
        self.cli_count += 1
        member = count % 2 == 0  # alternate, so both verdicts go through the CLI
        element = self.query_element(member)
        qid = self.next_query
        self.next_query += 1
        tracer = self.tracer
        expected = self.expected_verdict(element, member)
        given = self.element_args(element)
        proof_path = self.workdir / "query.proof"
        span = tracer.open("query", query=qid)
        self.begin_op()
        args = ["prove", "--filter", str(self.filter_path), *given, "--out", str(proof_path)]
        proc, prove_ns = self.run_cli(args, "cli.prove", span, qid)
        want = "presence\n" if expected == MAYBE_PRESENT else "absence\n"
        self.check(proc.returncode == 0 and proc.stdout == want, "cli", f"prove printed {proc.stdout!r}")
        if proc.returncode != 0:
            tracer.close(span)
            return
        self.cli_prove_ms.append(prove_ns / 1e6)
        blob = proof_path.read_bytes()
        library = codec.encode_proof(self.params, tree.prove(self.served, element))
        self.check(blob == library, "cli", "prove wrote other bytes than the library's proof")
        args = self.cli_verify(expected, given, proof_path, span, qid)
        if count % CLI_CANARY_EVERY == 0:
            self.begin_op()
            how = oracle.TAMPERS[(count // CLI_CANARY_EVERY) % len(oracle.TAMPERS)]
            proof_path.write_bytes(oracle.tamper(blob, CHUNK_SIZE, how, self.query_rng.randrange(1 << 30)))
            proc, _ = self.run_cli(args, "cli.verify.tampered", span, qid)
            accepted = proc.returncode != 1 or not proc.stdout.startswith("Invalid")
            self.check(not accepted, "cli", f"{how} tamper: exit {proc.returncode}, {proc.stdout!r}")
        tracer.close(span)

    def cli_verify_unit(self) -> None:
        """One query through bloomtree verify --root alone, on the proof the library makes for it.

        Those are the bytes bloomtree prove writes, as cli_unit checks. A
        verify process costs about a tenth of a prove on the 10^6 filter, so
        the run can afford many, spread over it, for cli_verify_p50_ms.
        """
        member = self.cli_verify_count % 2 == 0
        self.cli_verify_count += 1
        element = self.query_element(member)
        qid = self.next_query
        self.next_query += 1
        expected = self.expected_verdict(element, member)
        given = self.element_args(element)
        proof_path = self.workdir / "query.proof"
        proof_path.write_bytes(codec.encode_proof(self.params, tree.prove(self.served, element)))
        span = self.tracer.open("query", query=qid)
        self.cli_verify(expected, given, proof_path, span, qid)
        self.tracer.close(span)

    def cli_verify(self, expected, given, proof_path, span, qid) -> list[str]:
        """Run bloomtree verify --root on a proof file and check it; returns its arguments."""
        self.begin_op()
        args = ["verify", "--root", self.root.hex(), *given, "--proof", str(proof_path)]
        proc, verify_ns = self.run_cli(args, "cli.verify", span, qid)
        self.check(proc.returncode == 0 and proc.stdout == expected + "\n", "cli", f"verify printed {proc.stdout!r}")
        self.cli_verify_ms.append(verify_ns / 1e6)
        return args

    def element_args(self, element: bytes) -> list[str]:
        """How the CLI is given an element: as the exact bytes of a file."""
        path = self.workdir / "query.element"
        path.write_bytes(element)
        return ["--element-file", str(path)]

    def run_cli(self, args, name, parent=None, query=None):
        """Run the bloomtree command to completion; returns (process, ns)."""
        return self.tracer.call(
            name,
            lambda: subprocess.run(
                [sys.executable, "-m", "bloomtree", *args],
                env=self.env, cwd=self.workdir, capture_output=True, text=True, timeout=120,
            ),
            parent=parent, query=query,
        )

    # -- traced-run replicas ----------------------------------------------------

    def replay_indices(self, elements, parent, query=None) -> None:
        params = self.params
        indices = bloom.indices
        self.tracer.call(
            "bloom.indices", lambda: [indices(e, params) for e in elements],
            parent=parent, query=query, count=len(elements),
        )

    def replay_build(self, filt, bloom_tree, parent) -> None:
        tracer = self.tracer
        chunks = [filt.chunk(i) for i in range(self.params.chunk_count)]
        leaf_hash = tree.leaf_hash
        leaves, _ = tracer.call(
            "tree.leaf_hash", lambda: [leaf_hash(i, c) for i, c in enumerate(chunks)], parent=parent, count=len(chunks)
        )
        rebuilt, _ = tracer.call("merkle.build_tree", merkle.build_tree, leaves, parent=parent)
        self.check(rebuilt.root == bloom_tree.root, "merkle", "build_tree replica root differs from tree.build")

    def replay_prove(self, element, proof, parent, qid) -> None:
        tracer = self.tracer
        self.replay_indices([element], parent, qid)
        if isinstance(proof, tree.PresenceProof):
            indices = list(proof.chunk_indices)
            path, _ = tracer.call(
                "merkle.prove_multi", merkle.prove_multi, self.served.tree, indices, parent=parent, query=qid
            )
            self.check(tuple(path) == proof.multiproof, "merkle", "prove_multi replica differs from the proof")
            tracer.count("tree.presence.chunks", len(indices))
            tracer.count("merkle.multiproof.digests", len(path))
            tracer.count("merkle.node_hashes.presence", node_hashes(indices, self.params.depth))
        else:
            path, _ = tracer.call(
                "merkle.prove_single", merkle.prove_single, self.served.tree, proof.chunk_index, parent=parent, query=qid
            )
            self.check(tuple(path) == proof.path, "merkle", "prove_single replica differs from the proof")

    def replay_verify(self, element, proof, parent, qid) -> None:
        tracer = self.tracer
        self.replay_indices([element], parent, qid)
        chunk_count = self.params.chunk_count
        leaf_hash = tree.leaf_hash
        if isinstance(proof, tree.PresenceProof):
            pairs = list(zip(proof.chunk_indices, proof.chunks))
            entries, _ = tracer.call(
                "tree.leaf_hash", lambda: [(i, leaf_hash(i, c)) for i, c in pairs],
                parent=parent, query=qid, count=len(pairs),
            )
            ok, _ = tracer.call(
                "merkle.verify_multi", merkle.verify_multi, self.root, entries, chunk_count, list(proof.multiproof),
                parent=parent, query=qid,
            )
        else:
            leaf, _ = tracer.call("tree.leaf_hash", leaf_hash, proof.chunk_index, proof.chunk, parent=parent, query=qid)
            ok, _ = tracer.call(
                "merkle.verify_single", merkle.verify_single, self.root, leaf, proof.chunk_index, chunk_count,
                list(proof.path), parent=parent, query=qid,
            )
        self.check(ok, "merkle", "verify replica rejected an honest proof")

    def cli_layers(self) -> None:
        """Traced runs only: interpreter start, import time, and cli.main called in-process."""
        tracer = self.tracer
        for _ in range(PROBE_REPS):
            for name, code in (("cli.interpreter", "pass"), ("cli.import", "import bloomtree.cli")):
                tracer.call(name, lambda: subprocess.run([sys.executable, "-c", code], env=self.env, check=True))
        proof_path = str(self.workdir / "main.proof")
        for count in range(CLI_MAIN_CALLS):
            member = count % 2 == 0
            element = self.query_element(member)
            expected = self.expected_verdict(element, member)
            given = self.element_args(element)
            for name, argv, output in (
                ("cli.main.prove", ["prove", "--filter", str(self.filter_path), *given, "--out", proof_path],
                 "presence\n" if expected == MAYBE_PRESENT else "absence\n"),
                ("cli.main.verify", ["verify", "--root", self.root.hex(), *given, "--proof", proof_path],
                 expected + "\n"),
            ):
                self.begin_op()
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code, _ = tracer.call(name, cli.main, argv)
                self.check(code == 0 and printed.getvalue() == output, "cli", f"{name} printed {printed.getvalue()!r}")

    # -- the whole run --------------------------------------------------------

    def measure(self, done: int) -> None:
        """Serve blocks until they have taken --seconds, and at least MIN_BLOCKS of them.

        done is the number of blocks served before (a traced run's untraced
        reference blocks, which it serves on top of the minimum). The run's progress is the
        lesser of serving time / --seconds and blocks / their minimum; a side
        unit owed c times runs its i-th time once progress reaches i / c. So
        side samples and the remaining set-ups are spread over the run,
        between blocks, instead of being taken in one burst that a single
        episode of outside load could cover. Side units due together run one
        of each kind in turn.
        """
        owed = {
            self.cli_unit: SIDE_CLI_QUERIES,
            self.cli_verify_unit: SIDE_CLI_VERIFIES,
            self.load_unit: self.workload.loads - 1,
            self.setup_unit: self.workload.setups - 1,
        }
        ran = dict.fromkeys(owed, 0)
        minimum = MIN_BLOCKS + done
        serving_s = 0.0
        while True:
            progress = min(serving_s / self.seconds, done / minimum)
            due = [unit for unit, count in owed.items() if ran[unit] < count and ran[unit] <= progress * count]
            for unit in due:
                unit()
                ran[unit] += 1
            if due:
                continue
            if progress >= 1:
                return
            start = perf_counter()
            self.serve_block()
            serving_s += perf_counter() - start
            done += 1

    def execute(self):
        """Run every phase; returns (metrics of this run's mode, notes for the report)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _execute(self):
        w = self.workload
        tracer = self.tracer
        traced = tracer.enabled
        bloom_tree = self.setup_unit()
        blob, _ = tracer.call("codec.encode_filter", codec.encode_filter, bloom_tree)
        self.check_committed(bloom_tree, blob)
        self.filter_path.write_bytes(blob)
        self.blob = blob
        bloom_tree = None  # queries are served from a loaded copy, as a holder would
        self.served = self.load_unit()
        done = 0
        if traced:  # a traced run's first blocks are its untraced reference
            tracer.enabled = False
            for done in range(1, REFERENCE_BLOCKS + 1):
                self.serve_block()
            tracer.enabled = True
        self.measure(done)
        for _ in range(CONTROL_QUERIES):
            self.query(self.query_element(not w.members), not w.members)

        if traced:
            self.cli_layers()
            costs = [block.round_trip_ns for block in self.blocks]
            reference = statistics.fmean(costs[:REFERENCE_BLOCKS])
            return self.per_layer(100 * (statistics.fmean(costs[REFERENCE_BLOCKS:]) / reference - 1))

        blocks = self.blocks
        prove, verify = pool(blocks)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self.inputs_rss_kb
        metrics = {
            "setup_s": statistics.median(self.setup_ns) / 1e9,
            # whole set-ups, each a commit: a slow stretch inside one stays in
            "commit_elems_per_s": w.n * 1e9 / quiet(self.setup_ns),
            "load_ms": quiet(self.load_ns) / 1e6,
            "prove_p50_us": statistics.median(prove) / 1e3,
            "prove_p99_us": p99(prove) / 1e3,
            "verify_p50_us": statistics.median(verify) / 1e3,
            "verify_p99_us": p99(verify) / 1e3,
            "queries_per_s": 1e9 * len(prove) / (sum(prove) + sum(verify)),
            "proof_bytes_mean": sum(b.proof_bytes for b in blocks) / (len(blocks) * BLOCK_QUERIES),
            "cli_prove_p50_ms": quiet(self.cli_prove_ms),
            "cli_verify_p50_ms": quiet(self.cli_verify_ms),
            "peak_rss_mb": peak_kb / 1024,
            "failed_ratio": self.failed / self.attempted,
        }
        notes = {
            "set-ups": len(self.setup_ns),
            "loads": len(self.load_ns),
            "blocks of round trips": len(blocks),
            "cli proves": f"{len(self.cli_prove_ms)} of {self.cli_count}",
            "cli verifies": len(self.cli_verify_ms),
        }
        return metrics, notes

    def per_layer(self, overhead):
        t = self.tracer
        us = t.per_unit_us
        metrics = {
            "bloom.insert.us": us("bloom.insert"),
            "bloom.indices.us": us("bloom.indices"),
            "tree.build.ms": us("tree.build") / 1e3,
            "tree.build.self_ms": t.self_us("tree.build") / 1e3,
            "tree.leaf_hash.us": us("tree.leaf_hash"),
        }
        for op in ("prove", "verify"):
            for kind in ("presence", "absence"):
                metrics[f"tree.{op}.{kind}.us"] = us(f"tree.{op}.{kind}")
                metrics[f"tree.{op}.{kind}.self_us"] = t.self_us(f"tree.{op}.{kind}")
        metrics["tree.presence.chunks"] = t.counter_mean("tree.presence.chunks")
        metrics["merkle.build_tree.ms"] = us("merkle.build_tree") / 1e3
        for name in ("prove_multi", "verify_multi", "prove_single", "verify_single"):
            metrics[f"merkle.{name}.us"] = us(f"merkle.{name}")
        for name in ("merkle.multiproof.digests", "merkle.node_hashes.presence"):
            metrics[name] = t.counter_mean(name)
        metrics["codec.encode_filter.ms"] = us("codec.encode_filter") / 1e3
        metrics["codec.decode_filter.ms"] = us("codec.decode_filter") / 1e3
        metrics["codec.decode_filter.self_ms"] = t.self_us("codec.decode_filter") / 1e3
        metrics["codec.encode_proof.us"] = us("codec.encode_proof")
        metrics["codec.decode_proof.us"] = us("codec.decode_proof")
        metrics["cli.interpreter.ms"] = us("cli.interpreter") / 1e3
        metrics["cli.import.ms"] = (us("cli.import") - us("cli.interpreter")) / 1e3
        metrics["cli.main.prove.ms"] = us("cli.main.prove") / 1e3
        metrics["cli.main.verify.ms"] = us("cli.main.verify") / 1e3
        for layer, count in self.layer_failed.items():
            metrics[f"{layer}.failed"] = count
        metrics["trace.overhead_pct"] = overhead
        return metrics, {"spans": len(t.spans)}


def quiet(values) -> float:
    """Median of the fastest QUIET_SHARE (at least one) of a run's repetitions of one measurement.

    Load from outside the benchmark only ever slows an operation down, and
    comes in episodes of a millisecond to minutes; this statistic ignores any
    episode that leaves at least QUIET_SHARE of the repetitions alone. NaN
    when there are none, which happens only on a run that has failed a check.
    """
    ranked = sorted(values)
    return statistics.median(ranked[: max(1, int(len(ranked) * QUIET_SHARE))]) if ranked else math.nan


class Block:
    """Consecutive round trips: the prove and verify time (ns) and the proof size of each."""

    def __init__(self, samples):
        # arrays, not lists of ints: a run keeps thousands of blocks, and their
        # memory would otherwise show in peak_rss_mb in proportion to the speed
        self.prove = array("q", [p for p, _, _ in samples])
        self.verify = array("q", [v for _, v, _ in samples])
        self.round_trip_ns = statistics.fmean(self.prove) + statistics.fmean(self.verify)
        self.proof_bytes = sum(size for _, _, size in samples)


def pool(blocks):
    """Prove and verify times of the fastest blocks by mean round trip: quiet() for queries.

    The fastest QUIET_SHARE of the blocks, or more until POOL_QUERIES round
    trips are pooled. Every query of a pooled block counts, slow ones too, so
    a program change that slows some queries shows in every block it touches.
    """
    ranked = sorted(blocks, key=lambda block: block.round_trip_ns)
    count = max(int(len(ranked) * QUIET_SHARE), -(-POOL_QUERIES // BLOCK_QUERIES))
    fastest = ranked[:count]
    return [ns for block in fastest for ns in block.prove], [ns for block in fastest for ns in block.verify]


def p99(values):
    """99th percentile; of the 1000 round trips pooled from a run's fastest blocks, ten lie beyond it."""
    return statistics.quantiles(values, n=100)[98]


def node_hashes(chunk_indices, depth: int) -> int:
    """Distinct ancestors a presence verify hashes: one node_hash per parent per level."""
    total = 0
    positions = set(chunk_indices)
    for _ in range(depth):
        positions = {position >> 1 for position in positions}
        total += len(positions)
    return total


def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # not a git checkout, or no git
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "loop": LOOP,
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    metrics, notes = run.execute()
    units = PER_LAYER_UNITS if args.trace else {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    print(f"{workload.name}: {workload.why}")
    print("env " + json.dumps(environment(args)))
    for name, unit in units.items():
        print(f"  {name:32} {metrics[name]:>16.4f} {unit}")
    print("  " + ", ".join(f"{key}: {value}" for key, value in notes.items()))
    if args.trace:
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
        run.tracer.write(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        print("  self time = span duration minus its replica children (see benchmarks/tracing.py)")
        print("  trace.overhead_pct = traced blocks against the untraced reference blocks, replicas excluded")
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": None if math.isnan(metrics[name]) else metrics[name], "unit": unit}
            for name, unit in units.items()
            if name not in REPORT_ONLY_UNITS
        },
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, one process each and one at a time; then a summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            results[name] = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exit {proc.returncode} without a result line", file=sys.stderr)
            status = status or 1
    print()
    print(f"{'metric':34}" + "".join(f"{name:>20}" for name in results))
    for metric, unit in (PER_LAYER_UNITS if args.trace else END_TO_END_UNITS).items():
        values = (result["metrics"][metric]["value"] for result in results.values())
        row = "".join(f"{math.nan if value is None else value:>20.4f}" for value in values)
        print(f"{f'{metric} ({unit})':34}{row}")
    counts = (f"{result['failed']} / {result['attempted']}" for result in results.values())
    print(f"{'failed / attempted':34}" + "".join(f"{count:>20}" for count in counts))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=12.0, help="serving time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
