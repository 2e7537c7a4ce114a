"""Release acceptance suite.

One test per criterion, each printing a [PASS]/[FAIL] line (run with -s to
see them as they happen). Tolerances and budgets are pinned here; nothing is
left to later calibration.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import spec
from bloomtree import codec
from bloomtree.bloom import BloomFilter, BloomParams, derive_params, fpr
from bloomtree.experiment import ExperimentConfig, run_grid, rows_to_csv
from bloomtree.merkle import build_tree, prove_multi, verify_multi
from bloomtree.tree import (
    AbsenceProof,
    PresenceProof,
    VerdictKind,
    build,
    locate,
    prove,
    verify,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {label}")
        raise
    print(f"\n[PASS] criterion {number}: {label}")


@pytest.fixture(scope="module")
def default_grid():
    started = time.monotonic()
    rows = run_grid(ExperimentConfig())
    return rows, time.monotonic() - started


def test_criterion_1_false_positive_rate():
    with criterion(1, "analytic rate matches a high-precision oracle; empirical rate tracks it"):
        started = time.monotonic()

        exact = float((1 - Fraction(9, 10) ** 10) ** 2)
        assert abs(fpr(10, 2, 5) - exact) < 1e-12

        n, probes = 1000, 100_000
        for p in (0.1, 0.01):
            params = derive_params(n, p, 32)
            rng = random.Random(f"acceptance-fpr-{p}")
            inserted = set()
            while len(inserted) < n:
                inserted.add(rng.randbytes(16))
            filt = BloomFilter(params)
            for element in inserted:
                filt.insert(element)
            hits = sum(spec.contains(filt.bits, params.m, params.k, rng.randbytes(17)) for _ in range(probes))
            measured = hits / probes
            predicted = fpr(params.m, params.k, n)
            assert abs(measured - predicted) <= 0.5 * predicted, (p, measured, predicted)

        assert time.monotonic() - started < 10.0


def test_criterion_2_multiproof_compression():
    with criterion(2, "three leaves of eight need 4 multiproof hashes vs 9 for single proofs"):
        rng = random.Random("acceptance-compression")
        tree = build_tree([rng.randbytes(32) for _ in range(8)])
        assert len(prove_multi(tree, [0, 3, 6])) == 4
        assert sum(len(prove_multi(tree, [i])) for i in (0, 3, 6)) == 9


def test_criterion_3_multiproof_oracle_equivalence():
    with criterion(3, "every subset of 2/4/8/16 leaves round-trips; every digest mutation fails"):
        started = time.monotonic()
        rng = random.Random("acceptance-subsets")
        for count in (2, 4, 8, 16):
            leaves = [rng.randbytes(32) for _ in range(count)]
            tree = build_tree(leaves)
            for size in range(1, count + 1):
                for subset in itertools.combinations(range(count), size):
                    proof = prove_multi(tree, list(subset))
                    entries = [(i, leaves[i]) for i in subset]
                    assert verify_multi(tree.root, entries, count, proof)
                    for position in range(len(proof)):
                        mutated = list(proof)
                        corrupted = bytearray(mutated[position])
                        corrupted[position % 32] ^= 0x01
                        mutated[position] = bytes(corrupted)
                        assert not verify_multi(tree.root, entries, count, mutated)
        assert time.monotonic() - started < 60.0


def test_criterion_4_absence_size_law(default_grid):
    with criterion(4, "absence proofs carry exactly log2(chunk_count) digests in every grid cell"):
        rows, _ = default_grid
        assert len(rows) == 36
        for row in rows:
            chunk_count = row.m_bits // (row.chunk_size * 8)
            depth = chunk_count.bit_length() - 1
            digest_bytes = row.absence_proof_bytes - 22 - 8 - row.chunk_size - 2
            assert digest_bytes == 32 * depth, row


def test_criterion_5_chunk_location_worked_example():
    with criterion(5, "bit indices 800/1602/3650 land in chunks 3/6/14 at locals 32/66/66"):
        params = BloomParams(m=131072, k=3, chunk_size=32)
        assert locate(800, params) == (3, 32)
        assert locate(1602, params) == (6, 66)
        assert locate(3650, params) == (14, 66)


def test_criterion_6_verdict_soundness_and_tampering():
    with criterion(6, "10k honest verdicts sound, zero invalid; 1000+ tamper trials all rejected"):
        started = time.monotonic()
        params = derive_params(5000, 0.01, 32)
        rng = random.Random("acceptance-verdicts")
        pool = set()
        while len(pool) < 10_000:
            pool.add(rng.randbytes(16))
        pool = sorted(pool)
        inserted, fresh = pool[:5000], pool[5000:]
        inserted_set = set(inserted)
        filt = BloomFilter(params)
        for element in inserted:
            filt.insert(element)
        bloom_tree = build(filt)
        root = bloom_tree.root

        presence_samples = []
        absence_samples = []
        for element in pool:
            proof = prove(bloom_tree, element)
            verdict = verify(root, params, element, proof)
            assert verdict.kind is not VerdictKind.INVALID, verdict
            if element in inserted_set:
                assert verdict.kind is VerdictKind.MAYBE_PRESENT
            if verdict.kind is VerdictKind.DEFINITELY_ABSENT:
                assert element not in inserted_set
                assert not spec.contains(filt.bits, params.m, params.k, element)
                if len(absence_samples) < 200:
                    absence_samples.append((element, proof))
            elif len(presence_samples) < 200:
                presence_samples.append((element, proof))

        trials = 0
        accepted = 0
        for element, proof in presence_samples:
            for tampered in _tampered_presence_variants(proof, params, rng):
                trials += 1
                if verify(root, params, element, tampered).kind is not VerdictKind.INVALID:
                    accepted += 1
        for element, proof in absence_samples:
            for tampered in _tampered_absence_variants(proof, params, rng):
                trials += 1
                if verify(root, params, element, tampered).kind is not VerdictKind.INVALID:
                    accepted += 1
        assert trials >= 1000, trials
        assert accepted == 0, f"{accepted} forgeries accepted in {trials} trials"
        assert time.monotonic() - started < 60.0


def _tampered_presence_variants(proof: PresenceProof, params, rng):
    # one bit flipped in a chunk
    position = rng.randrange(len(proof.chunks))
    chunk = bytearray(proof.chunks[position])
    chunk[rng.randrange(len(chunk))] ^= 1 << rng.randrange(8)
    chunks = list(proof.chunks)
    chunks[position] = bytes(chunk)
    yield PresenceProof(proof.chunk_indices, tuple(chunks), proof.multiproof)
    # one bit flipped in a multiproof digest
    if proof.multiproof:
        position = rng.randrange(len(proof.multiproof))
        digest = bytearray(proof.multiproof[position])
        digest[rng.randrange(32)] ^= 1 << rng.randrange(8)
        hashes = list(proof.multiproof)
        hashes[position] = bytes(digest)
        yield PresenceProof(proof.chunk_indices, proof.chunks, tuple(hashes))
    # one chunk index redirected
    position = rng.randrange(len(proof.chunk_indices))
    shifted = list(proof.chunk_indices)
    shifted[position] = (shifted[position] + 1 + rng.randrange(params.chunk_count - 1)) % params.chunk_count
    yield PresenceProof(tuple(shifted), proof.chunks, proof.multiproof)


def _tampered_absence_variants(proof: AbsenceProof, params, rng):
    # one bit flipped in the chunk
    chunk = bytearray(proof.chunk)
    chunk[rng.randrange(len(chunk))] ^= 1 << rng.randrange(8)
    yield AbsenceProof(proof.chunk_index, bytes(chunk), proof.path)
    # one bit flipped in a path digest
    position = rng.randrange(len(proof.path))
    digest = bytearray(proof.path[position])
    digest[rng.randrange(32)] ^= 1 << rng.randrange(8)
    path = list(proof.path)
    path[position] = bytes(digest)
    yield AbsenceProof(proof.chunk_index, proof.chunk, tuple(path))
    # chunk relabeled to a different index
    other = (proof.chunk_index + 1 + rng.randrange(params.chunk_count - 1)) % params.chunk_count
    yield AbsenceProof(other, proof.chunk, proof.path)


def test_criterion_7_experiment_reproduction(default_grid):
    with criterion(7, "default grid: 36 rows, bounded proof sizes, logarithmic absence growth, byte-stable CSV"):
        rows, first_elapsed = default_grid
        assert len(rows) == 36

        by_cell = {}
        for row in rows:
            assert row.filter_bytes == row.m_bits // 8
            by_cell.setdefault((row.chunk_size, row.fpr_target), []).append(row)

        for (chunk_size, fpr_target), cell_rows in by_cell.items():
            largest = max(cell_rows, key=lambda r: r.n)
            assert largest.n == 10000
            assert largest.median_presence_proof_bytes < 0.25 * largest.filter_bytes, (chunk_size, fpr_target)
            assert largest.absence_proof_bytes < 0.25 * largest.filter_bytes, (chunk_size, fpr_target)
            ordered = sorted(cell_rows, key=lambda r: r.n)
            for before, after in zip(ordered, ordered[1:]):
                depth_before = (before.m_bits // (before.chunk_size * 8)).bit_length() - 1
                depth_after = (after.m_bits // (after.chunk_size * 8)).bit_length() - 1
                delta = after.absence_proof_bytes - before.absence_proof_bytes
                assert delta == 32 * (depth_after - depth_before)
                assert delta >= 0

        started = time.monotonic()
        again = run_grid(ExperimentConfig())
        second_elapsed = time.monotonic() - started
        assert rows_to_csv(again) == rows_to_csv(rows)
        assert first_elapsed < 300.0 and second_elapsed < 300.0


def test_criterion_8_codec_round_trip_and_fuzz():
    with criterion(8, "1000 filter/proof round-trips, 100k-iteration decode fuzz, stable goldens"):
        rng = random.Random("acceptance-codec")

        # golden vectors stay fixed across runs
        from test_codec import GOLDEN_ABSENCE_HEX, GOLDEN_FILTER_HEX, golden_tree

        assert codec.encode_filter(golden_tree()).hex() == GOLDEN_FILTER_HEX
        golden_params, golden_proof = codec.decode_proof(bytes.fromhex(GOLDEN_ABSENCE_HEX))
        assert codec.encode_proof(golden_params, golden_proof).hex() == GOLDEN_ABSENCE_HEX

        # 1000 random filters round-trip
        for _ in range(1000):
            chunk_size = rng.choice([8, 16, 32])
            chunk_count = 1 << rng.randrange(0, 6)
            params = BloomParams(
                m=chunk_count * chunk_size * 8,
                k=rng.randrange(1, 16),
                chunk_size=chunk_size,
            )
            filt = BloomFilter(params, bytearray(rng.randbytes(params.byte_length)))
            blob = codec.encode_filter(build(filt))
            decoded = codec.decode_filter(blob)
            assert decoded.filter == filt
            assert codec.encode_filter(decoded) == blob

        # 1000 generated proofs round-trip
        params = derive_params(400, 0.02, 8)
        filt = BloomFilter(params)
        inserted = [rng.randbytes(10) for _ in range(400)]
        for element in inserted:
            filt.insert(element)
        bloom_tree = build(filt)
        valid_blobs = []
        for index in range(1000):
            element = inserted[index % len(inserted)] if index % 2 == 0 else rng.randbytes(11)
            proof = prove(bloom_tree, element)
            blob = codec.encode_proof(params, proof)
            echoed, decoded = codec.decode_proof(blob)
            assert echoed == params and decoded == proof
            assert codec.encode_proof(echoed, decoded) == blob
            if len(valid_blobs) < 40:
                valid_blobs.append(blob)
        valid_blobs.append(codec.encode_filter(bloom_tree))

        # 100k decode attempts: random garbage plus mutated valid encodings
        crashes = 0
        for iteration in range(100_000):
            if iteration % 2 == 0:
                data = rng.randbytes(rng.randrange(0, 120))
            else:
                data = bytearray(rng.choice(valid_blobs))
                for _ in range(rng.randrange(1, 4)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
                data = bytes(data)
            for decoder in (codec.decode_filter, codec.decode_proof):
                try:
                    decoder(data)
                except codec.CodecError:
                    pass
                except Exception:  # noqa: BLE001 - the whole point of the fuzz
                    crashes += 1
        assert crashes == 0
