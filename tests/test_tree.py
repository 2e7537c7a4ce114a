import dataclasses
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomtree import codec
from bloomtree.bloom import BloomFilter, BloomParams, indices
from bloomtree.merkle import build_tree
from bloomtree.tree import (
    AbsenceProof,
    BloomTree,
    PresenceProof,
    Verdict,
    VerdictKind,
    build,
    leaf_hash,
    locate,
    prove,
    verify,
)

# Matching 32-byte-chunk geometry used throughout: 256 bits per chunk.
PARAMS_32 = BloomParams(m=131072, k=9, chunk_size=32)
SMALL = BloomParams(m=512, k=5, chunk_size=8)  # 8 chunks of 64 bits

# Computed once with a standalone SHA-256 tool over 0x00 || LE64(index) || chunk.
LEAF_GOLDEN_3 = "55582a711412846389df2d591343bc3955ed64ca33c2f7a0d3b47204586e2299"
LEAF_GOLDEN_5 = "80f119a4e48dcd18c2cb130805df124c8bf2aba16e466985ca82a71ca0081fb9"


def populated_tree(params=SMALL, count=None, seed=1):
    rng = random.Random(seed)
    count = count if count is not None else max(4, params.m // 64)
    inserted = []
    seen = set()
    filt = BloomFilter(params)
    while len(inserted) < count:
        element = rng.randbytes(12)
        if element in seen:
            continue
        seen.add(element)
        inserted.append(element)
        filt.insert(element)
    return build(filt), inserted, rng


class TestLeafHash:
    def test_golden_vectors(self):
        chunk = bytes.fromhex("deadbeef00112233")
        assert leaf_hash(3, chunk).hex() == LEAF_GOLDEN_3
        assert leaf_hash(5, chunk).hex() == LEAF_GOLDEN_5

    def test_index_salting_separates_equal_chunks(self):
        chunk = b"\xaa" * 8
        assert leaf_hash(0, chunk) != leaf_hash(1, chunk)

    def test_output_length(self):
        assert len(leaf_hash(0, b"")) == 32


class TestLocate:
    @pytest.mark.parametrize(
        "bit_index,expected",
        [(800, (3, 32)), (1602, (6, 66)), (3650, (14, 66)), (0, (0, 0)), (255, (0, 255)), (256, (1, 0))],
    )
    def test_32_byte_chunks(self, bit_index, expected):
        assert locate(bit_index, PARAMS_32) == expected

    def test_roundtrip(self):
        chunk_index, local = locate(5000, SMALL)
        assert chunk_index * SMALL.chunk_bits + local == 5000


class TestBuild:
    def test_identical_filters_share_a_root(self):
        one, _, _ = populated_tree(seed=5)
        two, _, _ = populated_tree(seed=5)
        assert one.root == two.root

    def test_any_bit_flip_changes_the_root(self):
        bloom_tree, _, rng = populated_tree(seed=6)
        baseline = bloom_tree.root
        for _ in range(50):
            mutated = bytearray(bloom_tree.filter.bits)
            bit = rng.randrange(SMALL.m)
            mutated[bit >> 3] ^= 1 << (bit & 7)
            assert build(BloomFilter(SMALL, mutated)).root != baseline

    def test_single_chunk_root_is_the_salted_chunk_hash(self):
        params = BloomParams(m=64, k=2, chunk_size=8)
        filt = BloomFilter(params)
        filt.insert(b"lonely")
        assert build(filt).root == leaf_hash(0, bytes(filt.bits))

    def test_insert_after_build_leaves_the_tree_unchanged(self):
        bloom_tree, inserted, rng = populated_tree(seed=21)
        filt = BloomFilter(SMALL, bytearray(bloom_tree.filter.bits))
        built = build(filt)
        root = built.root
        probes = inserted[:5] + [rng.randbytes(13) for _ in range(20)]
        proofs = [prove(built, element) for element in probes]
        late = [rng.randbytes(11) for _ in range(50)]
        for element in late:
            filt.insert(element)
        assert bytes(filt.bits) != bytes(built.filter.bits)
        assert build(filt).root != root
        assert built.root == root
        assert bytes(built.filter.bits) == bytes(bloom_tree.filter.bits)
        assert build(built.filter).root == root
        for element, proof in zip(probes, proofs):
            assert prove(built, element) == proof
            assert verify(root, SMALL, element, proof).is_valid
        with pytest.raises(TypeError):
            built.filter.insert(late[0])  # the committed snapshot is read-only

    def test_root_is_read_from_the_tree(self):
        bloom_tree, _, _ = populated_tree(seed=23)
        assert bloom_tree.root == bloom_tree.tree.root
        other, _, _ = populated_tree(seed=24)
        with pytest.raises(TypeError):
            BloomTree(filter=bloom_tree.filter, tree=bloom_tree.tree, root=other.root)
        with pytest.raises(AttributeError):
            bloom_tree.root = other.root

    def test_root_matches_hand_built_tree(self):
        bloom_tree, _, _ = populated_tree(seed=7)
        leaves = [leaf_hash(i, bloom_tree.filter.chunk(i)) for i in range(SMALL.chunk_count)]
        assert bloom_tree.root == build_tree(leaves).root

    def test_build_holds_little_beyond_the_tree_it_returns(self):
        # 2^16 chunks of 32 bytes: a 2 MiB leaf level. One digest object per
        # leaf alone would take more than that.
        params = BloomParams(m=2**16 * 32 * 8, k=7, chunk_size=32)
        filt = BloomFilter(params, random.Random(25).randbytes(params.byte_length))
        tracemalloc.start()
        try:
            bloom_tree = build(filt)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bloom_tree.tree.levels[0]) == 2**21
        assert peak - retained < len(bloom_tree.tree.levels[0])

    @pytest.mark.parametrize(
        "chunk_size, chunk_count",
        [(size, count) for size in (1, 32, 512) for count in (1, 2, 2**13)]
        + [(65536, count) for count in (1, 2, 8)],
    )
    def test_levels_match_a_hashlib_oracle(self, chunk_size, chunk_count):
        # The largest counts span several blocks of a build, whether blocks are
        # bounded in digests (chunk sizes 1 and 32) or in bytes (512 and 65536).
        params = BloomParams(m=chunk_count * chunk_size * 8, k=3, chunk_size=chunk_size)
        bits = random.Random(f"oracle-{chunk_size}-{chunk_count}").randbytes(params.byte_length)
        level = [
            hashlib.sha256(b"\x00" + i.to_bytes(8, "little") + bits[i * chunk_size : (i + 1) * chunk_size]).digest()
            for i in range(chunk_count)
        ]
        expected = [b"".join(level)]
        while len(level) > 1:
            level = [hashlib.sha256(b"\x01" + level[j] + level[j + 1]).digest() for j in range(0, len(level), 2)]
            expected.append(b"".join(level))
        bloom_tree = build(BloomFilter(params, bits))
        assert bloom_tree.tree.levels == tuple(expected)
        assert bloom_tree.root == level[0]

    def test_build_of_large_chunks_holds_little_beyond_the_tree(self):
        # 64 chunks of 64 KiB: a block of many such chunks would hold MiBs.
        params = BloomParams(m=64 * 65536 * 8, k=3, chunk_size=65536)
        filt = BloomFilter(params, random.Random(26).randbytes(params.byte_length))
        tracemalloc.start()
        try:
            bloom_tree = build(filt)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bloom_tree.tree.leaf_count == 64
        assert peak - retained < 2**20


class TestProve:
    def test_inserted_element_gets_presence(self):
        bloom_tree, inserted, _ = populated_tree(seed=8)
        proof = prove(bloom_tree, inserted[0])
        assert isinstance(proof, PresenceProof)
        assert list(proof.chunk_indices) == sorted(set(proof.chunk_indices))
        assert len(proof.chunk_indices) <= SMALL.k

    def test_empty_filter_gives_lowest_chunk_absence(self):
        filt = BloomFilter(SMALL)
        bloom_tree = build(filt)
        element = b"never inserted"
        proof = prove(bloom_tree, element)
        assert isinstance(proof, AbsenceProof)
        lowest = min(locate(i, SMALL)[0] for i in indices(element, SMALL))
        assert proof.chunk_index == lowest
        assert proof.chunk == bytes(SMALL.chunk_size)
        assert len(proof.path) == SMALL.depth

    def test_absence_picks_lowest_zero_bearing_chunk(self):
        # Saturate the filter, then clear one required bit in each of the two
        # lowest chunks the element touches; the proof must name the lower.
        element = b"tie-break probe 4"
        by_chunk = {}
        for bit in indices(element, SMALL):
            chunk_index, local = locate(bit, SMALL)
            by_chunk.setdefault(chunk_index, []).append(bit)
        assert len(by_chunk) >= 2, "probe element must span two chunks"
        low, second = sorted(by_chunk)[:2]
        bits = bytearray(b"\xff" * SMALL.byte_length)
        for chunk_index in (low, second):
            bit = by_chunk[chunk_index][0]
            bits[bit >> 3] ^= 1 << (bit & 7)
        bloom_tree = build(BloomFilter(SMALL, bits))
        proof = prove(bloom_tree, element)
        assert isinstance(proof, AbsenceProof)
        assert proof.chunk_index == low

    def test_single_chunk_presence_matches_single_proof_size(self):
        # Find an element whose k indices all fall into one chunk.
        params = BloomParams(m=512, k=2, chunk_size=8)
        found = None
        for attempt in range(10_000):
            element = b"single-chunk-%d" % attempt
            chunk_set = {locate(i, params)[0] for i in indices(element, params)}
            if len(chunk_set) == 1:
                found = element
                break
        assert found is not None
        filt = BloomFilter(params)
        filt.insert(found)
        bloom_tree = build(filt)
        proof = prove(bloom_tree, found)
        assert isinstance(proof, PresenceProof)
        assert len(proof.chunk_indices) == 1
        assert len(proof.multiproof) == params.depth

    def test_proof_is_deterministic(self):
        bloom_tree, inserted, _ = populated_tree(seed=9)
        assert prove(bloom_tree, inserted[3]) == prove(bloom_tree, inserted[3])


class TestVerify:
    def test_round_trip_matches_contains(self):
        bloom_tree, inserted, rng = populated_tree(seed=10)
        params = bloom_tree.filter.params
        for element in inserted[:20] + [rng.randbytes(13) for _ in range(200)]:
            verdict = verify(bloom_tree.root, params, element, prove(bloom_tree, element))
            expected = (
                VerdictKind.MAYBE_PRESENT
                if bloom_tree.filter.contains(element)
                else VerdictKind.DEFINITELY_ABSENT
            )
            assert verdict.kind is expected, verdict

    def test_absence_soundness(self):
        # DefinitelyAbsent always names an element outside the inserted set
        bloom_tree, inserted, rng = populated_tree(seed=11)
        params = bloom_tree.filter.params
        inserted_set = set(inserted)
        for _ in range(300):
            element = rng.randbytes(13)
            verdict = verify(bloom_tree.root, params, element, prove(bloom_tree, element))
            if verdict.kind is VerdictKind.DEFINITELY_ABSENT:
                assert not bloom_tree.filter.contains(element)
                assert element not in inserted_set

    def test_absence_for_irrelevant_chunk_is_invalid(self):
        bloom_tree, _, rng = populated_tree(seed=12)
        params = bloom_tree.filter.params
        element = next(e for e in iter(lambda: rng.randbytes(13), None) if not bloom_tree.filter.contains(e))
        proof = prove(bloom_tree, element)
        assert isinstance(proof, AbsenceProof)
        touched = {locate(i, params)[0] for i in indices(element, params)}
        outside = next(c for c in range(params.chunk_count) if c not in touched)
        relabeled = AbsenceProof(chunk_index=outside, chunk=proof.chunk, path=proof.path)
        assert verify(bloom_tree.root, params, element, relabeled).kind is VerdictKind.INVALID

    def test_relabeled_absence_chunk_is_invalid(self):
        # Index salting: a valid proof for chunk c never verifies as chunk c'.
        bloom_tree, _, rng = populated_tree(seed=13)
        params = bloom_tree.filter.params
        forgeries = 0
        trials = 0
        while trials < 200:
            element = rng.randbytes(13)
            proof = prove(bloom_tree, element)
            if not isinstance(proof, AbsenceProof):
                continue
            trials += 1
            touched = sorted({locate(i, params)[0] for i in indices(element, params)})
            for other in touched:
                if other == proof.chunk_index:
                    continue
                relabeled = AbsenceProof(chunk_index=other, chunk=proof.chunk, path=proof.path)
                if verify(bloom_tree.root, params, element, relabeled).kind is not VerdictKind.INVALID:
                    forgeries += 1
        assert forgeries == 0

    def test_absence_path_of_the_wrong_shape_is_invalid(self):
        # The path length is checked only by the multiproof's final fold.
        bloom_tree, _, rng = populated_tree(seed=25)
        params = bloom_tree.filter.params
        checked = 0
        while checked < 20:
            element = rng.randbytes(13)
            proof = prove(bloom_tree, element)
            if not isinstance(proof, AbsenceProof):
                continue
            checked += 1
            path = proof.path
            a, b = sorted(rng.sample(range(len(path)), 2))
            swapped = list(path)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            for mutated in (path[:-1], path + (rng.randbytes(32),), tuple(swapped)):
                tampered = AbsenceProof(proof.chunk_index, proof.chunk, mutated)
                decoded_params, decoded = codec.decode_proof(codec.encode_proof(params, tampered))
                assert decoded == tampered
                for candidate in (tampered, decoded):
                    verdict = verify(bloom_tree.root, decoded_params, element, candidate)
                    assert verdict.kind is VerdictKind.INVALID
                    assert verdict.reason == "path does not reconstruct the root"

    def test_presence_with_cleared_bit_is_invalid(self):
        bloom_tree, inserted, _ = populated_tree(seed=14)
        params = bloom_tree.filter.params
        element = inserted[0]
        proof = prove(bloom_tree, element)
        assert isinstance(proof, PresenceProof)
        required_bit = indices(element, params)[0]
        chunk_index, local = locate(required_bit, params)
        position = proof.chunk_indices.index(chunk_index)
        tampered_chunk = bytearray(proof.chunks[position])
        tampered_chunk[local >> 3] ^= 1 << (local & 7)
        chunks = list(proof.chunks)
        chunks[position] = bytes(tampered_chunk)
        tampered = PresenceProof(proof.chunk_indices, tuple(chunks), proof.multiproof)
        assert verify(bloom_tree.root, params, element, tampered).kind is VerdictKind.INVALID

    def test_presence_chunk_set_must_match_exactly(self):
        bloom_tree, inserted, _ = populated_tree(seed=15)
        params = bloom_tree.filter.params
        element = inserted[1]
        proof = prove(bloom_tree, element)
        assert isinstance(proof, PresenceProof)
        # dropped chunk
        short = PresenceProof(proof.chunk_indices[1:], proof.chunks[1:], proof.multiproof)
        assert verify(bloom_tree.root, params, element, short).kind is VerdictKind.INVALID
        # extraneous chunk appended (superset is rejected, not just subset)
        extra_index = next(c for c in range(params.chunk_count) if c not in proof.chunk_indices)
        padded = PresenceProof(
            tuple(sorted(proof.chunk_indices + (extra_index,))),
            proof.chunks + (bloom_tree.filter.chunk(extra_index),),
            proof.multiproof,
        )
        assert verify(bloom_tree.root, params, element, padded).kind is VerdictKind.INVALID

    def test_presence_multiproof_mutation_is_invalid(self):
        bloom_tree, inserted, _ = populated_tree(seed=16)
        params = bloom_tree.filter.params
        element = inserted[2]
        proof = prove(bloom_tree, element)
        assert isinstance(proof, PresenceProof)
        for position in range(len(proof.multiproof)):
            mutated = list(proof.multiproof)
            corrupted = bytearray(mutated[position])
            corrupted[0] ^= 0x80
            mutated[position] = bytes(corrupted)
            tampered = PresenceProof(proof.chunk_indices, proof.chunks, tuple(mutated))
            assert verify(bloom_tree.root, params, element, tampered).kind is VerdictKind.INVALID

    def test_wrong_root_is_invalid(self):
        bloom_tree, inserted, _ = populated_tree(seed=17)
        params = bloom_tree.filter.params
        proof = prove(bloom_tree, inserted[0])
        wrong = bytearray(bloom_tree.root)
        wrong[5] ^= 1
        assert verify(bytes(wrong), params, inserted[0], proof).kind is VerdictKind.INVALID
        assert verify(b"short", params, inserted[0], proof).kind is VerdictKind.INVALID

    def test_root_that_is_not_a_digest_is_invalid_not_raise(self):
        bloom_tree, inserted, _ = populated_tree(seed=27)
        params = bloom_tree.filter.params
        proof = prove(bloom_tree, inserted[0])
        for root in (None, 7, "x" * 32, bloom_tree.root[:31], bloom_tree.root + b"\x00"):
            verdict = verify(root, params, inserted[0], proof)
            assert verdict.kind is VerdictKind.INVALID, root
            assert verdict.reason == "root must be a 32-byte digest"
        assert verify(bytearray(bloom_tree.root), params, inserted[0], proof).kind is VerdictKind.MAYBE_PRESENT

    def test_presence_chunk_count_must_match_the_chunk_indices(self):
        bloom_tree, inserted, _ = populated_tree(seed=28)
        params = bloom_tree.filter.params
        element = inserted[3]
        proof = prove(bloom_tree, element)
        assert isinstance(proof, PresenceProof)
        for chunks in (proof.chunks[:-1], proof.chunks + proof.chunks[-1:]):
            tampered = PresenceProof(proof.chunk_indices, chunks, proof.multiproof)
            verdict = verify(bloom_tree.root, params, element, tampered)
            assert verdict.kind is VerdictKind.INVALID
            assert verdict.reason == "chunk count does not match chunk index count"

    @pytest.mark.parametrize(
        "junk",
        [
            None,
            42,
            b"not a proof",
            PresenceProof(chunk_indices=7, chunks=(), multiproof=()),
            PresenceProof(chunk_indices=("a",), chunks=(b"x",), multiproof=()),
            PresenceProof(chunk_indices=(0,), chunks=(None,), multiproof=()),
            PresenceProof(chunk_indices=(0,), chunks=(b"x" * 8,), multiproof=(b"bad",)),
            AbsenceProof(chunk_index="zero", chunk=b"x" * 8, path=()),
            AbsenceProof(chunk_index=0, chunk=None, path=()),
            AbsenceProof(chunk_index=0, chunk=b"x" * 8, path=3),
            AbsenceProof(chunk_index=0, chunk=b"x" * 8, path=(b"bad",)),
        ],
    )
    def test_malformed_proofs_never_crash(self, junk):
        bloom_tree, inserted, _ = populated_tree(seed=18)
        honest = prove(bloom_tree, inserted[0])
        for verdict in (
            verify(bloom_tree.root, SMALL, b"anything", junk),
            verify(bloom_tree.root, junk, inserted[0], honest),  # the junk as params
        ):
            assert verdict.kind is VerdictKind.INVALID
            assert verdict.reason

    def test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason(self):
        # Honest proofs with one field replaced, so each check is the one that
        # meets the junk: a chunk of the wrong length or type, or a path that
        # is not iterable.
        bloom_tree, inserted, rng = populated_tree(seed=29)
        params = bloom_tree.filter.params
        present = prove(bloom_tree, inserted[0])
        absent = next(e for e in iter(lambda: rng.randbytes(13), None) if not bloom_tree.filter.contains(e))
        absence = prove(bloom_tree, absent)
        assert isinstance(present, PresenceProof) and isinstance(absence, AbsenceProof)
        first = present.chunk_indices[0]
        cases = []
        for junk in (b"", None, 7, present.chunks[0] + b"\x00", present.chunks[0][:-1]):
            chunks = (junk, *present.chunks[1:])
            cases.append((inserted[0], dataclasses.replace(present, chunks=chunks), f"chunk {first} is not exactly 8 bytes"))
            cases.append((absent, dataclasses.replace(absence, chunk=junk), "chunk is not exactly 8 bytes"))
        for junk in (None, 7):
            cases.append((absent, dataclasses.replace(absence, path=junk), "malformed absence proof path"))
        for element, proof, reason in cases:
            verdict = verify(bloom_tree.root, params, element, proof)
            assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, reason), proof

    def test_junk_digests_in_an_honest_proof_are_invalid(self):
        # The chunks match the element, so each junk digest reaches the root
        # reconstruction; only the proof's own digests are checked there.
        class Digest(bytes):
            pass

        bloom_tree, inserted, rng = populated_tree(PARAMS_32, count=2000, seed=26)
        params = bloom_tree.filter.params
        absent = next(e for e in iter(lambda: rng.randbytes(13), None) if not bloom_tree.filter.contains(e))
        cases = [
            (inserted[0], "multiproof", VerdictKind.MAYBE_PRESENT, "multiproof does not reconstruct the root"),
            (absent, "path", VerdictKind.DEFINITELY_ABSENT, "path does not reconstruct the root"),
        ]
        for element, field, kind, reason in cases:
            honest = prove(bloom_tree, element)
            digests = getattr(honest, field)
            assert digests
            for position in range(len(digests)):
                for junk in (None, 7, "x" * 32, b"\x00" * 31, b"\x00" * 33):
                    tampered = list(digests)
                    tampered[position] = junk
                    proof = dataclasses.replace(honest, **{field: tuple(tampered)})
                    verdict = verify(bloom_tree.root, params, element, proof)
                    assert verdict.kind is VerdictKind.INVALID, (field, position, junk)
                    assert verdict.reason == reason
            for convert in (bytearray, Digest):
                proof = dataclasses.replace(honest, **{field: tuple(map(convert, digests))})
                assert verify(bloom_tree.root, params, element, proof).kind is kind

    @pytest.mark.parametrize("element", ["text", None, 7, 1.5, ["b"]])
    def test_non_bytes_element_is_invalid_not_raise(self, element):
        bloom_tree, inserted, _ = populated_tree(seed=22)
        proof = prove(bloom_tree, inserted[0])
        verdict = verify(bloom_tree.root, SMALL, element, proof)
        assert verdict.kind is VerdictKind.INVALID
        assert "element must be bytes" in verdict.reason

    def test_proof_size_formulas(self):
        bloom_tree, inserted, rng = populated_tree(seed=19)
        params = bloom_tree.filter.params
        for element in inserted[:30]:
            proof = prove(bloom_tree, element)
            assert isinstance(proof, PresenceProof)
            assert len(proof.chunk_indices) <= params.k
            assert len(proof.multiproof) <= len(proof.chunk_indices) * params.depth
            assert all(len(chunk) == params.chunk_size for chunk in proof.chunks)
        absences = 0
        while absences < 30:
            element = rng.randbytes(14)
            proof = prove(bloom_tree, element)
            if isinstance(proof, AbsenceProof):
                absences += 1
                assert len(proof.path) == params.depth
                assert len(proof.chunk) == params.chunk_size


class TestEchoedParams:
    """The root commits to the filter bytes, not to k: the params a proof echoes
    are trusted only if the verifier got them elsewhere (ROADMAP item 2)."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the root does not commit to k")
    def test_echoed_k_never_proves_an_inserted_element_absent(self, echoed_k_forgery):
        bloom_tree, forged = echoed_k_forgery
        kinds = [verify(bloom_tree.root, echoed, element, proof).kind for echoed, element, proof in forged]
        assert VerdictKind.DEFINITELY_ABSENT not in kinds

    def test_forged_proofs_under_the_true_params_are_never_absent(self, echoed_k_forgery):
        bloom_tree, forged = echoed_k_forgery
        assert any(isinstance(proof, AbsenceProof) for _, _, proof in forged)
        params = bloom_tree.filter.params
        for _, element, proof in forged:
            assert verify(bloom_tree.root, params, element, proof).kind is not VerdictKind.DEFINITELY_ABSENT


class TestVerdict:
    def test_labels(self):
        assert str(Verdict.maybe_present()) == "MaybePresent"
        assert str(Verdict.definitely_absent()) == "DefinitelyAbsent"
        assert str(Verdict.invalid("bad")) == "Invalid: bad"

    def test_validity_flag(self):
        assert Verdict.maybe_present().is_valid
        assert Verdict.definitely_absent().is_valid
        assert not Verdict.invalid("no").is_valid


def brute_force_verdict(filter_bytes: bytes, params: BloomParams, element: bytes) -> VerdictKind:
    """Oracle that holds the entire filter: no proofs, just the bits."""
    filt = BloomFilter(params, bytearray(filter_bytes))
    if filt.contains(element):
        return VerdictKind.MAYBE_PRESENT
    return VerdictKind.DEFINITELY_ABSENT


def test_verify_matches_whole_filter_oracle():
    # Small filter (8 chunks): proof-based verdicts agree with an oracle that
    # rebuilds the tree from the full filter and checks bits directly.
    bloom_tree, inserted, rng = populated_tree(seed=20)
    params = bloom_tree.filter.params
    filter_bytes = bytes(bloom_tree.filter.bits)
    rebuilt = build(BloomFilter(params, bytearray(filter_bytes)))
    assert rebuilt.root == bloom_tree.root
    probes = inserted + [rng.randbytes(15) for _ in range(500)]
    for element in probes:
        verdict = verify(bloom_tree.root, params, element, prove(bloom_tree, element))
        assert verdict.kind is brute_force_verdict(filter_bytes, params, element)


@settings(deadline=None, max_examples=40)
@given(
    inserted=st.lists(st.binary(min_size=1, max_size=16), max_size=30),
    probes=st.lists(st.binary(max_size=16), min_size=1, max_size=10),
)
def test_honest_proofs_are_never_invalid(inserted, probes):
    filt = BloomFilter(SMALL)
    for element in inserted:
        filt.insert(element)
    bloom_tree = build(filt)
    for element in probes + inserted:
        verdict = verify(bloom_tree.root, SMALL, element, prove(bloom_tree, element))
        assert verdict.kind is not VerdictKind.INVALID
