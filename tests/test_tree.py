import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from bloomtree import codec, merkle
from bloomtree.bloom import BloomFilter, BloomParams, indices
from bloomtree.merkle import build_tree, prove_multi, verify_multi
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
DEEP = BloomParams(m=8 << 14, k=5, chunk_size=1)  # 2**14 chunks: merkle keeps all but the bottom two levels

# Computed once with a standalone SHA-256 tool over 0x00 || LE64(index) || chunk.
LEAF_GOLDEN_3 = "55582a711412846389df2d591343bc3955ed64ca33c2f7a0d3b47204586e2299"
LEAF_GOLDEN_5 = "80f119a4e48dcd18c2cb130805df124c8bf2aba16e466985ca82a71ca0081fb9"


class ClaimsToBeBytes(type):
    """A metaclass whose classes compare and hash equal to bytes, so a set or tuple lookup takes them for it."""

    def __eq__(cls, other):
        return other is bytes or cls is other

    def __hash__(cls):
        return hash(bytes)


def lying_chunks(honest: bytes, fill: int) -> list:
    """Two stand-ins for the chunk ``honest`` that read ``fill`` at every index but hash as ``honest``.

    One is a bytes subclass. The other holds no bytes at all: its class
    compares equal to bytes, and its ``__class__`` says bytes, so isinstance
    takes it for bytes too. Concatenation, which builds a leaf preimage, sees
    the honest bytes in both.
    """

    class Subclass(bytes):
        def __getitem__(self, index):
            return fill

    class Impostor(metaclass=ClaimsToBeBytes):
        __class__ = property(lambda self: bytes)

        def __len__(self):
            return len(honest)

        def __getitem__(self, index):
            return fill

        def __radd__(self, other):
            return other + honest

    return [Subclass(honest), Impostor()]


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


def absent_element(bloom_tree, rng) -> bytes:
    """A random 13-byte element with a zero at one of its bits in the committed filter, by the spec's rule."""
    bits, params = bloom_tree.filter.bits, bloom_tree.filter.params
    return next(e for e in iter(lambda: rng.randbytes(13), None) if not spec.contains(bits, params.m, params.k, e))


def replaced(proof, **changes):
    """A proof of the same type as ``proof`` with the named fields changed and the others kept."""
    kept = {name: getattr(proof, name) for name in type(proof).__slots__ if name not in changes}
    return type(proof)(**kept, **changes)


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

    def test_chunk_must_be_bytes_like(self):
        with pytest.raises(TypeError):
            leaf_hash(0, 8)  # not eight zero bytes

    def test_bytes_like_chunks_hash_alike(self):
        chunk = bytes.fromhex("deadbeef00112233")
        for form in (bytearray(chunk), memoryview(chunk)):
            assert leaf_hash(3, form).hex() == LEAF_GOLDEN_3


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

    def test_committed_filter_cannot_be_reassigned(self):
        # the holder would otherwise serve proofs over bits the root does not commit to
        bloom_tree, inserted, _ = populated_tree(seed=30)
        for name, value in (("bits", bytes(SMALL.byte_length)), ("bits", SMALL.byte_length), ("params", PARAMS_32)):
            with pytest.raises(AttributeError):
                setattr(bloom_tree.filter, name, value)
        for element in inserted:
            verdict = verify(bloom_tree.root, SMALL, element, prove(bloom_tree, element))
            assert verdict.kind is VerdictKind.MAYBE_PRESENT

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
        expected = spec.filter_levels(bits, chunk_size)
        bloom_tree = build(BloomFilter(params, bits))
        assert bloom_tree.tree.levels == tuple(b"".join(level) for level in expected)
        assert bloom_tree.root == expected[-1][0]

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
    def test_absence_soundness(self):
        # DefinitelyAbsent always names an element outside the inserted set
        bloom_tree, inserted, rng = populated_tree(seed=11)
        params = bloom_tree.filter.params
        inserted_set = set(inserted)
        for _ in range(300):
            element = rng.randbytes(13)
            verdict = verify(bloom_tree.root, params, element, prove(bloom_tree, element))
            if verdict.kind is VerdictKind.DEFINITELY_ABSENT:
                assert not spec.contains(bloom_tree.filter.bits, params.m, params.k, element)
                assert element not in inserted_set

    def test_absence_for_irrelevant_chunk_is_invalid(self):
        bloom_tree, _, rng = populated_tree(seed=12)
        params = bloom_tree.filter.params
        element = absent_element(bloom_tree, rng)
        proof = prove(bloom_tree, element)
        assert isinstance(proof, AbsenceProof)
        touched = {locate(i, params)[0] for i in indices(element, params)}
        outside = next(c for c in range(params.chunk_count) if c not in touched)
        relabeled = AbsenceProof(chunk_index=outside, chunk=proof.chunk, path=proof.path)
        verdict = verify(bloom_tree.root, params, element, relabeled)
        assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, "chunk is not one the element maps into")

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

    def test_presence_over_the_committed_chunks_of_an_outsider_is_invalid(self):
        # Every chunk and digest is the committed one, so only the zero at a
        # required bit tells this proof from an honest one.
        bloom_tree, _, rng = populated_tree(seed=33)
        outsider = absent_element(bloom_tree, rng)
        positions = indices(outsider, SMALL)
        chunk_set = sorted({locate(i, SMALL)[0] for i in positions})
        chunks = tuple(bloom_tree.filter.chunk(c) for c in chunk_set)
        proof = PresenceProof(tuple(chunk_set), chunks, tuple(prove_multi(bloom_tree.tree, chunk_set)))
        zero = min(i for i in positions if not bloom_tree.filter.bits[i >> 3] >> (i & 7) & 1)
        chunk_index, local = locate(zero, SMALL)
        verdict = verify(bloom_tree.root, SMALL, outsider, proof)
        assert (verdict.kind, verdict.reason) == (
            VerdictKind.INVALID,
            f"required bit {local} of chunk {chunk_index} is zero",
        )

    def test_absence_over_a_committed_chunk_of_a_member_is_invalid(self):
        # The committed chunk and its honest path: only the set required bits
        # tell this proof from an honest one.
        bloom_tree, inserted, _ = populated_tree(seed=34)
        for member in inserted:
            presence = prove(bloom_tree, member)
            for chunk_index, chunk in zip(presence.chunk_indices, presence.chunks):
                proof = AbsenceProof(chunk_index, chunk, tuple(prove_multi(bloom_tree.tree, [chunk_index])))
                verdict = verify(bloom_tree.root, SMALL, member, proof)
                assert (verdict.kind, verdict.reason) == (
                    VerdictKind.INVALID,
                    "every required bit in the supplied chunk is set",
                )

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
        verdict = verify(bloom_tree.root, params, element, padded)
        assert (verdict.kind, verdict.reason) == (
            VerdictKind.INVALID,
            "chunk indices do not match the element's chunk set",
        )

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

    @pytest.mark.parametrize("params", [SMALL, DEEP], ids=["depth-3", "depth-14"])
    def test_one_digest_replaced_after_every_leaf_was_verified_is_invalid(self, params, monkeypatch):
        # Once every leaf has been verified, merkle keeps the tree's top levels
        # whole, so each proof below meets a warm record. Each of its digests
        # replaced by another of its digests, or by the zero bytes that mark
        # an unseen node there, is still refused with the cold fold's reason.
        monkeypatch.setattr(merkle, "_kept", (None, -1, None))
        bloom_tree, inserted, rng = populated_tree(params, seed=27)
        tree = bloom_tree.tree
        leaves = [(i, tree.levels[0][32 * i : 32 * i + 32]) for i in range(tree.leaf_count)]
        assert verify_multi(tree.root, leaves, tree.leaf_count, [])
        cases = [
            (inserted[0], "multiproof", "multiproof does not reconstruct the root"),
            (absent_element(bloom_tree, rng), "path", "path does not reconstruct the root"),
        ]
        for element, field, reason in cases:
            honest = prove(bloom_tree, element)
            digests = getattr(honest, field)
            assert verify(bloom_tree.root, params, element, honest).is_valid
            for position, digest in enumerate(digests):
                for other in [d for d in (*digests, bytes(32)) if d != digest]:
                    tampered = list(digests)
                    tampered[position] = other
                    verdict = verify(bloom_tree.root, params, element, replaced(honest, **{field: tuple(tampered)}))
                    assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, reason), (field, position)

    def test_wrong_root_is_invalid(self):
        bloom_tree, inserted, _ = populated_tree(seed=17)
        params = bloom_tree.filter.params
        proof = prove(bloom_tree, inserted[0])
        wrong = bytearray(bloom_tree.root)
        wrong[5] ^= 1
        assert verify(bytes(wrong), params, inserted[0], proof).kind is VerdictKind.INVALID
        assert verify(b"short", params, inserted[0], proof).kind is VerdictKind.INVALID

    def test_root_that_is_not_a_digest_is_invalid_not_raise(self):
        class EqualsAnything(bytes):
            def __eq__(self, other):
                return True

        bloom_tree, inserted, _ = populated_tree(seed=27)
        params = bloom_tree.filter.params
        proof = prove(bloom_tree, inserted[0])
        junk = (None, 7, "x" * 32, bloom_tree.root[:31], bloom_tree.root + b"\x00", EqualsAnything(bytes(32)))
        for root in junk:
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
        # meets the junk: a chunk of the wrong length or type, or a list field
        # that is not exactly a tuple or a list, such as a generator that
        # yields the honest values and then raises.
        bloom_tree, inserted, rng = populated_tree(seed=29)
        params = bloom_tree.filter.params
        present = prove(bloom_tree, inserted[0])
        absent = absent_element(bloom_tree, rng)
        absence = prove(bloom_tree, absent)
        assert isinstance(present, PresenceProof) and isinstance(absence, AbsenceProof)
        first = present.chunk_indices[0]
        cases = []

        def raising(values):
            yield from values
            raise ValueError("raised while iterated")

        for junk in (b"", None, 7, present.chunks[0] + b"\x00", present.chunks[0][:-1]):
            chunks = (junk, *present.chunks[1:])
            cases.append((inserted[0], replaced(present, chunks=chunks), f"chunk {first} is not exactly 8 bytes"))
            cases.append((absent, replaced(absence, chunk=junk), "chunk is not exactly 8 bytes"))
        for junk in (None, 7, raising(absence.path)):
            cases.append((absent, replaced(absence, path=junk), "malformed absence proof path"))
        for field in ("chunk_indices", "chunks", "multiproof"):
            junk = {field: raising(getattr(present, field))}
            cases.append((inserted[0], replaced(present, **junk), "malformed presence proof fields"))
        for element, proof, reason in cases:
            verdict = verify(bloom_tree.root, params, element, proof)
            assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, reason), proof

    def test_junk_digests_in_an_honest_proof_are_invalid(self):
        # The chunks match the element, so each junk digest reaches the root
        # reconstruction; only the proof's own digests are checked there. A
        # digest is exactly bytes or bytearray: a subclass could override the
        # concatenation that builds each node's preimage.
        class Digest(bytes):
            pass

        bloom_tree, inserted, rng = populated_tree(PARAMS_32, count=2000, seed=26)
        params = bloom_tree.filter.params
        absent = absent_element(bloom_tree, rng)
        cases = [
            (inserted[0], "multiproof", VerdictKind.MAYBE_PRESENT, "multiproof does not reconstruct the root"),
            (absent, "path", VerdictKind.DEFINITELY_ABSENT, "path does not reconstruct the root"),
        ]
        for element, field, kind, reason in cases:
            honest = prove(bloom_tree, element)
            digests = getattr(honest, field)
            assert digests
            for position in range(len(digests)):
                for junk in (None, 7, "x" * 32, b"\x00" * 31, b"\x00" * 33, Digest(digests[position])):
                    tampered = list(digests)
                    tampered[position] = junk
                    proof = replaced(honest, **{field: tuple(tampered)})
                    verdict = verify(bloom_tree.root, params, element, proof)
                    assert verdict.kind is VerdictKind.INVALID, (field, position, junk)
                    assert verdict.reason == reason
            proof = replaced(honest, **{field: tuple(map(bytearray, digests))})
            assert verify(bloom_tree.root, params, element, proof).kind is kind

    @pytest.mark.parametrize("stand_in", [0, 1], ids=["bytes-subclass", "impostor"])
    def test_chunks_that_lie_about_their_bits_are_invalid(self, stand_in):
        # Honest root, trusted params and honest paths: only the chunk objects
        # lie, reading as all zeros or all ones while hashing as the committed
        # bytes. Without exact types they prove a member absent and an
        # outsider present.
        bloom_tree, inserted, rng = populated_tree(seed=31)
        member = inserted[0]
        honest = prove(bloom_tree, member)
        assert isinstance(honest, PresenceProof)
        first = honest.chunk_indices[0]
        chunk = lying_chunks(honest.chunks[0], 0x00)[stand_in]
        forged = AbsenceProof(first, chunk, tuple(prove_multi(bloom_tree.tree, [first])))
        verdict = verify(bloom_tree.root, SMALL, member, forged)
        assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, "chunk is not exactly 8 bytes")

        outsider = absent_element(bloom_tree, rng)
        chunk_set = sorted({locate(i, SMALL)[0] for i in indices(outsider, SMALL)})
        chunks = tuple(lying_chunks(bloom_tree.filter.chunk(c), 0xFF)[stand_in] for c in chunk_set)
        forged = PresenceProof(tuple(chunk_set), chunks, tuple(prove_multi(bloom_tree.tree, chunk_set)))
        verdict = verify(bloom_tree.root, SMALL, outsider, forged)
        assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, f"chunk {chunk_set[0]} is not exactly 8 bytes")

    def test_chunk_indices_that_are_not_exact_ints_are_invalid(self):
        # An int subclass's comparisons are its own: one that equals anything
        # made the absence arm raise KeyError, one that raises made the presence
        # arm raise.
        class Anything(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                return True

        class Raises(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                raise RuntimeError("compared")

        bloom_tree, inserted, rng = populated_tree(seed=32)
        outsider = absent_element(bloom_tree, rng)
        absence = prove(bloom_tree, outsider)
        assert isinstance(absence, AbsenceProof)
        for index in (Anything(absence.chunk_index), Raises(absence.chunk_index), float(absence.chunk_index)):
            verdict = verify(bloom_tree.root, SMALL, outsider, replaced(absence, chunk_index=index))
            assert (verdict.kind, verdict.reason) == (VerdictKind.INVALID, "chunk index must be an integer")
        presence = prove(bloom_tree, inserted[0])
        assert isinstance(presence, PresenceProof)
        first, *rest = presence.chunk_indices
        for index in (Anything(first), Raises(first), float(first)):
            proof = replaced(presence, chunk_indices=(index, *rest))
            verdict = verify(bloom_tree.root, SMALL, inserted[0], proof)
            assert (verdict.kind, verdict.reason) == (
                VerdictKind.INVALID,
                "chunk indices do not match the element's chunk set",
            )

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

    def test_valid_verdicts_are_shared_records(self):
        # They carry no reason, so verify hands out one immutable record of each.
        assert Verdict.maybe_present() is Verdict.maybe_present()
        assert Verdict.definitely_absent() is Verdict.definitely_absent()
        assert Verdict.maybe_present() == Verdict(VerdictKind.MAYBE_PRESENT)
        assert Verdict.definitely_absent() == Verdict(VerdictKind.DEFINITELY_ABSENT)


def test_verify_matches_whole_filter_oracle():
    # Small filter (8 chunks): proof-based verdicts agree with the reference's
    # root and membership over the full filter bytes.
    bloom_tree, inserted, rng = populated_tree(seed=20)
    params = bloom_tree.filter.params
    filter_bytes = bytes(bloom_tree.filter.bits)
    assert spec.filter_levels(filter_bytes, params.chunk_size)[-1][0] == bloom_tree.root
    for element in inserted + [rng.randbytes(15) for _ in range(500)]:
        verdict = verify(bloom_tree.root, params, element, prove(bloom_tree, element))
        present = spec.contains(filter_bytes, params.m, params.k, element)
        assert verdict.kind.value == (spec.MAYBE_PRESENT if present else spec.DEFINITELY_ABSENT)


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
        proof = prove(bloom_tree, element)
        verdict = verify(bloom_tree.root, SMALL, element, proof)
        assert verdict.kind is not VerdictKind.INVALID
        # a proof whose fields are lists, not tuples, is read alike
        fields = [getattr(proof, name) for name in proof.__slots__]
        listed = type(proof)(*[list(field) if type(field) is tuple else field for field in fields])
        assert verify(bloom_tree.root, SMALL, element, listed) is verdict
