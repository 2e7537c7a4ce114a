import random
import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomtree import codec
from bloomtree.bloom import MAX_CHUNK_SIZE, BloomFilter, BloomParams
from bloomtree.tree import AbsenceProof, PresenceProof, build, prove

# Tiny fixed filter: one chunk of 8 bytes, k = 2. Frozen from the layout
# definition plus a standalone SHA-256 of 0x00 || LE64(0) || chunk.
GOLDEN_PARAMS = BloomParams(m=64, k=2, chunk_size=8)
GOLDEN_BITS = bytes([0x12, 0x00, 0x80, 0x01, 0x00, 0x00, 0x40, 0x00])
GOLDEN_FILTER_HEX = (
    "424c5452014000000000000000020000000800000012008001000040002a4419"
    "5814a23567bb3024fd2a60acd6e5a770174e629cc786669c087ae81d6e"
)
GOLDEN_ABSENCE_HEX = (
    "424c5046010240000000000000000200000008000000000000000000000012008001000040000000"
)


def golden_tree():
    return build(BloomFilter(GOLDEN_PARAMS, bytearray(GOLDEN_BITS)))


def sample_proofs(count, seed):
    params = BloomParams(m=4096, k=6, chunk_size=16)  # 32 chunks
    rng = random.Random(seed)
    filt = BloomFilter(params)
    inserted = [rng.randbytes(10) for _ in range(60)]
    for element in inserted:
        filt.insert(element)
    bloom_tree = build(filt)
    proofs = []
    while len(proofs) < count:
        if rng.random() < 0.5:
            proofs.append(prove(bloom_tree, rng.choice(inserted)))
        else:
            proofs.append(prove(bloom_tree, rng.randbytes(11)))
    return params, proofs


class TestFilterCodec:
    def test_golden_encoding(self):
        assert codec.encode_filter(golden_tree()).hex() == GOLDEN_FILTER_HEX

    def test_golden_decoding(self):
        bloom_tree = codec.decode_filter(bytes.fromhex(GOLDEN_FILTER_HEX))
        assert bloom_tree.filter.params == GOLDEN_PARAMS
        assert bytes(bloom_tree.filter.bits) == GOLDEN_BITS
        assert bloom_tree.root == golden_tree().root

    def test_total_length(self):
        blob = codec.encode_filter(golden_tree())
        assert len(blob) == 21 + GOLDEN_PARAMS.byte_length + 32

    def test_round_trip_random_filters(self):
        rng = random.Random(40)
        for _ in range(25):
            params = BloomParams(
                m=rng.choice([64, 512, 2048]) * 8,
                k=rng.randrange(1, 12),
                chunk_size=rng.choice([8, 64]),
            )
            filt = BloomFilter(params, bytearray(rng.randbytes(params.byte_length)))
            blob = codec.encode_filter(build(filt))
            decoded = codec.decode_filter(blob)
            assert decoded.filter == filt
            assert codec.encode_filter(decoded) == blob

    def test_bad_magic(self):
        blob = bytearray(bytes.fromhex(GOLDEN_FILTER_HEX))
        blob[0] ^= 0xFF
        with pytest.raises(codec.BadMagic):
            codec.decode_filter(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(bytes.fromhex(GOLDEN_FILTER_HEX))
        blob[4] = 0x02
        with pytest.raises(codec.UnsupportedVersion):
            codec.decode_filter(bytes(blob))

    def test_truncated(self):
        blob = bytes.fromhex(GOLDEN_FILTER_HEX)
        for cut in (len(blob) - 1, 20, 5, 0):
            with pytest.raises(codec.TruncatedPayload):
                codec.decode_filter(blob[:cut])

    def test_trailing_bytes(self):
        blob = bytes.fromhex(GOLDEN_FILTER_HEX) + b"\x00"
        with pytest.raises(codec.TrailingBytes):
            codec.decode_filter(blob)

    def test_root_mismatch(self):
        blob = bytearray(bytes.fromhex(GOLDEN_FILTER_HEX))
        blob[21] ^= 0x01  # flip a filter bit, keep the stored root
        with pytest.raises(codec.RootMismatch):
            codec.decode_filter(bytes(blob))

    @pytest.mark.parametrize(
        "m,k,chunk_size",
        [(64, 0, 8), (64, 2, 0), (24, 1, 1), (8, 1, 32), (64, 2, 70000), (192, 1, 24)],
    )
    def test_invalid_params_field(self, m, k, chunk_size):
        blob = codec.FILTER_MAGIC + bytes([codec.VERSION]) + struct.pack("<QII", m, k, chunk_size)
        with pytest.raises(codec.InvalidField):
            codec.decode_filter(blob)

    def test_huge_k_is_rejected_quickly(self):
        # k = 2^32 - 1 would make every index list four billion entries long
        header = struct.pack("<QII", 64, (1 << 32) - 1, 8)
        started = time.monotonic()
        with pytest.raises(codec.InvalidField):
            codec.decode_filter(codec.FILTER_MAGIC + bytes([codec.VERSION]) + header + GOLDEN_BITS + bytes(32))
        with pytest.raises(codec.InvalidField):
            codec.decode_proof(codec.PROOF_MAGIC + bytes([codec.VERSION, codec.ABSENCE_KIND]) + header)
        assert time.monotonic() - started < 1.0

    def test_error_taxonomy_is_distinguishable(self):
        assert issubclass(codec.BadMagic, codec.CodecError)
        assert issubclass(codec.RootMismatch, codec.CodecError)
        categories = {
            codec.BadMagic,
            codec.UnsupportedVersion,
            codec.TruncatedPayload,
            codec.TrailingBytes,
            codec.RootMismatch,
            codec.InvalidField,
        }
        assert len(categories) == 6


class TestProofCodec:
    def test_golden_absence_layout(self):
        proof = AbsenceProof(chunk_index=0, chunk=GOLDEN_BITS, path=())
        assert codec.encode_proof(GOLDEN_PARAMS, proof).hex() == GOLDEN_ABSENCE_HEX
        params, decoded = codec.decode_proof(bytes.fromhex(GOLDEN_ABSENCE_HEX))
        assert params == GOLDEN_PARAMS
        assert decoded == proof

    def test_round_trip_generated_proofs(self):
        params, proofs = sample_proofs(80, seed=41)
        kinds = {type(p) for p in proofs}
        assert kinds == {PresenceProof, AbsenceProof}, "sample must cover both kinds"
        for proof in proofs:
            blob = codec.encode_proof(params, proof)
            echoed, decoded = codec.decode_proof(blob)
            assert echoed == params
            assert decoded == proof
            assert codec.encode_proof(echoed, decoded) == blob

    def test_absence_size_formula(self):
        params, proofs = sample_proofs(30, seed=42)
        for proof in proofs:
            if isinstance(proof, AbsenceProof):
                blob = codec.encode_proof(params, proof)
                assert len(blob) == 22 + 8 + params.chunk_size + 2 + 32 * len(proof.path)

    def test_presence_size_formula(self):
        params, proofs = sample_proofs(30, seed=43)
        for proof in proofs:
            if isinstance(proof, PresenceProof):
                blob = codec.encode_proof(params, proof)
                c, h = len(proof.chunks), len(proof.multiproof)
                assert len(blob) == 22 + 2 + 8 * c + params.chunk_size * c + 2 + 32 * h

    def test_unknown_kind(self):
        blob = bytearray(bytes.fromhex(GOLDEN_ABSENCE_HEX))
        blob[5] = 0x7F
        with pytest.raises(codec.InvalidField):
            codec.decode_proof(bytes(blob))

    def test_truncation_everywhere(self):
        params, proofs = sample_proofs(4, seed=44)
        blob = codec.encode_proof(params, proofs[0])
        for cut in range(len(blob)):
            with pytest.raises(codec.CodecError):
                codec.decode_proof(blob[:cut])

    def test_trailing_byte(self):
        params, proofs = sample_proofs(1, seed=45)
        blob = codec.encode_proof(params, proofs[0])
        with pytest.raises(codec.TrailingBytes):
            codec.decode_proof(blob + b"!")

    def test_huge_counts_do_not_allocate(self):
        # count field says 65535 entries but the buffer ends immediately
        header = codec.PROOF_MAGIC + bytes([codec.VERSION, codec.PRESENCE_KIND])
        header += struct.pack("<QII", 64, 2, 8)
        blob = header + struct.pack("<H", 0xFFFF)
        with pytest.raises(codec.TruncatedPayload):
            codec.decode_proof(blob)

    def test_empty_presence_proof_round_trips(self):
        proof = PresenceProof(chunk_indices=(), chunks=(), multiproof=())
        blob = codec.encode_proof(GOLDEN_PARAMS, proof)
        assert len(blob) == 22 + 2 + 2
        assert codec.decode_proof(blob) == (GOLDEN_PARAMS, proof)

    def test_declared_counts_leave_bounded_memory(self):
        # Every declared count is backed by its digests, so each proof decodes.
        # One layout of 65,535 digests alone would keep about 2.3 MB; the
        # largest counts come last, so a cache that drops old layouts keeps them.
        counts = [*range(1, 197), 0x7FFF, 0xBFFF, 0xFFFE, 0xFFFF]
        head = codec.PROOF_MAGIC + bytes([codec.VERSION, codec.ABSENCE_KIND])
        head += struct.pack("<QII", 64, 2, 8) + struct.pack("<Q", 0) + GOLDEN_BITS
        digests = bytes(range(32)) * 0xFFFF
        tracemalloc.start()
        try:
            for count in counts:
                _, proof = codec.decode_proof(head + struct.pack("<H", count) + digests[: 32 * count])
                assert len(proof.path) == count
                assert proof.path[-1] == bytes(range(32))
            del proof
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**20

    def test_declared_chunk_sizes_leave_bounded_memory(self):
        # Each of the 17 chunk sizes with its 48 largest counts of at most 256
        # chunks and 64 KiB: 591 distinct layouts, about 3.8 MB if every layout
        # were kept. The largest layouts come last, so a cache that drops old
        # layouts keeps them.
        head = codec.PROOF_MAGIC + bytes([codec.VERSION, codec.PRESENCE_KIND])
        tracemalloc.start()
        try:
            for size in (MAX_CHUNK_SIZE >> e for e in range(17)):
                most = min(256, MAX_CHUNK_SIZE // size)
                for count in range(max(1, most - 47), most + 1):
                    body = struct.pack("<QII", 8 * size, 2, size) + struct.pack("<H", count) + bytes((8 + size) * count)
                    _, proof = codec.decode_proof(head + body + struct.pack("<H", 0))
                    assert proof.chunks == (bytes(size),) * count
            del proof, body
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2 * 2**20

    def test_encoder_rejects_malformed_values(self):
        with pytest.raises(ValueError):
            codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(0, b"wrong size", ()))
        with pytest.raises(ValueError):
            codec.encode_proof(
                GOLDEN_PARAMS,
                PresenceProof((0,), (GOLDEN_BITS,), (b"not 32 bytes",)),
            )
        # Chunk indices outside [0, 2**64) do not fit the u64 field.
        with pytest.raises(ValueError):
            codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(-1, bytes(8), ()))
        with pytest.raises(ValueError):
            codec.encode_proof(GOLDEN_PARAMS, PresenceProof((-1,), (GOLDEN_BITS,), ()))
        with pytest.raises(ValueError):
            codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(2**64, bytes(8), ()))
        with pytest.raises(TypeError):
            codec.encode_proof(GOLDEN_PARAMS, "not a proof")
        # The counts must agree with each other and fit their u16 fields.
        with pytest.raises(ValueError, match="chunk index count and chunk count disagree"):
            codec.encode_proof(GOLDEN_PARAMS, PresenceProof((0, 1), (GOLDEN_BITS,), ()))
        with pytest.raises(ValueError, match="too large for u16 count fields"):
            codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(0, bytes(8), (bytes(32),) * 0x10000))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=400))
    def test_decode_filter_never_crashes(self, blob):
        try:
            decoded = codec.decode_filter(blob)
        except codec.CodecError:
            return
        assert codec.encode_filter(decoded) == blob

    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=400))
    def test_decode_proof_never_crashes(self, blob):
        try:
            params, decoded = codec.decode_proof(blob)
        except codec.CodecError:
            return
        assert codec.encode_proof(params, decoded) == blob

    def test_mutation_fuzz_on_valid_encodings(self):
        rng = random.Random(46)
        params, proofs = sample_proofs(10, seed=46)
        blobs = [codec.encode_proof(params, p) for p in proofs]
        blobs.append(bytes.fromhex(GOLDEN_FILTER_HEX))
        for _ in range(3000):
            blob = bytearray(rng.choice(blobs))
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            data = bytes(blob)
            for decoder in (codec.decode_filter, codec.decode_proof):
                try:
                    decoder(data)
                except codec.CodecError:
                    pass
