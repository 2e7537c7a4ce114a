import functools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from bloomtree import codec
from bloomtree.bloom import MAX_CHUNK_SIZE, BloomFilter, BloomParams
from bloomtree.merkle import prove_multi
from bloomtree.tree import AbsenceProof, PresenceProof, VerdictKind, build, prove, verify

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
        assert len(blob) == spec.FILTER_HEADER + GOLDEN_PARAMS.byte_length + 32

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
        blob[4] = spec.VERSION + 1
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
        blob[spec.FILTER_HEADER] ^= 0x01  # flip a filter bit, keep the stored root
        with pytest.raises(codec.RootMismatch):
            codec.decode_filter(bytes(blob))

    @pytest.mark.parametrize(
        "m,k,chunk_size",
        [(64, 0, 8), (64, 2, 0), (24, 1, 1), (8, 1, 32), (64, 2, 70000), (192, 1, 24)],
    )
    def test_invalid_params_field(self, m, k, chunk_size):
        with pytest.raises(codec.InvalidField):
            codec.decode_filter(spec.filter_header(m, k, chunk_size))

    def test_huge_k_is_rejected_quickly(self):
        # k = 2^32 - 1 would make every index list four billion entries long
        k = (1 << 32) - 1
        started = time.monotonic()
        with pytest.raises(codec.InvalidField):
            codec.decode_filter(spec.filter_header(64, k, 8) + GOLDEN_BITS + bytes(32))
        with pytest.raises(codec.InvalidField):
            codec.decode_proof(spec.proof_header(spec.ABSENCE, 64, k, 8))
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

    def test_the_spec_builds_the_golden_files(self):
        m, k, chunk_size = GOLDEN_PARAMS.m, GOLDEN_PARAMS.k, GOLDEN_PARAMS.chunk_size
        root = spec.filter_levels(GOLDEN_BITS, chunk_size)[-1][0]
        assert (spec.filter_header(m, k, chunk_size) + GOLDEN_BITS + root).hex() == GOLDEN_FILTER_HEX
        absence = spec.proof_header(spec.ABSENCE, m, k, chunk_size) + spec.absence_body(0, GOLDEN_BITS)
        assert absence.hex() == GOLDEN_ABSENCE_HEX
        assert len(absence) == spec.absence_size(chunk_size, 0)

    def test_the_spec_builds_the_encoded_proofs(self):
        params, proofs = sample_proofs(30, seed=48)
        kinds = set()
        for proof in proofs:
            if isinstance(proof, AbsenceProof):
                kind, body = spec.ABSENCE, spec.absence_body(proof.chunk_index, proof.chunk, proof.path)
            else:
                kind, body = spec.PRESENCE, spec.presence_body(proof.chunk_indices, proof.chunks, proof.multiproof)
            kinds.add(kind)
            header = spec.proof_header(kind, params.m, params.k, params.chunk_size)
            assert header + body == codec.encode_proof(params, proof)
        assert kinds == {spec.PRESENCE, spec.ABSENCE}

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
                assert len(blob) == spec.absence_size(params.chunk_size, len(proof.path))

    def test_presence_size_formula(self):
        params, proofs = sample_proofs(30, seed=43)
        for proof in proofs:
            if isinstance(proof, PresenceProof):
                blob = codec.encode_proof(params, proof)
                assert len(blob) == spec.presence_size(params.chunk_size, len(proof.chunks), len(proof.multiproof))

    def test_unknown_kind(self):
        blob = bytearray(bytes.fromhex(GOLDEN_ABSENCE_HEX))
        blob[5] = 0x7F
        with pytest.raises(codec.InvalidField):
            codec.decode_proof(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(bytes.fromhex(GOLDEN_ABSENCE_HEX))
        blob[0] ^= 0xFF
        with pytest.raises(codec.BadMagic):
            codec.decode_proof(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(bytes.fromhex(GOLDEN_ABSENCE_HEX))
        blob[4] = spec.VERSION + 1
        with pytest.raises(codec.UnsupportedVersion):
            codec.decode_proof(bytes(blob))

    def test_truncation_everywhere(self):
        params, proofs = sample_proofs(4, seed=44)
        blob = codec.encode_proof(params, proofs[0])
        for cut in range(len(blob)):
            with pytest.raises(codec.TruncatedPayload):
                codec.decode_proof(blob[:cut])

    def test_trailing_byte(self):
        params, proofs = sample_proofs(1, seed=45)
        blob = codec.encode_proof(params, proofs[0])
        with pytest.raises(codec.TrailingBytes):
            codec.decode_proof(blob + b"!")

    def test_huge_counts_do_not_allocate(self):
        # count field says 65535 entries but the buffer ends immediately
        blob = spec.proof_header(spec.PRESENCE, 64, 2, 8) + spec.presence_body(range(0xFFFF), ())[:2]
        with pytest.raises(codec.TruncatedPayload):
            codec.decode_proof(blob)

    def test_empty_presence_proof_round_trips(self):
        proof = PresenceProof(chunk_indices=(), chunks=(), multiproof=())
        blob = codec.encode_proof(GOLDEN_PARAMS, proof)
        assert len(blob) == spec.presence_size(GOLDEN_PARAMS.chunk_size, 0, 0)
        assert codec.decode_proof(blob) == (GOLDEN_PARAMS, proof)

    def test_declared_counts_leave_bounded_memory(self):
        # Every declared count is backed by its digests, so each proof decodes.
        # One layout of 65,535 digests alone would keep about 2.3 MB; the
        # largest counts come last, so a cache that drops old layouts keeps them.
        counts = [*range(1, 197), 0x7FFF, 0xBFFF, 0xFFFE, 0xFFFF]
        head = spec.proof_header(spec.ABSENCE, 64, 2, 8)
        tracemalloc.start()
        try:
            for count in counts:
                _, proof = codec.decode_proof(head + spec.absence_body(0, GOLDEN_BITS, [bytes(range(32))] * count))
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
        tracemalloc.start()
        try:
            for size in (MAX_CHUNK_SIZE >> e for e in range(17)):
                most = min(256, MAX_CHUNK_SIZE // size)
                for count in range(max(1, most - 47), most + 1):
                    blob = spec.proof_header(spec.PRESENCE, 8 * size, 2, size)
                    blob += spec.presence_body([0] * count, [bytes(size)] * count)
                    _, proof = codec.decode_proof(blob)
                    assert proof.chunks == (bytes(size),) * count
            del proof, blob
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
        # verify refuses a bool or an int subclass as a chunk index, so the
        # encoder must not write one as the int it equals.
        for index in (True, type("Index", (int,), {})(1)):
            with pytest.raises(ValueError, match="exact ints"):
                codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(index, bytes(8), ()))
            with pytest.raises(ValueError, match="exact ints"):
                codec.encode_proof(GOLDEN_PARAMS, PresenceProof((0, index), (GOLDEN_BITS, bytes(8)), ()))
        # The counts must agree with each other and fit their u16 fields.
        with pytest.raises(ValueError, match="chunk index count and chunk count disagree"):
            codec.encode_proof(GOLDEN_PARAMS, PresenceProof((0, 1), (GOLDEN_BITS,), ()))
        codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(0, bytes(8), (bytes(32),) * 0xFFFF))
        codec.encode_proof(GOLDEN_PARAMS, PresenceProof(tuple(range(0xFFFF)), (bytes(8),) * 0xFFFF, ()))
        with pytest.raises(ValueError, match="too large for u16 count fields"):
            codec.encode_proof(GOLDEN_PARAMS, AbsenceProof(0, bytes(8), (bytes(32),) * 0x10000))
        with pytest.raises(ValueError, match="too large for u16 count fields"):
            codec.encode_proof(GOLDEN_PARAMS, PresenceProof(tuple(range(0x10000)), (bytes(8),) * 0x10000, ()))


@pytest.mark.parametrize("decode", [codec.decode_filter, codec.decode_proof])
def test_input_that_is_not_bytes_like_raises_type_error(decode):
    with pytest.raises(TypeError):
        decode(64)  # not 64 zero bytes, which would fail later as BadMagic


def test_bytes_like_inputs_decode_alike():
    filter_blob = bytes.fromhex(GOLDEN_FILTER_HEX)
    params, proofs = sample_proofs(6, seed=47)
    proof_blobs = [codec.encode_proof(params, proof) for proof in proofs]
    for form in (bytearray, memoryview):
        assert codec.decode_filter(form(filter_blob)) == codec.decode_filter(filter_blob)
        for blob in proof_blobs:
            _, proof = codec.decode_proof(form(blob))
            assert (params, proof) == codec.decode_proof(blob)
            # equal, and of the types a verifier reads: bytes, not slices of the input
            chunks = proof.chunks if isinstance(proof, PresenceProof) else (proof.chunk,)
            assert {type(chunk) for chunk in chunks} == {bytes}
    # bytes are read in place: a load does not pay for a second copy of the filter
    assert codec._buffer(filter_blob) is filter_blob


def headers(header):
    """Four of ``header``'s headers, each with the cut from which its prefixes stop raising TruncatedPayload and its error."""
    whole = header(64, 2, 8)
    return [
        (whole, len(whole) + 1, codec.TruncatedPayload),  # the body is missing
        (bytes([whole[0] ^ 0xFF]) + whole[1:], 4, codec.BadMagic),
        (header(64, 2, 8, spec.VERSION + 1), 5, codec.UnsupportedVersion),
        (header(64, 0, 8), len(whole), codec.InvalidField),
    ]


@pytest.mark.parametrize(
    "decode,header,bad_from,error",
    [
        *((codec.decode_filter, *case) for case in headers(spec.filter_header)),
        *((codec.decode_proof, *case) for case in headers(functools.partial(spec.proof_header, spec.ABSENCE))),
        *((codec.decode_proof, *case) for case in headers(functools.partial(spec.proof_header, spec.PRESENCE))),
    ],
)
def test_every_header_prefix_raises_the_error_of_its_first_bad_field(decode, header, bad_from, error):
    # The fields are checked in order: magic, version, params, then the body.
    # A wrong magic or version is named as soon as its field is whole.
    for cut in range(len(header) + 1):
        with pytest.raises(codec.TruncatedPayload if cut < bad_from else error):
            decode(header[:cut])


@pytest.mark.parametrize(
    "blob,cuts",
    [
        (
            bytes.fromhex(GOLDEN_FILTER_HEX),
            {
                0: "need 4 more bytes at offset 0, have 0",
                3: "need 4 more bytes at offset 0, have 3",
                4: "need 1 more bytes at offset 4, have 0",
                12: "need 16 more bytes at offset 5, have 7",
                21: "need 8 more bytes at offset 21, have 0",
                25: "need 8 more bytes at offset 21, have 4",
                60: "need 32 more bytes at offset 29, have 31",
            },
        ),
        (
            bytes.fromhex(GOLDEN_ABSENCE_HEX),
            {
                5: "need 1 more bytes at offset 5, have 0",
                21: "need 16 more bytes at offset 6, have 15",
                25: "need 8 more bytes at offset 22, have 3",
                33: "need 8 more bytes at offset 30, have 3",
                39: "need 2 more bytes at offset 38, have 1",
            },
        ),
        (
            # count 2 @22 | indices @24 | chunks @40 | digest count @56 | one digest @58
            codec.encode_proof(GOLDEN_PARAMS, PresenceProof((0, 3), (GOLDEN_BITS, bytes(8)), (bytes(32),))),
            {
                23: "need 2 more bytes at offset 22, have 1",
                24: "need 16 more bytes at offset 24, have 0",
                30: "need 16 more bytes at offset 24, have 6",
                45: "need 16 more bytes at offset 40, have 5",
                56: "need 2 more bytes at offset 56, have 0",
                89: "need 32 more bytes at offset 58, have 31",
            },
        ),
    ],
    ids=["filter", "absence", "presence"],
)
def test_truncation_names_the_field_it_cuts(blob, cuts):
    decode = codec.decode_filter if blob.startswith(codec.FILTER_MAGIC) else codec.decode_proof
    for cut, message in cuts.items():
        with pytest.raises(codec.TruncatedPayload) as raised:
            decode(blob[:cut])
        assert str(raised.value) == message
    with pytest.raises(codec.TrailingBytes, match="^1 unexpected trailing bytes$"):
        decode(blob + b"\x00")


@st.composite
def committed_filters(draw, depths=st.integers(min_value=0, max_value=6)):
    """A built tree over 0-40 inserted elements, and the elements."""
    chunk_size = draw(st.sampled_from((1, 8, 32)))
    depth = draw(depths)
    k = draw(st.integers(min_value=1, max_value=20))
    params = BloomParams(m=chunk_size * 8 << depth, k=k, chunk_size=chunk_size)
    inserted = draw(st.lists(st.binary(min_size=1, max_size=12), max_size=40, unique=True))
    filt = BloomFilter(params)
    for element in inserted:
        filt.insert(element)
    return build(filt), inserted


def assert_spec_verdicts(bloom_tree, element, blobs):
    """decode_proof + verify give each blob the reference's verdict kind under the tree's own params."""
    params = bloom_tree.filter.params
    for blob in blobs:
        try:
            kind = verify(bloom_tree.root, params, element, codec.decode_proof(blob)[1]).kind
        except codec.CodecError:
            kind = VerdictKind.INVALID
        reference = spec.spec_verdict(bloom_tree.root, params.m, params.k, params.chunk_size, element, blob)
        assert kind.value == reference, blob.hex()


def member_or_fresh(data, inserted):
    fresh = st.binary(max_size=12)
    return data.draw(st.one_of(st.sampled_from(inserted), fresh) if inserted else fresh)


def reencoded_tampers(data, bloom_tree, proof):
    """Proof files that re-encode the honest proof whole.

    A bit flip never changes the proof kind or the byte layout. These do:
    its chunk indices swapped or shifted, the proof re-framed as the other
    kind, or one echoed param changed.
    """
    params = bloom_tree.filter.params
    if isinstance(proof, PresenceProof):
        chunk_indices = list(proof.chunk_indices)
        first = chunk_indices[0]
        shift = 1 if first == 0 else data.draw(st.sampled_from((-1, 1)))
        tampered = [
            PresenceProof(tuple(c + shift for c in chunk_indices), proof.chunks, proof.multiproof),
            AbsenceProof(first, proof.chunks[0], tuple(prove_multi(bloom_tree.tree, [first]))),
        ]
        if len(chunk_indices) > 1:
            positions = st.sampled_from(range(len(chunk_indices)))
            i, j = data.draw(st.lists(positions, min_size=2, max_size=2, unique=True))
            chunk_indices[i], chunk_indices[j] = chunk_indices[j], chunk_indices[i]
            tampered.append(PresenceProof(tuple(chunk_indices), proof.chunks, proof.multiproof))
    else:
        shift = 1 if proof.chunk_index == 0 else data.draw(st.sampled_from((-1, 1)))
        tampered = [
            AbsenceProof(proof.chunk_index + shift, proof.chunk, proof.path),
            PresenceProof((proof.chunk_index,), (proof.chunk,), proof.path),
        ]
    blobs = [codec.encode_proof(params, forged) for forged in tampered]

    # the honest proof under a header that echoes one param changed
    echoed = [params.m, params.k, params.chunk_size]
    field = data.draw(st.integers(min_value=0, max_value=2))
    value = echoed[field]
    echoed[field] = data.draw(st.sampled_from((value // 2, value - 1, value + 1, value * 2)))
    kind = spec.PRESENCE if isinstance(proof, PresenceProof) else spec.ABSENCE
    blobs.append(spec.proof_header(kind, *echoed) + codec.encode_proof(params, proof)[spec.PROOF_HEADER :])
    return blobs


def byte_tampers(data, honest):
    """The honest proof file with a byte appended, with each of up to 12 bits flipped, and cut short."""
    flips = data.draw(st.lists(st.integers(min_value=0, max_value=8 * len(honest) - 1), max_size=12))
    cuts = data.draw(st.lists(st.integers(min_value=0, max_value=len(honest) - 1), max_size=6))
    tampered = [honest + bytes([data.draw(st.integers(min_value=0, max_value=255))])]
    for bit in flips:
        blob = bytearray(honest)
        blob[bit >> 3] ^= 1 << (bit & 7)
        tampered.append(bytes(blob))
    return tampered + [honest[:length] for length in cuts]


class TestVerdictsOnProofBytes:
    @settings(max_examples=150, deadline=None)
    @given(committed=committed_filters(), data=st.data())
    def test_tampered_bytes_get_the_spec_verdict(self, committed, data):
        bloom_tree, inserted = committed
        params = bloom_tree.filter.params
        element = member_or_fresh(data, inserted)
        honest = codec.encode_proof(params, prove(bloom_tree, element))
        present = spec.contains(bytes(bloom_tree.filter.bits), params.m, params.k, element)
        expected = spec.MAYBE_PRESENT if present else spec.DEFINITELY_ABSENT
        assert spec.spec_verdict(bloom_tree.root, params.m, params.k, params.chunk_size, element, honest) == expected

        assert_spec_verdicts(bloom_tree, element, [honest, *byte_tampers(data, honest)])

    @settings(max_examples=150, deadline=None)
    @given(committed=committed_filters(), data=st.data())
    def test_reencoded_proofs_get_the_spec_verdict(self, committed, data):
        # The verdict on a re-encoded proof is still taken under the trusted params.
        bloom_tree, inserted = committed
        params = bloom_tree.filter.params
        element = member_or_fresh(data, inserted)
        proof = prove(bloom_tree, element)
        assert_spec_verdicts(bloom_tree, element, reencoded_tampers(data, bloom_tree, proof))

        root = bytearray(bloom_tree.root)
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(root) - 1))
        root[bit >> 3] ^= 1 << (bit & 7)
        assert verify(bytes(root), params, element, proof).kind is VerdictKind.INVALID


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_verdicts_do_not_depend_on_what_was_verified_before(self, data):
        # One process keeps the top levels of the tree it verified last. It
        # verifies honest and tampered proofs of two trees of one depth and a
        # third of another, in a drawn order; depth 14 keeps all but its leaves.
        depths = data.draw(st.lists(st.sampled_from((0, 2, 6, 14)), min_size=2, max_size=2, unique=True))
        queries = []
        for depth in (depths[0], depths[0], depths[1]):
            bloom_tree, inserted = data.draw(committed_filters(st.just(depth)))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                element = member_or_fresh(data, inserted)
                proof = prove(bloom_tree, element)
                honest = codec.encode_proof(bloom_tree.filter.params, proof)
                blobs = [honest, honest, *byte_tampers(data, honest), *reencoded_tampers(data, bloom_tree, proof)]
                queries += [(bloom_tree, element, blob) for blob in blobs]
        for bloom_tree, element, blob in data.draw(st.permutations(queries)):
            assert_spec_verdicts(bloom_tree, element, [blob])


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
