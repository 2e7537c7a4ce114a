import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from bloomtree import codec
from bloomtree.bloom import (
    MAX_CHUNK_SIZE,
    MAX_K,
    BloomFilter,
    BloomParams,
    derive_params,
    fpr,
    indices,
    optimal_bit_count,
)
from bloomtree.experiment import ExperimentConfig

# Geometry small enough for exhaustive-ish property runs.
SMALL_PARAMS = BloomParams(m=1024, k=5, chunk_size=8)

elements = st.binary(max_size=64)


def with_bits(bits: bytes, positions: list[int]) -> bytearray:
    """A copy of ``bits`` with every bit in ``positions`` set."""
    out = bytearray(bits)
    for i in positions:
        out[i >> 3] |= 1 << (i & 7)
    return out


@st.composite
def geometries(draw, chunk_sizes, max_bits=2**64 - 1):
    """BloomParams over the given chunk sizes, any valid chunk count up to max_bits bits, k up to MAX_K."""
    chunk_size = draw(chunk_sizes)
    # the largest depth with (chunk_size * 8) << depth <= max_bits
    depth = draw(st.integers(min_value=0, max_value=(max_bits // (chunk_size * 8)).bit_length() - 1))
    k = draw(st.one_of(st.integers(min_value=1, max_value=64), st.just(MAX_K)))
    return BloomParams(m=chunk_size * 8 << depth, k=k, chunk_size=chunk_size)


class TestDeriveParams:
    def test_reference_sizing(self):
        # ceil(10000 * ln(100) / ln(2)^2) = 95851, padded to 512 chunks of 256 bits
        params = derive_params(10000, 0.01, 32)
        assert params.m == 131072
        assert params.k == 9
        assert params.chunk_count == 512
        assert math.ceil(10000 * -math.log(0.01) / math.log(2) ** 2) == 95851
        assert optimal_bit_count(10000, 0.01) == 95851

    @pytest.mark.parametrize("n, p", [(0, 0.01), (10, 0.0), (10, 1.0)])
    def test_optimal_bit_count_rejects_bad_input(self, n, p):
        with pytest.raises(ValueError):
            optimal_bit_count(n, p)

    def test_tiny_sizing(self):
        # m_raw = ceil(1/ln 2) = 2, padded to one 8-bit chunk, k = round(8 ln 2) = 6
        params = derive_params(1, 0.5, 1)
        assert params.m == 8
        assert params.k == 6
        assert params.chunk_count == 1

    def test_k_is_at_least_one(self):
        # m = 2048 for 1000 elements gives k = round(1.42) = 1; m = 32 gives round(0.02) = 0, raised to 1
        assert derive_params(1000, 0.5, 1).k == 1
        assert derive_params(1000, 0.99, 1).k == 1

    def test_single_chunk_clamp(self):
        # chunk already larger than the raw requirement: exactly one chunk
        params = derive_params(3, 0.5, 64)
        assert params.chunk_count == 1
        assert params.m == 64 * 8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.5, float("nan")])
    def test_rejects_bad_fpr(self, p):
        # by the interval rule, not by the math domain error log(0) would raise
        with pytest.raises(ValueError, match=r"target false-positive rate must be in \(0, 1\)"):
            derive_params(100, p, 32)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            derive_params(0, 0.01, 32)

    @pytest.mark.parametrize("chunk_size", [0, -1, 65537])
    def test_rejects_bad_chunk_size(self, chunk_size):
        with pytest.raises(ValueError):
            derive_params(100, 0.01, chunk_size)

    def test_inputs_too_large_for_a_float_raise_value_error(self):
        # Each overflows a float on the way: n * -ln(p) in optimal_bit_count,
        # m / n in the choice of k. ValueError, not OverflowError, as for any
        # other bad input; the chunk size is refused by BloomParams' own check.
        with pytest.raises(ValueError, match="optimal bit count overflows a float"):
            derive_params(10**400, 0.01, 32)
        with pytest.raises(ValueError, match="chunk_size must be a power of two"):
            derive_params(1, 0.5, 2**1100)

    @given(
        n=st.integers(min_value=1, max_value=10**6),
        p=st.floats(min_value=1e-9, max_value=0.99),
        chunk_size=st.sampled_from([1, 8, 32, 64, 4096]),
    )
    def test_invariants_hold(self, n, p, chunk_size):
        params = derive_params(n, p, chunk_size)
        count = params.chunk_count
        assert count & (count - 1) == 0
        assert params.m >= math.ceil(n * -math.log(p) / math.log(2) ** 2)
        assert params.k >= 1

    @given(
        n=st.integers(min_value=1, max_value=10**12),
        p=st.floats(min_value=1e-9, max_value=0.99),
        chunk_size=st.sampled_from([1 << e for e in range(17)]),
    )
    def test_m_is_the_smallest_power_of_two_multiple_of_the_chunk_bits(self, n, p, chunk_size):
        m_raw = optimal_bit_count(n, p)
        bits = chunk_size * 8
        m = derive_params(n, p, chunk_size).m
        count, remainder = divmod(m, bits)
        assert remainder == 0 and count & (count - 1) == 0
        assert m >= m_raw
        assert count == 1 or m // 2 < m_raw  # half of m would be too small


class TestParamsValidation:
    @pytest.mark.parametrize("chunk_size", [3, 24, 40, 1000, MAX_CHUNK_SIZE - 1])
    def test_rejects_chunk_size_that_is_not_a_power_of_two(self, chunk_size):
        # m is a power of two that holds one chunk, so only the chunk size is wrong.
        m = 1 << (chunk_size * 8 - 1).bit_length()
        with pytest.raises(ValueError):
            BloomParams(m=m, k=1, chunk_size=chunk_size)
        with pytest.raises(ValueError):
            derive_params(100, 0.01, chunk_size)
        with pytest.raises(codec.InvalidField):
            codec.decode_filter(spec.filter_header(m, 1, chunk_size) + bytes(m // 8 + 32))
        proof = spec.absence_body(0, bytes(chunk_size))
        with pytest.raises(codec.InvalidField):
            codec.decode_proof(spec.proof_header(spec.ABSENCE, m, 1, chunk_size) + proof)

    def test_rejects_non_power_of_two_chunk_count(self):
        with pytest.raises(ValueError):
            BloomParams(m=24, k=1, chunk_size=1)  # 3 chunks

    def test_rejects_m_below_one_chunk(self):
        with pytest.raises(ValueError):
            BloomParams(m=8, k=1, chunk_size=32)

    def test_rejects_unaligned_m(self):
        with pytest.raises(ValueError):
            BloomParams(m=260, k=1, chunk_size=32)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            BloomParams(m=256, k=0, chunk_size=32)

    def test_k_is_bounded_by_max_k(self):
        assert BloomParams(m=256, k=MAX_K, chunk_size=32).k == MAX_K
        for k in (MAX_K + 1, (1 << 32) - 1):
            with pytest.raises(ValueError):
                BloomParams(m=256, k=k, chunk_size=32)

    class Count(int):
        pass

    @pytest.mark.parametrize("field", ["m", "k", "chunk_size"])
    @pytest.mark.parametrize("kind", [float, bool, Count], ids=["float", "bool", "int-subclass"])
    def test_geometry_must_be_exact_ints(self, field, kind):
        # an int-valued float, True or an int subclass is refused in every field, never coerced
        valid = {"m": 512, "k": 2, "chunk_size": 8}
        with pytest.raises(ValueError, match="m, k, chunk_size must be ints"):
            BloomParams(**{**valid, field: kind(valid[field])})

    def test_derive_params_clamps_k(self):
        # one element in the largest single chunk: the unclamped optimum is ~363,000
        params = derive_params(1, 0.5, 65536)
        assert params.chunk_count == 1
        assert params.k == MAX_K

    def test_depth_and_byte_length(self):
        params = BloomParams(m=2048, k=3, chunk_size=32)
        assert params.chunk_count == 8
        assert params.depth == 3
        assert params.byte_length == 256


class TestFpr:
    def test_saturated_single_bit(self):
        assert fpr(1, 1, 1) == 1.0

    def test_two_bits(self):
        assert fpr(2, 1, 1) == 0.5

    def test_reference_value(self):
        # exact oracle: (1 - (9/10)^10)^2 evaluated in rational arithmetic
        exact = float((1 - Fraction(9, 10) ** 10) ** 2)
        assert fpr(10, 2, 5) == pytest.approx(exact, abs=1e-12)

    def test_zero_inserts(self):
        assert fpr(1024, 7, 0) == 0.0
        # no insert has set the single bit, so the m == 1 rule must not apply
        assert fpr(1, 3, 0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fpr(0, 1, 1)
        with pytest.raises(ValueError):
            fpr(10, 0, 1)
        with pytest.raises(ValueError):
            fpr(10, 1, -1)
        # Values beyond a float's range are bad arguments too, not an OverflowError.
        for m, k, n in ((2**20, 3, 10**400), (10**400, 3, 5), (2**20, 10**400, 5)):
            with pytest.raises(ValueError, match="too large to evaluate in floats"):
                fpr(m, k, n)

    def test_monotone_in_n(self):
        values = [fpr(4096, 4, n) for n in (0, 10, 100, 1000, 10000)]
        assert values == sorted(values)


# str() of an int past 4,300 digits raises ValueError itself, so a message that
# formatted such a value raw would never state its rule.
HUGE = 10**5000


@pytest.mark.parametrize(
    ("call", "sign", "rule"),
    [
        (lambda v: BloomParams(m=256, k=1, chunk_size=v), 1, "chunk_size must be a power of two in [1, 65536]"),
        (lambda v: BloomParams(m=256, k=v, chunk_size=32), 1, f"k must be in [1, {MAX_K}]"),
        (lambda v: BloomParams(m=v, k=1, chunk_size=32), 1, "m must be a power of two in [256, 2^64)"),
        (lambda v: derive_params(10, 0.1, v), 1, "chunk_size must be a power of two in [1, 65536]"),
        (lambda v: optimal_bit_count(v, 0.1), -1, "expected element count must be >= 1"),
        (lambda v: optimal_bit_count(10, v), 1, "target false-positive rate must be in (0, 1)"),
        (lambda v: fpr(v, 1, 1), -1, "m must be >= 1"),
        (lambda v: fpr(64, v, 1), -1, "k must be >= 1"),
        (lambda v: fpr(64, 1, v), -1, "n must be >= 0"),
        (lambda v: ExperimentConfig(sample_size=v), -1, "sample_size must be >= 1"),
    ],
    ids=["params-chunk_size", "params-k", "params-m", "derive_params", "optimal_n", "optimal_p",
         "fpr-m", "fpr-k", "fpr-n", "experiment-sample_size"],
)
def test_messages_state_their_rule_for_any_int(call, sign, rule):
    # Below 2^64 a value prints in decimal, as it always has; from 2^64 up, as its bit length.
    article = "a negative" if sign < 0 else "an"
    for value, shown in ((2**64 - 1, str(sign * (2**64 - 1))), (2**64, f"{article} int of 65 bits"),
                         (HUGE, f"{article} int of 16610 bits")):
        with pytest.raises(ValueError) as raised:
            call(sign * value)
        assert str(raised.value) == f"{rule}, got {shown}"


class TestIndices:
    def test_empty_string_first_index(self):
        # h1 = little-endian u64 of sha256("")[0:8] = 0x141cfc9842c4b0e3; mod 1024 = 227
        params = BloomParams(m=1024, k=3, chunk_size=1)
        assert indices(b"", params)[0] == 227

    def test_k_one_is_h1_mod_m(self):
        # h1 of sha256("some element"), mod 2048
        assert indices(b"some element", BloomParams(m=2048, k=1, chunk_size=8)) == [956]

    def test_deterministic(self):
        assert indices(b"x", SMALL_PARAMS) == indices(b"x", SMALL_PARAMS)

    @given(element=elements)
    def test_length_and_range(self, element):
        out = indices(element, SMALL_PARAMS)
        assert len(out) == SMALL_PARAMS.k
        assert all(0 <= i < SMALL_PARAMS.m for i in out)

    # the examples pin a mid-size filter, the largest valid m (2^63) with k = MAX_K,
    # and one 8-bit filter whose 40 indices must repeat, in derivation order
    @example(element=b"formula check", params=BloomParams(m=4096, k=10, chunk_size=8))
    @example(element=b"formula check", params=BloomParams(m=2**63, k=MAX_K, chunk_size=MAX_CHUNK_SIZE))
    @example(element=b"dup", params=BloomParams(m=8, k=40, chunk_size=1))
    @given(element=elements, params=geometries(st.sampled_from([1, 8, 32, 64, 1024, MAX_CHUNK_SIZE])))
    def test_matches_double_hash_formula(self, element, params):
        assert indices(element, params) == spec.indices(element, params.m, params.k)



class TestFilter:
    def test_starts_all_zero(self):
        filt = BloomFilter(SMALL_PARAMS)
        assert bytes(filt.bits) == bytes(SMALL_PARAMS.byte_length)

    def test_rejects_wrong_backing_length(self):
        with pytest.raises(ValueError):
            BloomFilter(SMALL_PARAMS, bytearray(3))

    @pytest.mark.parametrize("bits", [512, [0] * 512], ids=["int", "list"])
    def test_backing_array_must_be_bytes_like(self, bits):
        # bytearray() alone would turn either into 512 zero bytes: an empty filter.
        with pytest.raises(TypeError):
            BloomFilter(BloomParams(m=4096, k=3, chunk_size=8), bits)

    def test_bytes_like_backing_arrays_give_equal_filters(self):
        params = BloomParams(m=4096, k=3, chunk_size=8)
        data = random.Random(5).randbytes(params.byte_length)
        shared = BloomFilter(params, data)
        assert shared.bits is data
        for other in (bytearray(data), memoryview(data)):
            copied = BloomFilter(params, other)
            assert type(copied.bits) is bytearray and copied.bits is not other
            assert copied == shared

    def test_insert_sets_at_most_k_bits(self):
        filt = BloomFilter(SMALL_PARAMS)
        filt.insert(b"one element")
        popcount = sum(bin(b).count("1") for b in filt.bits)
        assert 1 <= popcount <= SMALL_PARAMS.k

    def test_insert_is_idempotent(self):
        once = BloomFilter(SMALL_PARAMS)
        once.insert(b"again")
        twice = BloomFilter(SMALL_PARAMS)
        twice.insert(b"again")
        twice.insert(b"again")
        assert once.bits == twice.bits

    def test_insert_order_does_not_matter(self):
        ab = BloomFilter(SMALL_PARAMS)
        ab.insert(b"a")
        ab.insert(b"b")
        ba = BloomFilter(SMALL_PARAMS)
        ba.insert(b"b")
        ba.insert(b"a")
        assert ab.bits == ba.bits

    def test_bit_addressing_is_lsb_first(self):
        # bit i lives in byte i // 8 at position i % 8
        params = BloomParams(m=64, k=1, chunk_size=8)
        for element in (b"a", b"b", b"c", b"d"):
            (i,) = indices(element, params)
            filt = BloomFilter(params)
            filt.insert(element)
            expected = bytearray(8)
            expected[i // 8] = 1 << (i % 8)
            assert filt.bits == expected

    def test_fields_cannot_be_reassigned(self):
        # a reassigned backing array would skip the checks __post_init__ makes
        params = BloomParams(m=4096, k=3, chunk_size=8)
        filt = BloomFilter(params)
        for name, value in (("bits", 512), ("bits", bytes(512)), ("params", BloomParams(m=8192, k=3, chunk_size=8))):
            with pytest.raises(AttributeError):
                setattr(filt, name, value)
        assert filt.params is params and filt.bits == bytes(512)
        filt.insert(b"still writable in place")
        assert spec.contains(filt.bits, params.m, params.k, b"still writable in place")

    @pytest.mark.parametrize("index", [-1, -2, 4, 5, pytest.param(HUGE, id="huge")])
    def test_chunk_out_of_range_raises(self, index):
        filt = BloomFilter(BloomParams(m=4 * 16, k=1, chunk_size=2), bytearray(range(8)))
        with pytest.raises(IndexError):
            filt.chunk(index)

    @given(items=st.lists(elements, max_size=40))
    def test_no_false_negatives(self, items):
        filt = BloomFilter(SMALL_PARAMS)
        for item in items:
            filt.insert(item)
        assert all(spec.contains(filt.bits, SMALL_PARAMS.m, SMALL_PARAMS.k, item) for item in items)

    @given(items=st.lists(elements, min_size=1, max_size=40))
    def test_inserts_are_monotone(self, items):
        filt = BloomFilter(SMALL_PARAMS)
        previous = bytes(filt.bits)
        for item in items:
            filt.insert(item)
            current = bytes(filt.bits)
            assert all(p & ~c == 0 for p, c in zip(previous, current))
            previous = current


class TestInsert:
    """insert against the reference formula, bit for bit."""

    # Filters small enough to allocate: at most 2^16 bits. The examples pin an
    # 8-bit filter whose 40 indices repeat, the largest filters of chunk size
    # 32 and 2, and k = MAX_K on a 2,048-bit filter of 16-byte chunks.
    @example(element=b"dup", params=BloomParams(m=8, k=40, chunk_size=1), seed=0)
    @example(element=b"wide", params=BloomParams(m=2**16, k=9, chunk_size=32), seed=1)
    @example(element=b"wide", params=BloomParams(m=2**16, k=9, chunk_size=2), seed=2)
    @example(element=b"many", params=BloomParams(m=128 << 4, k=MAX_K, chunk_size=16), seed=3)
    @given(
        element=elements,
        params=geometries(st.sampled_from([1, 8, 32, 2, 16]), max_bits=2**16),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_sets_exactly_the_reference_bits(self, element, params, seed):
        expected = spec.indices(element, params.m, params.k)
        empty = BloomFilter(params)
        empty.insert(element)
        assert empty.bits == with_bits(bytes(params.byte_length), expected)

        prefilled = random.Random(seed).randbytes(params.byte_length)
        filt = BloomFilter(params, bytearray(prefilled))
        filt.insert(element)
        assert filt.bits == with_bits(prefilled, expected)

    @pytest.mark.parametrize("element", ["text", 7, None])
    @pytest.mark.parametrize("params", [SMALL_PARAMS, BloomParams(m=8, k=MAX_K, chunk_size=1)])
    def test_non_bytes_element_raises_and_sets_nothing(self, element, params):
        prefilled = random.Random(17).randbytes(params.byte_length)
        filt = BloomFilter(params, bytearray(prefilled))
        with pytest.raises(TypeError):
            filt.insert(element)
        assert filt.bits == prefilled


@settings(deadline=None, max_examples=2)
@given(p=st.sampled_from([0.1, 0.02]))
def test_empirical_rate_tracks_prediction(p):
    """Measured false-positive fraction stays near the analytic rate.

    Tolerance is the looser of +/-50% relative and +/-0.005 absolute; padding
    means the realized rate sits at or below the requested target.
    """
    n = 1000
    params = derive_params(n, p, 32)
    rng = random.Random(f"fpr-empirical-{p}")
    inserted = {rng.randbytes(16) for _ in range(n)}
    while len(inserted) < n:
        inserted.add(rng.randbytes(16))
    filt = BloomFilter(params)
    for element in inserted:
        filt.insert(element)

    probes = 100_000
    hits = 0
    for _ in range(probes):
        probe = rng.randbytes(17)  # disjoint length, never inserted
        if spec.contains(filt.bits, params.m, params.k, probe):
            hits += 1
    measured = hits / probes
    predicted = fpr(params.m, params.k, n)
    tolerance = max(0.5 * predicted, 0.005)
    assert abs(measured - predicted) <= tolerance
    assert measured <= p  # padding only ever helps
