"""Core Bloom filter: sizing, double-hashed indexing and insert.

Chunk sizes and bit counts are powers of two, so the bit array is always a
power-of-two number of fixed-size chunks, which a Merkle tree can commit to
without any special padding leaves (see :mod:`bloomtree.tree`). Padding the
bit count up to a power of two only ever lowers the realized false-positive
rate below the requested target.
"""

import hashlib
import math
import operator
import struct

MIN_CHUNK_SIZE = 1
MAX_CHUNK_SIZE = 65536
# Upper bound on k. Far above any useful filter (the optimum is about
# 0.7 * bits per element), and small enough that an element's k indices,
# derived by every insert, prove and verify, stay cheap even when k comes
# from an untrusted file header.
MAX_K = 1 << 16

_LN2 = math.log(2)
_H1_H2 = struct.Struct("<QQ")


def _shown(value) -> str:
    """str(value) for an error message, but the bit length of an int of 2^64 or more: str() fails past 4,300 digits."""
    if isinstance(value, int) and abs(value) >> 64:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return str(value)


class _Frozen:
    """Base of the library's records: ==, hash and repr over the fields in __slots__, none of which can be set.

    A subclass lists its fields in __slots__ and sets them in __init__ with
    object.__setattr__. copy and pickle rebuild a record through its
    constructor, as their default restore would set the slots.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # One C-level read of the fields for == and hash: a tuple, or the one field itself.
        cls._key = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BloomParams(_Frozen):
    """Filter geometry shared by prover and verifier.

    m is the bit count, k in [1, MAX_K] the number of hash indices per
    element, and chunk_size the number of bytes per committed chunk, a power
    of two in [MIN_CHUNK_SIZE, MAX_CHUNK_SIZE]. m is a power of two of at
    least chunk_size * 8 bits, so the chunk count m / (chunk_size * 8) is a
    power of two too.
    """

    __slots__ = ("m", "k", "chunk_size")

    def __init__(self, m: int, k: int, chunk_size: int) -> None:
        size = chunk_size
        if not type(m) is type(k) is type(size) is int:  # a bool, a float or an int subclass is refused
            raise ValueError(f"m, k, chunk_size must be ints, got {', '.join(type(v).__name__ for v in (m, k, size))}")
        if not MIN_CHUNK_SIZE <= size <= MAX_CHUNK_SIZE or size & (size - 1):
            raise ValueError(
                f"chunk_size must be a power of two in [{MIN_CHUNK_SIZE}, {MAX_CHUNK_SIZE}], got {_shown(size)}"
            )
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k must be in [1, {MAX_K}], got {_shown(k)}")
        if not size * 8 <= m < (1 << 64) or m & (m - 1):
            raise ValueError(f"m must be a power of two in [{size * 8}, 2^64), got {_shown(m)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "chunk_size", size)

    @property
    def chunk_bits(self) -> int:
        return self.chunk_size * 8

    @property
    def chunk_count(self) -> int:
        return self.m // self.chunk_bits

    @property
    def depth(self) -> int:
        """Height of the Merkle tree over the chunks, log2(chunk_count)."""
        return self.chunk_count.bit_length() - 1

    @property
    def byte_length(self) -> int:
        return self.m // 8


def optimal_bit_count(n: int, p: float) -> int:
    """Unpadded optimal bit count ceil(n * -ln(p) / ln(2)^2) for ``n`` elements at rate ``p``."""
    if n < 1:
        raise ValueError(f"expected element count must be >= 1, got {_shown(n)}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"target false-positive rate must be in (0, 1), got {_shown(p)}")
    try:
        return math.ceil(n * -math.log(p) / _LN2**2)
    except OverflowError:
        raise ValueError("expected element count is too large: the optimal bit count overflows a float") from None


def derive_params(n: int, p: float, chunk_size: int) -> BloomParams:
    """Size a filter for ``n`` expected elements at target false-positive rate ``p``.

    m is the raw optimal bit count (:func:`optimal_bit_count`) rounded up to
    the next power of two, and at least one chunk: the smallest power-of-two
    multiple of the chunk bit width that holds the raw count. k is chosen
    near-optimal for the padded size: max(1, round(m/n * ln 2)), clamped to
    MAX_K. BloomParams checks the chunk size.
    """
    m = max(chunk_size * 8, 1 << (optimal_bit_count(n, p) - 1).bit_length())
    # k is MAX_K from 2 * MAX_K bits per element up: the cap changes no k and keeps m / n a float.
    k = min(MAX_K, max(1, round(min(m, 2 * MAX_K * n) / n * _LN2)))
    return BloomParams(m=m, k=k, chunk_size=chunk_size)


def fpr(m: int, k: int, n: int) -> float:
    """Analytic false-positive rate (1 - (1 - 1/m)^(k*n))^k.

    The inner power is evaluated as exp(k*n*ln(1 - 1/m)) to stay accurate
    for large m. A value beyond a float's range raises ValueError.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {_shown(m)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {_shown(k)}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {_shown(n)}")
    if n == 0:
        return 0.0
    if m == 1:
        return 1.0  # the single bit is set by any insert
    try:
        return (1.0 - math.exp(k * n * math.log1p(-1.0 / m))) ** k
    except OverflowError:
        raise ValueError("m, k and n are too large to evaluate in floats") from None


def indices(element: bytes, params: BloomParams) -> list[int]:
    """The k bit positions an element maps to, in derivation order.

    One SHA-256 digest of the element seeds a double-hashing scheme:
    idx_i = (h1 + i*h2) mod 2^64 mod m, with h1 the little-endian u64 from
    digest bytes 0..8 and h2 the one from bytes 8..16 forced odd. Forcing h2
    odd avoids the degenerate case where all k indices coincide. Duplicates
    are possible and preserved.

    m is a power of two, so it divides 2^64 and the same indices come from
    (h1 mod m + i*(h2 mod m)) mod m, which stays in small ints. h2 is odd
    and m >= 8, so the step h2 mod m is at least 1.
    """
    h1, h2 = _H1_H2.unpack_from(hashlib.sha256(element).digest())
    low = params.m - 1
    start = h1 & low
    step = (h2 | 1) & low
    return [x & low for x in range(start, start + params.k * step, step)]


class BloomFilter(_Frozen):
    """A bit array of exactly ``params.m`` bits plus its geometry.

    Bit i lives in byte i // 8 at position i % 8, least significant bit
    first. Build is single-writer; once the owner stops inserting, the
    filter is safe for unlimited concurrent readers.

    ``bits`` given as ``bytes`` are kept as they are, which makes the filter
    read-only (insert raises TypeError); any other bytes-like object is copied
    into a ``bytearray`` the filter owns, and an int or a list raises TypeError.
    The fields are frozen, so ``bits`` stays the buffer that was checked;
    insert sets bits inside a ``bytearray``.
    """

    __slots__ = ("params", "bits")

    def __init__(self, params: BloomParams, bits: bytearray | bytes | None = None) -> None:
        if bits is None:
            bits = bytearray(params.byte_length)
        elif type(bits) is not bytes:
            bits = bytearray(memoryview(bits))
        if len(bits) != params.byte_length:
            raise ValueError(f"backing array must be exactly {params.byte_length} bytes, got {len(bits)}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "bits", bits)

    def insert(self, element: bytes) -> None:
        """Set all k bits the element maps to: the bits of :func:`indices`.

        This walks the same small-int progression as :func:`indices`, h1 mod m
        stepping by h2 mod m, and sets each bit as it reaches it, with no index
        list. An element that is not bytes-like raises TypeError before any bit
        is set.
        """
        bits = self.bits
        params = self.params
        h1, h2 = _H1_H2.unpack_from(hashlib.sha256(element).digest())
        low = params.m - 1
        start = h1 & low
        step = (h2 | 1) & low
        for x in range(start, start + params.k * step, step):
            i = x & low
            bits[i >> 3] |= 1 << (i & 7)

    def chunk(self, chunk_index: int) -> bytes:
        """Raw bytes of one chunk of the bit array."""
        if not 0 <= chunk_index < self.params.chunk_count:
            raise IndexError(f"chunk {_shown(chunk_index)} out of range for {self.params.chunk_count} chunks")
        size = self.params.chunk_size
        start = chunk_index * size
        return bytes(self.bits[start : start + size])
