"""Bit-exact serialization for filters and proofs.

These byte layouts are the interchange contract; every integer is
little-endian and fixed width.

Filter file::

    "BLTR" | version u8 | m u64 | k u32 | chunk_size u32 | filter bytes (m/8) | root (32)

Proof file::

    "BLPF" | version u8 | kind u8 | m u64 | k u32 | chunk_size u32 | body

    kind 0x01 (presence) body:
        chunk count c u16 | c * chunk_index u64 | c * chunk bytes | hash count h u16 | h * 32-byte digest
    kind 0x02 (absence) body:
        chunk_index u64 | chunk bytes | path length u16 | 32-byte digests

The params fields must form a valid BloomParams: chunk_size a power of two
from 1 to 65536, m a power of two of at least chunk_size * 8 bits, and k in
[1, MAX_K]. Any other header raises InvalidField.

Filter decoding rebuilds the Merkle root from the filter bytes and rejects
the file if it disagrees with the stored root. Proofs echo the filter
parameters so a verifier holding only (root, params) can cross-check them.
Trailing bytes are always an error, and every length field is validated
against the remaining input before anything is sliced out.
"""

import struct

from .bloom import BloomFilter, BloomParams
from .merkle import DIGEST_SIZE, _split
from .tree import AbsenceProof, BloomTree, PresenceProof, build

FILTER_MAGIC = b"BLTR"
PROOF_MAGIC = b"BLPF"
VERSION = 1

PRESENCE_KIND = 0x01
ABSENCE_KIND = 0x02

Proof = PresenceProof | AbsenceProof

_PARAMS = struct.Struct("<QII")  # m u64 | k u32 | chunk_size u32
_COUNT = struct.Struct("<H")
_INDEX = struct.Struct("<Q")


class CodecError(Exception):
    """Base class for every decode failure."""


class BadMagic(CodecError):
    pass


class UnsupportedVersion(CodecError):
    pass


class TruncatedPayload(CodecError):
    pass


class TrailingBytes(CodecError):
    pass


class RootMismatch(CodecError):
    pass


class InvalidField(CodecError):
    """A field decodes but violates the format's own constraints."""


class _Reader:
    """Cursor over ``bytes``, read in place, or a copy of any other bytes-like input; reads bounds-check first."""

    def __init__(self, data: bytes):
        self.data = data if type(data) is bytes else bytes(memoryview(data))
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise TruncatedPayload(
                f"need {count} more bytes at offset {self.offset}, have {len(self.data) - self.offset}"
            )
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def read(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise TrailingBytes(f"{len(self.data) - self.offset} unexpected trailing bytes")


def encode_filter(bloom_tree: BloomTree) -> bytes:
    """Serialize a built filter together with its committed root."""
    params = bloom_tree.filter.params
    return b"".join(
        (
            FILTER_MAGIC,
            bytes([VERSION]),
            _pack_params(params),
            bytes(bloom_tree.filter.bits),
            bloom_tree.root,
        )
    )


def decode_filter(data: bytes) -> BloomTree:
    """Parse a filter file, rebuild its tree, and check the stored root."""
    reader = _Reader(data)
    _expect_header(reader, FILTER_MAGIC)
    params = _unpack_params(reader)
    filter_bytes = reader.take(params.byte_length)
    stored_root = reader.take(DIGEST_SIZE)
    reader.finish()
    bloom_tree = build(BloomFilter(params, filter_bytes))  # bytes: shared, not copied
    if bloom_tree.root != stored_root:
        raise RootMismatch("stored root does not match the root rebuilt from the filter bytes")
    return bloom_tree


def encode_proof(params: BloomParams, proof: Proof) -> bytes:
    """Serialize a presence or absence proof with the params echoed."""
    # Each kind differs only in the fields ahead of its chunks: the chunk count
    # and chunk indices of a presence proof, the one chunk index of an absence proof.
    if isinstance(proof, PresenceProof):
        kind, chunks, digests = PRESENCE_KIND, proof.chunks, proof.multiproof
        count = len(proof.chunk_indices)
        if count != len(chunks):
            raise ValueError("chunk index count and chunk count disagree")
        layout, fields = f"<H{count}Q", (count, *proof.chunk_indices)
    elif isinstance(proof, AbsenceProof):
        kind, chunks, digests = ABSENCE_KIND, (proof.chunk,), proof.path
        layout, fields = "<Q", (proof.chunk_index,)
    else:
        raise TypeError(f"cannot encode proof of type {type(proof).__name__}")
    if len(chunks) > 0xFFFF or len(digests) > 0xFFFF:
        raise ValueError("proof too large for u16 count fields")
    if not set(map(len, chunks)) <= {params.chunk_size}:
        raise ValueError(f"chunks must be exactly {params.chunk_size} bytes")
    if not set(map(len, digests)) <= {DIGEST_SIZE}:
        raise ValueError("digests must be exactly 32 bytes")
    try:
        head = struct.pack(layout, *fields)
    except struct.error:
        raise ValueError("chunk indices must be integers in [0, 2**64)") from None
    return b"".join(
        (
            PROOF_MAGIC,
            bytes([VERSION, kind]),
            _pack_params(params),
            head,
            *chunks,
            _COUNT.pack(len(digests)),
            *digests,
        )
    )


def decode_proof(data: bytes) -> tuple[BloomParams, Proof]:
    """Parse a proof file; returns the echoed params and the proof payload."""
    reader = _Reader(data)
    _expect_header(reader, PROOF_MAGIC)
    kind = reader.take(1)[0]
    params = _unpack_params(reader)
    size = params.chunk_size
    if kind == PRESENCE_KIND:
        (count,) = reader.read(_COUNT)
        chunk_indices = struct.unpack(f"<{count}Q", reader.take(_INDEX.size * count))
        chunks = _split(reader.take(size * count), size)
        return params, PresenceProof(chunk_indices=chunk_indices, chunks=chunks, multiproof=_read_digests(reader))
    if kind == ABSENCE_KIND:
        (chunk_index,) = reader.read(_INDEX)
        chunk = reader.take(size)
        return params, AbsenceProof(chunk_index=chunk_index, chunk=chunk, path=_read_digests(reader))
    raise InvalidField(f"unknown proof kind 0x{kind:02x}")


def _read_digests(reader: _Reader) -> tuple[bytes, ...]:
    """The u16 count | 32-byte digests section that ends every proof, and the end of the input."""
    (count,) = reader.read(_COUNT)
    digests = _split(reader.take(DIGEST_SIZE * count), DIGEST_SIZE)
    reader.finish()
    return digests


def _pack_params(params: BloomParams) -> bytes:
    return _PARAMS.pack(params.m, params.k, params.chunk_size)


def _unpack_params(reader: _Reader) -> BloomParams:
    m, k, chunk_size = reader.read(_PARAMS)
    try:
        return BloomParams(m=m, k=k, chunk_size=chunk_size)
    except ValueError as exc:
        raise InvalidField(str(exc)) from None


def _expect_header(reader: _Reader, magic: bytes) -> None:
    """The magic, then the version byte: a wrong magic is BadMagic whatever follows."""
    if reader.take(len(magic)) != magic:
        raise BadMagic(f"expected magic {magic!r}")
    version = reader.take(1)[0]
    if version != VERSION:
        raise UnsupportedVersion(f"unsupported version {version}, expected {VERSION}")

