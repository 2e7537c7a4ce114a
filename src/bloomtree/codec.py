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

Filter decoding rebuilds the Merkle root from the filter bytes and rejects
the file if it disagrees with the stored root. Proofs echo the filter
parameters so a verifier holding only (root, params) can cross-check them.
Trailing bytes are always an error, and every length field is validated
against the remaining input before anything is sliced out.
"""

import struct
from typing import Union

from .bloom import BloomFilter, BloomParams
from .merkle import DIGEST_SIZE
from .tree import AbsenceProof, BloomTree, PresenceProof, build

FILTER_MAGIC = b"BLTR"
PROOF_MAGIC = b"BLPF"
VERSION = 1

PRESENCE_KIND = 0x01
ABSENCE_KIND = 0x02

Proof = Union[PresenceProof, AbsenceProof]


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
    """Cursor over an immutable buffer; every read bounds-checks first."""

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise TruncatedPayload(
                f"need {count} more bytes at offset {self.offset}, have {len(self.data) - self.offset}"
            )
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

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
    _expect_magic(reader, FILTER_MAGIC)
    _expect_version(reader)
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
    header = PROOF_MAGIC + bytes([VERSION])
    if isinstance(proof, PresenceProof):
        count = len(proof.chunk_indices)
        if count != len(proof.chunks):
            raise ValueError("chunk index count and chunk count disagree")
        if count > 0xFFFF or len(proof.multiproof) > 0xFFFF:
            raise ValueError("proof too large for u16 count fields")
        _check_chunks(params, proof.chunks)
        _check_digests(proof.multiproof)
        return b"".join(
            (
                header,
                bytes([PRESENCE_KIND]),
                _pack_params(params),
                struct.pack(f"<H{count}Q", count, *proof.chunk_indices),
                *proof.chunks,
                struct.pack("<H", len(proof.multiproof)),
                *proof.multiproof,
            )
        )
    if isinstance(proof, AbsenceProof):
        if len(proof.path) > 0xFFFF:
            raise ValueError("proof too large for u16 count fields")
        _check_chunks(params, (proof.chunk,))
        _check_digests(proof.path)
        return b"".join(
            (
                header,
                bytes([ABSENCE_KIND]),
                _pack_params(params),
                struct.pack("<Q", proof.chunk_index),
                proof.chunk,
                struct.pack("<H", len(proof.path)),
                *proof.path,
            )
        )
    raise TypeError(f"cannot encode proof of type {type(proof).__name__}")


def decode_proof(data: bytes) -> tuple[BloomParams, Proof]:
    """Parse a proof file; returns the echoed params and the proof payload."""
    reader = _Reader(data)
    _expect_magic(reader, PROOF_MAGIC)
    _expect_version(reader)
    kind = reader.u8()
    params = _unpack_params(reader)
    size = params.chunk_size
    if kind == PRESENCE_KIND:
        count = reader.u16()
        chunk_indices = struct.unpack(f"<{count}Q", reader.take(8 * count))
        chunks = _split(reader.take(size * count), size)
        multiproof = _split(reader.take(DIGEST_SIZE * reader.u16()), DIGEST_SIZE)
        reader.finish()
        return params, PresenceProof(chunk_indices=chunk_indices, chunks=chunks, multiproof=multiproof)
    if kind == ABSENCE_KIND:
        chunk_index = reader.u64()
        chunk = reader.take(size)
        path = _split(reader.take(DIGEST_SIZE * reader.u16()), DIGEST_SIZE)
        reader.finish()
        return params, AbsenceProof(chunk_index=chunk_index, chunk=chunk, path=path)
    raise InvalidField(f"unknown proof kind 0x{kind:02x}")


def _split(section: bytes, width: int) -> tuple[bytes, ...]:
    return tuple([section[i : i + width] for i in range(0, len(section), width)])


def _pack_params(params: BloomParams) -> bytes:
    return struct.pack("<QII", params.m, params.k, params.chunk_size)


def _unpack_params(reader: _Reader) -> BloomParams:
    m = reader.u64()
    k = reader.u32()
    chunk_size = reader.u32()
    try:
        return BloomParams(m=m, k=k, chunk_size=chunk_size)
    except ValueError as exc:
        raise InvalidField(str(exc)) from None


def _expect_magic(reader: _Reader, magic: bytes) -> None:
    if reader.take(len(magic)) != magic:
        raise BadMagic(f"expected magic {magic!r}")


def _expect_version(reader: _Reader) -> None:
    version = reader.u8()
    if version != VERSION:
        raise UnsupportedVersion(f"unsupported version {version}, expected {VERSION}")


def _check_chunks(params: BloomParams, chunks) -> None:
    if not set(map(len, chunks)) <= {params.chunk_size}:
        raise ValueError(f"chunks must be exactly {params.chunk_size} bytes")


def _check_digests(digests) -> None:
    if not set(map(len, digests)) <= {DIGEST_SIZE}:
        raise ValueError("digests must be exactly 32 bytes")
