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
parameters. Only `bloomtree verify --filter` compares them with trusted
ones; `verify --root` takes them on trust, and the root does not commit to k.
Trailing bytes are always an error, and every length field is validated
against the remaining input before anything is sliced out.

Levels file (private to the CLI, which keeps one beside a filter file F as
``F.levels`` for ``bloomtree prove``)::

    "BLLV" | version u8 | SHA-256 of F's bytes (32) | levels, leaves first, root last

It holds every level of F's tree, each laid out as in MerkleTree.levels. It
stands for F only if the key is the SHA-256 of F's bytes, its length is exact
and its root is F's stored root; nothing else in it is checked, so a caller
checks what it reads of it against the stored root.

Each fixed header is read and written with one precompiled struct: the
21-byte filter header ``_FILTER_HEAD`` (``<4sBQII``) and the 22-byte proof
header ``_PROOF_HEAD`` (``<4sBBQII``), which an absence proof's encoder packs
together with its chunk index as ``_ABSENCE_HEAD`` (``<4sBBQIIQ``). A decoder
checks the magic, then the version, then the params, then the body, and
bounds-checks each variable section once before slicing it.
"""

import functools
import hashlib
import struct

from .bloom import BloomFilter, BloomParams
from .merkle import DIGEST_SIZE, MerkleTree, _split
from .tree import AbsenceProof, BloomTree, PresenceProof, build

FILTER_MAGIC = b"BLTR"
PROOF_MAGIC = b"BLPF"
VERSION = 1

PRESENCE_KIND = 0x01
ABSENCE_KIND = 0x02

Proof = PresenceProof | AbsenceProof

_FILTER_HEAD = struct.Struct("<4sBQII")  # magic | version u8 | m u64 | k u32 | chunk_size u32
_PROOF_HEAD = struct.Struct("<4sBBQII")  # magic | version u8 | kind u8 | m u64 | k u32 | chunk_size u32
_ABSENCE_HEAD = struct.Struct("<4sBBQIIQ")  # the proof header, then an absence proof's chunk index
_LEVELS_HEAD = struct.Struct("<4sB32s")  # "BLLV" | version u8 | SHA-256 of the filter file
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


def encode_filter(bloom_tree: BloomTree) -> bytes:
    """Serialize a built filter together with its committed root."""
    params = bloom_tree.filter.params
    head = _FILTER_HEAD.pack(FILTER_MAGIC, VERSION, params.m, params.k, params.chunk_size)
    return b"".join((head, bytes(bloom_tree.filter.bits), bloom_tree.root))


def decode_filter(data: bytes) -> BloomTree:
    """Parse a filter file, rebuild its tree, and check the stored root."""
    params, bits, root = _filter_fields(data)
    bloom_tree = build(BloomFilter(params, bits))  # bytes: shared, not copied
    if bloom_tree.root != root:
        raise RootMismatch("stored root does not match the root rebuilt from the filter bytes")
    return bloom_tree


def _filter_fields(data: bytes) -> tuple[BloomParams, bytes, bytes]:
    """A filter file's params, filter bytes and stored root: every field checked as in decode_filter but the root."""
    data = _buffer(data)
    _, _, m, k, chunk_size = _header(data, _FILTER_HEAD, FILTER_MAGIC, (4, 1, 16))
    params = _params(m, k, chunk_size)
    at, size, have = _FILTER_HEAD.size, params.byte_length, len(data)
    end = at + size + DIGEST_SIZE
    if end > have:
        raise _truncated(have, at, size, DIGEST_SIZE)
    if end != have:
        raise TrailingBytes(f"{have - end} unexpected trailing bytes")
    return params, data[at : at + size], data[at + size :]


def _levels_head(data: bytes) -> bytes:
    """The header of the levels file of filter file ``data``: magic, version and key."""
    return _LEVELS_HEAD.pack(b"BLLV", VERSION, hashlib.sha256(data).digest())


def _levels_file(data: bytes, bloom_tree: BloomTree) -> tuple[bytes, ...]:
    """The levels file of filter file ``data``, whose tree is ``bloom_tree``, as its header and then its levels."""
    return (_levels_head(data), *bloom_tree.tree.levels)


def _with_levels(data: bytes, levels_file: bytes) -> BloomTree | None:
    """decode_filter's tree, its levels cut from ``levels_file`` and not hashed; None if that is not data's levels file.

    The filter file's fields are checked as decode_filter checks them, and
    the levels file's header, key, length and root as the module docstring
    says. The other digests are taken as they are.
    """
    params, bits, root = _filter_fields(data)
    width = params.chunk_count * DIGEST_SIZE
    at = _LEVELS_HEAD.size
    if len(levels_file) != at + 2 * width - DIGEST_SIZE or levels_file[-DIGEST_SIZE:] != root:
        return None
    if levels_file[:at] != _levels_head(data):
        return None
    levels = []
    while width >= DIGEST_SIZE:
        levels.append(levels_file[at : at + width])
        at += width
        width >>= 1
    return BloomTree(filter=BloomFilter(params, bits), tree=MerkleTree(levels=tuple(levels)))


def encode_proof(params: BloomParams, proof: Proof) -> bytes:
    """Serialize a presence or absence proof with the params echoed."""
    if isinstance(proof, PresenceProof):
        kind, chunks, digests = PRESENCE_KIND, proof.chunks, proof.multiproof
        count = len(proof.chunk_indices)
        if count != len(chunks):
            raise ValueError("chunk index count and chunk count disagree")
        inexact = [index_type for index_type in map(type, proof.chunk_indices) if index_type is not int]
    elif isinstance(proof, AbsenceProof):
        kind, chunks, digests = ABSENCE_KIND, (proof.chunk,), proof.path
        inexact = type(proof.chunk_index) is not int
    else:
        raise TypeError(f"cannot encode proof of type {type(proof).__name__}")
    # Exact ints, as verify reads them: a bool or an int subclass would encode as the int it equals.
    if inexact:
        raise ValueError("chunk indices must be exact ints, not bools or int subclasses")
    if len(chunks) > 0xFFFF or len(digests) > 0xFFFF:
        raise ValueError("proof too large for u16 count fields")
    if not set(map(len, chunks)) <= {params.chunk_size}:
        raise ValueError(f"chunks must be exactly {params.chunk_size} bytes")
    if not set(map(len, digests)) <= {DIGEST_SIZE}:
        raise ValueError("digests must be exactly 32 bytes")
    header = (PROOF_MAGIC, VERSION, kind, params.m, params.k, params.chunk_size)
    # The kinds differ only in the fields ahead of their chunks: the one chunk
    # index of an absence proof, the chunk count and indices of a presence proof.
    try:
        if kind == ABSENCE_KIND:
            head = _ABSENCE_HEAD.pack(*header, proof.chunk_index)
        else:
            head = _PROOF_HEAD.pack(*header) + struct.pack(f"<H{count}Q", count, *proof.chunk_indices)
    except struct.error:
        raise ValueError("chunk indices must be integers in [0, 2**64)") from None
    return b"".join((head, *chunks, _COUNT.pack(len(digests)), b"".join(digests)))


def decode_proof(data: bytes) -> tuple[BloomParams, Proof]:
    """Parse a proof file; returns the echoed params and the proof payload."""
    data = _buffer(data)
    _, _, kind, m, k, size = _header(data, _PROOF_HEAD, PROOF_MAGIC, (4, 1, 1, 16))
    params = _params(m, k, size)
    at, have = _PROOF_HEAD.size, len(data)
    # Each kind's fields up to the digest count, bounds-checked together: a
    # presence proof's chunk indices and chunks after its chunk count, an
    # absence proof's one chunk index and chunk.
    if kind == PRESENCE_KIND:
        if at + 2 > have:
            raise _truncated(have, at, 2)
        (count,) = _COUNT.unpack_from(data, at)
        at += 2
        chunks_at = at + 8 * count
        digests_at = chunks_at + size * count
        if digests_at + 2 > have:
            raise _truncated(have, at, 8 * count, size * count, 2)
        chunk_indices = struct.unpack_from(f"<{count}Q", data, at)
        chunks = _split(data[chunks_at:digests_at], size)
    elif kind == ABSENCE_KIND:
        digests_at = at + 8 + size
        if digests_at + 2 > have:
            raise _truncated(have, at, 8, size, 2)
        (chunk_index,) = _INDEX.unpack_from(data, at)
        chunk = data[at + 8 : digests_at]
    else:
        raise InvalidField(f"unknown proof kind 0x{kind:02x}")
    # Every proof ends with its u16 digest count and the 32-byte digests.
    (count,) = _COUNT.unpack_from(data, digests_at)
    at = digests_at + 2
    end = at + DIGEST_SIZE * count
    if end > have:
        raise _truncated(have, at, DIGEST_SIZE * count)
    if end != have:
        raise TrailingBytes(f"{have - end} unexpected trailing bytes")
    digests = _split(data[at:end], DIGEST_SIZE)
    if kind == ABSENCE_KIND:
        return params, AbsenceProof(chunk_index=chunk_index, chunk=chunk, path=digests)
    return params, PresenceProof(chunk_indices=chunk_indices, chunks=chunks, multiproof=digests)


def _buffer(data) -> bytes:
    """Exact ``bytes`` as they are, so a decode reads them in place; any other bytes-like input copied once."""
    return data if type(data) is bytes else bytes(memoryview(data))


def _header(data: bytes, layout: struct.Struct, magic: bytes, widths: tuple[int, ...]) -> tuple:
    """The fields of the header ``layout`` reads in one call, magic and version checked.

    ``widths`` are the header's field widths in order. A wrong magic is
    BadMagic whatever follows, then a wrong version is UnsupportedVersion,
    each as soon as its field is whole; a shorter header is TruncatedPayload
    at the first field it cuts.
    """
    have = len(data)
    if have >= layout.size:
        fields = layout.unpack_from(data)
        found, version = fields[0], fields[1]
    else:  # only the whole fields are checked
        found = data[:4] if have >= 4 else magic
        version = data[4] if have > 4 else VERSION
        fields = None
    if found != magic:
        raise BadMagic(f"expected magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"unsupported version {version}, expected {VERSION}")
    if fields is None:
        raise _truncated(have, 0, *widths)
    return fields


@functools.lru_cache(maxsize=16)
def _params(m: int, k: int, chunk_size: int) -> BloomParams:
    """The header's params, as InvalidField if they break a BloomParams rule; a record is shared by the decodes that echo it."""
    try:
        return BloomParams(m=m, k=k, chunk_size=chunk_size)
    except ValueError as exc:
        raise InvalidField(str(exc)) from None


def _truncated(have: int, at: int, *widths: int) -> TruncatedPayload:
    """The error for ``have`` bytes of input that end inside the fields of these widths laid out from ``at``."""
    for width in widths:
        if at + width > have:
            break
        at += width
    return TruncatedPayload(f"need {width} more bytes at offset {at}, have {have - at}")
