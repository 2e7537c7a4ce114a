"""Independent re-derivation of bloomtree's committed values.

Everything here follows the documented formats (README "Design notes" and
the ``bloomtree.codec`` docstring) using only ``hashlib`` and ``struct``. It
never imports ``bloomtree``, so a defect in the library cannot hide in a
check that shares the library's code.

- element bit i = (h1 + i*h2) mod 2^64 mod m, where h1 and h2 are the
  little-endian u64s in bytes 0..8 and 8..16 of sha256(element), h2 forced
  odd; bit b lives in byte b // 8 at position b % 8, least significant first
- leaf = sha256(0x00 || chunk index u64le || chunk)
- node = sha256(0x01 || left || right)
- filter file = "BLTR" | version u8 | m u64 | k u32 | chunk_size u32 | bits | root
- proof file = "BLPF" | version u8 | kind u8 | m u64 | k u32 | chunk_size u32 | body
"""

import hashlib
import struct
from dataclasses import dataclass

_U64 = (1 << 64) - 1
_FILTER_HEADER = struct.Struct("<4sBQII")
_PROOF_HEADER_SIZE = 22  # magic 4, version 1, kind 1, m 8, k 4, chunk_size 4
_PRESENCE_KIND = 0x01

TAMPERS = ("chunk-bit", "digest-bit", "index-swap")


@dataclass(frozen=True)
class FilterFile:
    m: int
    k: int
    chunk_size: int
    bits: bytes
    stored_root: bytes


def parse_filter(data: bytes) -> FilterFile:
    """Split a filter file into its fields; raises ValueError if malformed."""
    magic, _version, m, k, chunk_size = _FILTER_HEADER.unpack_from(data)
    body = data[_FILTER_HEADER.size :]
    if magic != b"BLTR" or len(body) != m // 8 + 32:
        raise ValueError("not a filter file of the documented layout")
    return FilterFile(m, k, chunk_size, bytes(body[: m // 8]), bytes(body[m // 8 :]))


def merkle_root(bits: bytes, chunk_size: int) -> bytes:
    """Root over the index-salted chunks of a bit array."""
    sha256 = hashlib.sha256
    level = [
        sha256(b"\x00" + i.to_bytes(8, "little") + bits[start : start + chunk_size]).digest()
        for i, start in enumerate(range(0, len(bits), chunk_size))
    ]
    while len(level) > 1:
        level = [sha256(b"\x01" + level[j] + level[j + 1]).digest() for j in range(0, len(level), 2)]
    return level[0]


def contains(filt: FilterFile, element: bytes) -> bool:
    """True iff every bit the element maps to is set in the committed bits."""
    digest = hashlib.sha256(element).digest()
    h1 = int.from_bytes(digest[0:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1
    bits = filt.bits
    for i in range(filt.k):
        bit = ((h1 + i * h2) & _U64) % filt.m
        if not (bits[bit >> 3] >> (bit & 7)) & 1:
            return False
    return True


def tamper(proof: bytes, chunk_size: int, how: str, pick: int) -> bytes:
    """A copy of an encoded proof with one field corrupted.

    ``chunk-bit`` flips one bit of a chunk, ``digest-bit`` one bit of a
    Merkle digest (a chunk bit if the proof has no digest), and
    ``index-swap`` replaces a chunk index i by its sibling's index i ^ 1.
    ``pick`` chooses which chunk, digest and bit. The result keeps the
    layout, so it decodes, and every honest verifier must call it Invalid.
    """
    out = bytearray(proof)
    if out[5] == _PRESENCE_KIND:
        count = struct.unpack_from("<H", out, _PROOF_HEADER_SIZE)[0]
        index_at = _PROOF_HEADER_SIZE + 2 + 8 * (pick % count)
        chunks_at = _PROOF_HEADER_SIZE + 2 + 8 * count
        chunk_at = chunks_at + chunk_size * (pick % count)
        digests_at = chunks_at + chunk_size * count + 2
    else:
        index_at = _PROOF_HEADER_SIZE
        chunk_at = _PROOF_HEADER_SIZE + 8
        digests_at = chunk_at + chunk_size + 2
    digests = (len(out) - digests_at) // 32
    if how == "index-swap":
        index = struct.unpack_from("<Q", out, index_at)[0]
        struct.pack_into("<Q", out, index_at, index ^ 1)
    elif how == "digest-bit" and digests:
        out[digests_at + 32 * (pick % digests) + pick % 32] ^= 1 << (pick % 8)
    else:
        out[chunk_at + pick % chunk_size] ^= 1 << (pick % 8)
    return bytes(out)
