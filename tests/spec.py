"""The reference verifier: bloomtree's rules re-derived from the documented formats alone.

It imports only hashlib and struct, never bloomtree (a test holds it to
that), so a defect in the library cannot hide in a check that shares its code.

- bit i of an element = (h1 + i*h2) mod 2^64 mod m, where h1 and h2 are the
  little-endian u64s in bytes 0..8 and 8..16 of sha256(element), h2 forced
  odd; bit b is bit b % 8 of byte b // 8, least significant first
- leaf = sha256(0x00 || chunk index u64le || chunk); node = sha256(0x01 || left || right)
- filter and proof files: as in the bloomtree.codec docstring, built by the v1
  layout builders below
"""

import hashlib
import struct

MAYBE_PRESENT, DEFINITELY_ABSENT, INVALID = "MaybePresent", "DefinitelyAbsent", "Invalid"

# The v1 layout. Every other test module builds its filter and proof bytes
# from these, so a version bump changes them here.
VERSION = 1
PRESENCE, ABSENCE = 1, 2  # the proof kinds
_FILTER_HEAD = "<4sBQII"  # "BLTR" | version u8 | m u64 | k u32 | chunk_size u32
_PROOF_HEAD = "<4sBBQII"  # "BLPF" | version u8 | kind u8 | m u64 | k u32 | chunk_size u32
FILTER_HEADER = struct.calcsize(_FILTER_HEAD)  # 21 bytes, then the filter bytes and the root
PROOF_HEADER = struct.calcsize(_PROOF_HEAD)  # 22 bytes, then the body


def filter_header(m, k, chunk_size, version=VERSION):
    return struct.pack(_FILTER_HEAD, b"BLTR", version, m, k, chunk_size)


def proof_header(kind, m, k, chunk_size, version=VERSION):
    return struct.pack(_PROOF_HEAD, b"BLPF", version, kind, m, k, chunk_size)


def absence_body(chunk_index, chunk, digests=()):
    """chunk_index u64 | chunk | digest count u16 | digests"""
    return struct.pack("<Q", chunk_index) + chunk + _digests(digests)


def presence_body(chunk_indices, chunks, digests=()):
    """chunk count u16 | chunk indices u64 | chunks | digest count u16 | digests"""
    count = len(chunk_indices)
    return struct.pack(f"<H{count}Q", count, *chunk_indices) + b"".join(chunks) + _digests(digests)


def _digests(digests):
    return struct.pack("<H", len(digests)) + b"".join(digests)


def absence_size(chunk_size, depth):
    """An absence proof's length: its one chunk and a path of ``depth`` digests."""
    return PROOF_HEADER + 8 + chunk_size + 2 + 32 * depth


def presence_size(chunk_size, chunks, digests):
    """A presence proof's length: ``chunks`` chunks with their indices and ``digests`` digests."""
    return PROOF_HEADER + 2 + (8 + chunk_size) * chunks + 2 + 32 * digests


def indices(element, m, k):
    h1, h2 = struct.unpack("<QQ", hashlib.sha256(element).digest()[:16])
    return [(h1 + i * (h2 | 1)) % 2**64 % m for i in range(k)]


def contains(bits, m, k, element):
    return all(bits[i // 8] >> (i % 8) & 1 for i in indices(element, m, k))


def leaf(chunk_index, chunk):
    return hashlib.sha256(b"\x00" + struct.pack("<Q", chunk_index) + chunk).digest()


def node(left, right):
    return hashlib.sha256(b"\x01" + left + right).digest()


def levels(leaves):
    """Every level over a power-of-two number of leaf digests, leaves first, each a tuple of digests."""
    out = [tuple(leaves)]
    while len(out[-1]) > 1:
        below = out[-1]
        out.append(tuple(node(below[j], below[j + 1]) for j in range(0, len(below), 2)))
    return out


def filter_levels(bits, chunk_size):
    """levels() over the index-salted chunks of a filter's bits."""
    return levels([leaf(i, bits[s : s + chunk_size]) for i, s in enumerate(range(0, len(bits), chunk_size))])


def multiproof(tree_levels, positions):
    """The prover: level by level, left to right, each known node's sibling that is not itself known."""
    proof = []
    for level in tree_levels[:-1]:
        known = set(positions)
        proof += [level[pos ^ 1] for pos in positions if pos ^ 1 not in known]
        positions = sorted({pos >> 1 for pos in positions})
    return proof


def fold(entries, depth, proof):
    """The verifier: the root sorted (position, digest) entries hash up to, unknown siblings read off the proof."""
    proof = list(proof)
    for _ in range(depth):
        known, parents = dict(entries), {}
        for pos, digest in entries:
            if pos >> 1 in parents:
                continue  # hashed with its left sibling
            if pos ^ 1 not in known and not proof:
                return None
            sibling = known[pos ^ 1] if pos ^ 1 in known else proof.pop(0)
            parents[pos >> 1] = node(sibling, digest) if pos & 1 else node(digest, sibling)
        entries = list(parents.items())
    return None if proof else entries[0][1]  # the proof must be used up exactly


def parse_proof(blob):
    """(kind, [(chunk index, chunk)], digests) of a proof file, or None if it breaks the format."""
    blob = bytes(blob)
    try:
        magic, version, kind, m, k, size = struct.unpack_from(_PROOF_HEAD, blob)
        if magic != b"BLPF" or version != VERSION or kind not in (PRESENCE, ABSENCE):
            return None
        count, at = (1, PROOF_HEADER)
        if kind == PRESENCE:
            count, at = struct.unpack_from("<H", blob, at)[0], at + 2
        chunk_indices = struct.unpack_from(f"<{count}Q", blob, at)
        at += 8 * count
        chunks = [blob[at + size * i : at + size * (i + 1)] for i in range(count)]
        at += size * count
        (hashes,) = struct.unpack_from("<H", blob, at)
    except struct.error:
        return None
    # The echoed params need only form a valid geometry; their chunk size cut the chunks above.
    geometry = 0 < size <= 65536 and not size & (size - 1) and size * 8 <= m and not m & (m - 1) and 1 <= k <= 65536
    if not geometry or len(blob) != at + 2 + 32 * hashes:
        return None
    return kind, list(zip(chunk_indices, chunks)), [blob[j : j + 32] for j in range(at + 2, len(blob), 32)]


def spec_verdict(root, m, k, chunk_size, element, proof_bytes):
    """The verdict kind of a proof file for ``element`` under the trusted root and params."""
    parsed = parse_proof(proof_bytes)
    if parsed is None or any(len(chunk) != chunk_size for _, chunk in parsed[1]):
        return INVALID
    kind, claimed, digests = parsed
    chunk_bits = 8 * chunk_size
    positions = indices(element, m, k)
    chunk_set = sorted({i // chunk_bits for i in positions})
    chunks = dict(claimed)
    required = [i for i in positions if i // chunk_bits in chunks]
    zeros = [i for i in required if not chunks[i // chunk_bits][i // 8 % chunk_size] >> (i % 8) & 1]
    if kind == PRESENCE:  # presence: exactly the element's chunks, and no required bit zero
        claims_hold = [c for c, _ in claimed] == chunk_set and not zeros
    else:  # absence: one of the element's chunks, with a required bit zero
        claims_hold = claimed[0][0] in chunk_set and bool(zeros)
    leaves = [(c, leaf(c, chunk)) for c, chunk in claimed]
    if not claims_hold or fold(leaves, (m // chunk_bits).bit_length() - 1, digests) != root:
        return INVALID
    return MAYBE_PRESENT if kind == PRESENCE else DEFINITELY_ABSENT
