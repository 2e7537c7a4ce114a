"""Bloom tree: the filter chunked, index-salted, and committed under a
Merkle root.

A presence proof ships the chunks an element's bits land in plus one
multiproof; it can only ever show that the element *might* have been
inserted. An absence proof ships a single chunk in which a required bit is
zero plus that chunk's sibling path, which is the one-leaf multiproof; it
shows the element definitely was never inserted. Each chunk is hashed
together with its index, so a valid proof for one chunk can never be passed
off as a proof for another.
"""

import enum
import hashlib
import struct

from .bloom import BloomFilter, BloomParams, _Frozen, indices
from .merkle import (
    Digest,
    MerkleTree,
    _blocks,
    _is_bytes,
    _is_digest,
    _prove,
    _tree_over,
    _verify_leaves,
)

# The head of a leaf preimage, 0x00 || chunk index as 8-byte little-endian,
# packed in one call: _LEAF_HEAD.pack(0, chunk_index).
_LEAF_HEAD = struct.Struct("<BQ")


def leaf_hash(chunk_index: int, chunk: bytes) -> Digest:
    """Digest of a bytes-like chunk salted with its index (anything else raises TypeError); see _leaf_hashes."""
    return _leaf_hashes([(chunk_index, chunk)])[0]


def _leaf_hashes(indexed_chunks) -> list[Digest]:
    """The leaf digest of each (chunk_index, chunk) pair, in order.

    SHA-256(0x00 || chunk_index as 8-byte little-endian || chunk). The index
    salt is what makes chunk substitution detectable; the 0x00 prefix keeps
    leaf preimages disjoint from internal-node preimages. This is the one
    place a leaf preimage is built.
    """
    sha256 = hashlib.sha256
    head = _LEAF_HEAD.pack
    return [sha256(head(0, i) + chunk).digest() for i, chunk in indexed_chunks]


def locate(bit_index: int, params: BloomParams) -> tuple[int, int]:
    """Map a global bit index to (chunk_index, bit index within the chunk).

    All indexing is 0-based, globally and locally.
    """
    return divmod(bit_index, params.chunk_bits)


def _chunk_set(positions: list[int], params: BloomParams) -> list[int]:
    """The sorted, deduplicated chunk indices the bit positions land in."""
    chunk_bits = params.chunk_bits
    return sorted({i // chunk_bits for i in positions})


class VerdictKind(enum.Enum):
    MAYBE_PRESENT = "MaybePresent"
    DEFINITELY_ABSENT = "DefinitelyAbsent"
    INVALID = "Invalid"


class Verdict(_Frozen):
    """Three-valued verification outcome.

    MAYBE_PRESENT only ever comes from a valid presence proof,
    DEFINITELY_ABSENT only from a valid absence proof; everything else is
    INVALID with a reason.
    """

    __slots__ = ("kind", "reason")

    def __init__(self, kind: VerdictKind, reason: str | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "reason", reason)

    @staticmethod
    def maybe_present() -> "Verdict":
        return _MAYBE_PRESENT

    @staticmethod
    def definitely_absent() -> "Verdict":
        return _DEFINITELY_ABSENT

    @classmethod
    def invalid(cls, reason: str) -> "Verdict":
        return cls(VerdictKind.INVALID, reason)

    @property
    def is_valid(self) -> bool:
        return self.kind is not VerdictKind.INVALID

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.reason}" if self.reason else self.kind.value


# The two valid verdicts carry no reason, so each is one shared immutable record.
_MAYBE_PRESENT = Verdict(VerdictKind.MAYBE_PRESENT)
_DEFINITELY_ABSENT = Verdict(VerdictKind.DEFINITELY_ABSENT)


class PresenceProof(_Frozen):
    """Chunks covering all k bits of an element, plus one multiproof.

    chunk_indices is strictly increasing with at most k entries; chunks are
    the corresponding raw chunk bytes.
    """

    __slots__ = ("chunk_indices", "chunks", "multiproof")

    def __init__(self, chunk_indices: tuple[int, ...], chunks: tuple[bytes, ...], multiproof: tuple[Digest, ...]) -> None:
        object.__setattr__(self, "chunk_indices", chunk_indices)
        object.__setattr__(self, "chunks", chunks)
        object.__setattr__(self, "multiproof", multiproof)


class AbsenceProof(_Frozen):
    """One chunk holding a zero at a required bit, plus its sibling path.

    The path is the one-leaf multiproof of that chunk: one digest per level.
    """

    __slots__ = ("chunk_index", "chunk", "path")

    def __init__(self, chunk_index: int, chunk: bytes, path: tuple[Digest, ...]) -> None:
        object.__setattr__(self, "chunk_index", chunk_index)
        object.__setattr__(self, "chunk", chunk)
        object.__setattr__(self, "path", path)


class BloomTree(_Frozen):
    """A Bloom filter plus the Merkle tree over its index-salted chunks.

    Immutable once built: ``filter`` is a read-only snapshot of the bits the
    root commits to, so prove() is pure with respect to it. Inserts into the
    filter the tree was built from do not reach it; build again to commit
    them.
    """

    __slots__ = ("filter", "tree")

    def __init__(self, filter: BloomFilter, tree: MerkleTree) -> None:
        object.__setattr__(self, "filter", filter)
        object.__setattr__(self, "tree", tree)

    @property
    def root(self) -> Digest:
        """The Merkle root over the filter's chunks, read from the tree itself."""
        return self.tree.root


def build(filt: BloomFilter) -> BloomTree:
    """Snapshot the filter, hash each chunk with its index, and build the tree.

    The tree keeps its own immutable copy of the filter bytes, so a later
    insert into ``filt`` cannot desync the chunks from the root. The root
    depends only on the filter bytes and the chunk size; it does not commit
    to ``k``, so a verifier must take the params from a trusted source, not
    from a proof.

    Leaves are hashed in blocks of chunks cut from the filter bytes, and
    nodes as in merkle.build_tree; see merkle._blocks for what a build holds
    beyond the filter bytes and the levels it returns.
    """
    params = filt.params
    bits = bytes(filt.bits)
    blocks = _blocks(bits, params.chunk_size)
    leaf_level = b"".join([b"".join(_leaf_hashes(enumerate(chunks, start))) for start, chunks in blocks])
    return BloomTree(filter=BloomFilter(params, bits), tree=_tree_over(leaf_level))


def prove(bloom_tree: BloomTree, element: bytes) -> PresenceProof | AbsenceProof:
    """Produce the one proof the element admits.

    If every bit the element maps to is set, a presence proof over the
    deduplicated, sorted chunk set; otherwise an absence proof for the
    lowest-indexed chunk holding a zero at a required bit (a canonical
    tie-break, so proofs are deterministic).
    """
    params = bloom_tree.filter.params
    bits = bloom_tree.filter.bits
    size = params.chunk_size
    positions = indices(element, params)
    zeros = [i for i in positions if not bits[i >> 3] >> (i & 7) & 1]
    if zeros:
        chunk_index, _ = locate(min(zeros), params)
        start = chunk_index * size
        return AbsenceProof(
            chunk_index=chunk_index,
            chunk=bits[start : start + size],
            path=tuple(_prove(bloom_tree.tree.levels, [chunk_index])),
        )
    chunk_indices = _chunk_set(positions, params)
    chunks = tuple([bits[c * size : c * size + size] for c in chunk_indices])
    multiproof = tuple(_prove(bloom_tree.tree.levels, chunk_indices))
    return PresenceProof(chunk_indices=tuple(chunk_indices), chunks=chunks, multiproof=multiproof)


def verify(
    root: Digest,
    params: BloomParams,
    element: bytes,
    proof: PresenceProof | AbsenceProof,
) -> Verdict:
    """Check a proof against a trusted root and params.

    Beyond (root, params), the verifier reads only the top levels of the
    last tree it verified, which merkle._verify_leaves keeps from proofs that
    reproduced that root; a verdict is the one it would be without them. The
    verifier recomputes the element's bit positions itself; proofs carry
    no index claims about the element. Every failure, a non-bytes element or
    params that are not BloomParams included, returns an INVALID verdict
    with a reason, never an exception. The root, chunks and chunk indices,
    and the fields that list them, are read only once their types are exact
    (see merkle._is_bytes).
    """
    if not _is_digest(root):
        return Verdict.invalid("root must be a 32-byte digest")
    if not isinstance(params, BloomParams):
        return Verdict.invalid(f"params must be BloomParams, not {type(params).__name__}")
    try:
        positions = indices(element, params)
    except TypeError:
        return Verdict.invalid(f"element must be bytes, not {type(element).__name__}")
    chunk_bits = params.chunk_bits
    size = params.chunk_size
    # The two kinds differ in which chunks the proof must claim and in whether
    # a required bit may be zero; both then check their chunks as leaves of one
    # multiproof.
    if isinstance(proof, PresenceProof):
        supplied, chunks, multiproof = proof.chunk_indices, proof.chunks, proof.multiproof
        if not _is_sequence(supplied) or not _is_sequence(chunks) or not _is_sequence(multiproof):
            return Verdict.invalid("malformed presence proof fields")
        expected = _chunk_set(positions, params)
        if not all(type(i) is int for i in supplied) or list(supplied) != expected:
            # Exact equality: extraneous chunks are rejected, not just missing ones.
            return Verdict.invalid("chunk indices do not match the element's chunk set")
        if len(chunks) != len(expected):
            return Verdict.invalid("chunk count does not match chunk index count")
        claimed = dict(zip(expected, chunks))
        for chunk_index, chunk in claimed.items():
            if not _is_bytes(chunk) or len(chunk) != size:
                return Verdict.invalid(f"chunk {chunk_index} is not exactly {size} bytes")
        zeros = _zero_bits(positions, claimed, params)
        if zeros:
            chunk_index, local = locate(min(zeros), params)
            return Verdict.invalid(f"required bit {local} of chunk {chunk_index} is zero")
        if not _reconstructs(root, params, claimed, multiproof):
            return Verdict.invalid("multiproof does not reconstruct the root")
        return Verdict.maybe_present()
    if isinstance(proof, AbsenceProof):
        chunk_index = proof.chunk_index
        if type(chunk_index) is not int:
            return Verdict.invalid("chunk index must be an integer")
        required = [i for i in positions if i // chunk_bits == chunk_index]
        if not required:
            return Verdict.invalid("chunk is not one the element maps into")
        chunk = proof.chunk
        if not _is_bytes(chunk) or len(chunk) != size:
            return Verdict.invalid(f"chunk is not exactly {size} bytes")
        claimed = {chunk_index: chunk}
        if not _zero_bits(required, claimed, params):
            return Verdict.invalid("every required bit in the supplied chunk is set")
        path = proof.path
        if not _is_sequence(path):
            return Verdict.invalid("malformed absence proof path")
        if not _reconstructs(root, params, claimed, path):
            return Verdict.invalid("path does not reconstruct the root")
        return Verdict.definitely_absent()
    return Verdict.invalid(f"unknown proof type {type(proof).__name__}")


def _is_sequence(value) -> bool:
    """True iff ``value`` is exactly a tuple or a list, the types compared by identity as in merkle._is_bytes."""
    kind = type(value)
    return kind is tuple or kind is list


def _zero_bits(positions: list[int], claimed: dict[int, bytes], params: BloomParams) -> list[int]:
    """The global bit positions that are zero in the claimed chunk holding them."""
    chunk_bits = params.chunk_bits
    size = params.chunk_size
    return [i for i in positions if not claimed[i // chunk_bits][(i >> 3) % size] >> (i & 7) & 1]


def _reconstructs(root: bytes, params: BloomParams, claimed: dict[int, bytes], proof: tuple | list) -> bool:
    """Hash each claimed chunk as the leaf at its index and check them all with one multiproof."""
    return _verify_leaves(root, list(claimed), _leaf_hashes(claimed.items()), params.depth, proof)
