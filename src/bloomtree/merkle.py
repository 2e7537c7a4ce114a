"""Binary Merkle tree over 32-byte digests: single proofs and an index-free
multiproof.

Internal nodes are hashed with a 0x01 domain prefix (leaves are committed
elsewhere with 0x00) so a leaf preimage can never be mistaken for a node
preimage.

The multiproof transmits sibling digests only, no positions. Prover and
verifier replay the identical schedule: walk the frontier of known node
positions level by level in increasing position order, and whenever the
sibling of a known node is itself unknown, the prover appends its digest to
the proof and the verifier consumes the next digest from the front. Emission
is therefore strictly level-by-level, left to right, and verification
succeeds only if the proof is consumed exactly.
"""

import hashlib
from dataclasses import dataclass
from typing import Sequence

DIGEST_SIZE = 32

Digest = bytes

_NODE_PREFIX = b"\x01"
_DIGEST_TYPES = {bytes, bytearray}


def node_hash(left: Digest, right: Digest) -> Digest:
    """Digest of an internal node: SHA-256(0x01 || left || right)."""
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleTree:
    """All levels of a complete binary Merkle tree.

    levels[0] holds the 2^L leaves, levels[t] the 2^(L-t) nodes of level t,
    and the top level the single root. Each level is one contiguous buffer:
    node i of a level sits at bytes [32i, 32i + 32). Immutable after build;
    safe to share across threads.
    """

    levels: tuple[bytes, ...]

    @property
    def leaf_count(self) -> int:
        return len(self.levels[0]) // DIGEST_SIZE

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> Digest:
        return self.levels[-1]

    def node(self, level: int, index: int) -> Digest:
        """Digest of node ``index`` of level ``level`` (level 0 holds the leaves)."""
        buffer = self.levels[level]
        if not 0 <= index < len(buffer) // DIGEST_SIZE:
            raise IndexError(f"node {index} out of range for level {level}")
        start = index * DIGEST_SIZE
        return buffer[start : start + DIGEST_SIZE]


def build_tree(leaves: Sequence[Digest]) -> MerkleTree:
    """Build a complete tree over a power-of-two number of leaf digests."""
    count = len(leaves)
    if count < 1 or count & (count - 1):
        raise ValueError(f"leaf count must be a power of two >= 1, got {count}")
    if set(map(len, leaves)) != {DIGEST_SIZE}:
        raise ValueError("leaves must be 32-byte digests")
    try:
        level = b"".join(leaves)
    except TypeError:
        raise ValueError("leaves must be 32-byte digests") from None
    if len(level) != count * DIGEST_SIZE:
        raise ValueError("leaves must be 32-byte digests")
    sha256 = hashlib.sha256
    pair = 2 * DIGEST_SIZE
    levels = [level]
    while len(level) > DIGEST_SIZE:
        level = b"".join([sha256(_NODE_PREFIX + level[j : j + pair]).digest() for j in range(0, len(level), pair)])
        levels.append(level)
    return MerkleTree(levels=tuple(levels))


def prove_single(tree: MerkleTree, leaf_index: int) -> list[Digest]:
    """Sibling path from one leaf to the root, bottom-up (L digests)."""
    if not 0 <= leaf_index < tree.leaf_count:
        raise ValueError(f"leaf index {leaf_index} out of range for {tree.leaf_count} leaves")
    path = []
    pos = leaf_index
    for level in tree.levels[:-1]:
        start = (pos ^ 1) * DIGEST_SIZE
        path.append(level[start : start + DIGEST_SIZE])
        pos >>= 1
    return path


def verify_single(
    root: Digest,
    leaf: Digest,
    leaf_index: int,
    leaf_count: int,
    proof: Sequence[Digest],
) -> bool:
    """Fold a leaf up its sibling path and compare against the root.

    Bit t of leaf_index decides placement at level t: 1 means the running
    digest is the right child. Returns False (never raises) on any
    malformed input, including a proof of the wrong length.
    """
    if not _is_power_of_two(leaf_count):
        return False
    if not isinstance(leaf_index, int) or isinstance(leaf_index, bool) or not 0 <= leaf_index < leaf_count:
        return False
    if not _is_digest(root) or not _is_digest(leaf):
        return False
    if len(proof) != leaf_count.bit_length() - 1:
        return False
    if not _all_digests(proof):
        return False
    sha256 = hashlib.sha256
    node = leaf
    pos = leaf_index
    for sibling in proof:
        node = sha256(_NODE_PREFIX + sibling + node if pos & 1 else _NODE_PREFIX + node + sibling).digest()
        pos >>= 1
    return node == root


def prove_multi(tree: MerkleTree, leaf_indices: Sequence[int]) -> list[Digest]:
    """One proof covering several leaves, sharing interior digests.

    leaf_indices must be strictly increasing and in range. The proof holds
    only the sibling digests the verifier cannot recompute, in the canonical
    schedule order described in the module docstring. Requesting all leaves
    yields an empty proof; requesting one leaf matches prove_single.
    """
    known = list(leaf_indices)
    _check_strictly_increasing(known, tree.leaf_count)
    size = DIGEST_SIZE
    proof = []
    send, unsend = proof.append, proof.pop
    for level in tree.levels[:-1]:
        parents = []
        last = -1
        for pos in known:
            parent = pos >> 1
            if parent == last:
                unsend()  # pos is the sibling its left neighbour asked for: known, not sent
            else:
                start = (pos ^ 1) * size
                send(level[start : start + size])
                parents.append(parent)
                last = parent
        known = parents
    return proof


def verify_multi(
    root: Digest,
    leaf_entries: Sequence[tuple[int, Digest]],
    leaf_count: int,
    proof: Sequence[Digest],
) -> bool:
    """Replay the prove_multi schedule, consuming proof digests in order.

    leaf_entries are (leaf_index, digest) pairs sorted by strictly
    increasing index. True iff the reconstructed root matches and the proof
    is consumed exactly: underflow, leftovers, duplicate or out-of-range
    indices all yield False.
    """
    if not _is_power_of_two(leaf_count) or not _is_digest(root):
        return False
    try:
        entries = [(index, digest) for index, digest in leaf_entries]
        proof = list(proof)
    except (TypeError, ValueError):
        return False
    if not entries:
        return False
    positions = [index for index, _ in entries]
    nodes = [digest for _, digest in entries]
    try:
        _check_strictly_increasing(positions, leaf_count)
    except ValueError:
        return False
    if not _all_digests(nodes) or not _all_digests(proof):
        return False

    sha256 = hashlib.sha256
    prefix = _NODE_PREFIX
    available = len(proof)
    cursor = 0
    for _ in range(leaf_count.bit_length() - 1):
        count = len(positions)
        parents = []
        digests = []
        i = 0
        while i < count:
            pos = positions[i]
            node = nodes[i]
            if i + 1 < count and positions[i + 1] == pos ^ 1:
                digests.append(sha256(prefix + node + nodes[i + 1]).digest())
                i += 2
            else:
                if cursor == available:
                    return False  # proof underflow
                sibling = proof[cursor]
                cursor += 1
                digests.append(sha256(prefix + sibling + node if pos & 1 else prefix + node + sibling).digest())
                i += 1
            parents.append(pos >> 1)
        positions = parents
        nodes = digests
    if cursor != available:
        return False  # leftover digests
    return nodes[0] == root


def _is_power_of_two(value) -> bool:
    return isinstance(value, int) and value >= 1 and not value & (value - 1)


def _is_digest(value) -> bool:
    return isinstance(value, (bytes, bytearray)) and len(value) == DIGEST_SIZE


def _all_digests(values: Sequence) -> bool:
    """_is_digest for every value, as C-level passes over types and lengths."""
    if not set(map(type, values)) <= _DIGEST_TYPES:  # subclasses take the slow path
        if not all(isinstance(v, (bytes, bytearray)) for v in values):
            return False
    return set(map(len, values)) <= {DIGEST_SIZE}


def _check_strictly_increasing(indices: Sequence[int], leaf_count: int) -> None:
    if len(indices) == 0:
        raise ValueError("at least one leaf index is required")
    previous = -1
    for index in indices:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"leaf indices must be integers, got {index!r}")
        if index <= previous:
            raise ValueError("leaf indices must be strictly increasing")
        previous = index
    if previous >= leaf_count:
        raise ValueError(f"leaf index {previous} out of range for {leaf_count} leaves")
