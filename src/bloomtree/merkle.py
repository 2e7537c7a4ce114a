"""Binary Merkle tree over 32-byte digests and one proof algorithm, an
index-free multiproof.

Internal nodes are hashed with a 0x01 domain prefix (leaves are committed
elsewhere with 0x00) so a leaf preimage can never be mistaken for a node
preimage.

The multiproof transmits sibling digests only, no positions. Prover and
verifier replay the identical schedule: walk the frontier of known node
positions level by level in increasing position order, and whenever the
sibling of a known node is itself unknown, the prover appends its digest to
the proof and the verifier consumes the next digest from the front. Emission
is therefore strictly level-by-level, left to right, and verification
succeeds only if the proof is consumed exactly. Once the frontier has
narrowed to one node, the rest of the schedule is that node's sibling path,
so a one-leaf multiproof is the plain bottom-up sibling path.
"""

import hashlib
import operator
from dataclasses import dataclass
from typing import Sequence

DIGEST_SIZE = 32

Digest = bytes

_NODE_PREFIX = b"\x01"
_DIGEST_TYPES = {bytes, bytearray}
_INDEX_TYPES = {int}


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
    """Sibling path from one leaf to the root, bottom-up: prove_multi(tree, [leaf_index])."""
    return prove_multi(tree, [leaf_index])


def verify_single(
    root: Digest,
    leaf: Digest,
    leaf_index: int,
    leaf_count: int,
    proof: Sequence[Digest],
) -> bool:
    """verify_multi for the one entry (leaf_index, leaf)."""
    return verify_multi(root, [(leaf_index, leaf)], leaf_count, proof)


def prove_multi(tree: MerkleTree, leaf_indices: Sequence[int]) -> list[Digest]:
    """One proof covering several leaves, sharing interior digests.

    leaf_indices must be strictly increasing, in range and ints (a bool is
    not). The proof holds only the sibling digests the verifier cannot
    recompute, in the canonical schedule order described in the module
    docstring. Requesting all leaves yields an empty proof; requesting one
    leaf yields its sibling path, one digest per level.
    """
    known = list(leaf_indices)
    if not _are_leaf_indices(known, tree.leaf_count):
        raise ValueError(f"leaf indices must be strictly increasing ints in [0, {tree.leaf_count})")
    size = DIGEST_SIZE
    levels = tree.levels
    proof = []
    send, unsend = proof.append, proof.pop
    t = 0
    while len(known) > 1:
        parents = []
        last = -1
        level = levels[t]
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
        t += 1
    pos = known[0]
    for level in levels[t:-1]:
        start = (pos ^ 1) * size
        send(level[start : start + size])
        pos >>= 1
    return proof


def verify_multi(
    root: Digest,
    leaf_entries: Sequence[tuple[int, Digest]],
    leaf_count: int,
    proof: Sequence[Digest],
) -> bool:
    """Replay the prove_multi schedule, consuming proof digests in order.

    leaf_entries are (leaf_index, digest) pairs sorted by strictly
    increasing index, each index of type int (a bool is not). True iff the
    reconstructed root matches and the proof is consumed exactly: underflow,
    leftovers, duplicate or out-of-range indices all yield False, as does any
    other malformed input.
    """
    if not _is_power_of_two(leaf_count) or not _is_digest(root):
        return False
    try:
        positions, nodes = zip(*leaf_entries, strict=True)
        proof = list(proof)
    except (TypeError, ValueError):
        return False
    if not _are_leaf_indices(positions, leaf_count) or not _all_digests((*nodes, *proof)):
        return False

    sha256 = hashlib.sha256
    prefix = _NODE_PREFIX
    available = len(proof)
    cursor = 0
    levels_left = leaf_count.bit_length() - 1
    # Distinct in-range positions narrow to one node by the root level at the latest.
    while len(positions) > 1:
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
        levels_left -= 1
    if available - cursor != levels_left:
        return False  # the rest of the proof must be exactly one sibling per level left
    pos = positions[0]
    node = nodes[0]
    for sibling in proof[cursor:]:
        node = sha256(prefix + sibling + node if pos & 1 else prefix + node + sibling).digest()
        pos >>= 1
    return node == root


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


def _are_leaf_indices(indices: Sequence[int], leaf_count: int) -> bool:
    """A non-empty, strictly increasing run of ints (bools excluded) in [0, leaf_count)."""
    if len(indices) == 1 and type(indices[0]) is int:  # every absence proof: skip the set and the slice
        return 0 <= indices[0] < leaf_count
    if set(map(type, indices)) != _INDEX_TYPES:  # empty, or subclasses: take the slow path
        if not indices or not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
            return False
    return 0 <= indices[0] and indices[-1] < leaf_count and all(map(operator.lt, indices, indices[1:]))
