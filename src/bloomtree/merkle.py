"""Binary Merkle tree over 32-byte digests and one proof algorithm, an
index-free multiproof.

Internal nodes are hashed with a 0x01 domain prefix (leaves are committed
elsewhere with 0x00) so a leaf preimage can never be mistaken for a node
preimage. The prefix is absorbed once, into _NODE_STATE, which is never fed:
each node hash copies it and feeds the copy the node's two children, so no
preimage is built with its prefix.

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

import functools
import hashlib
import operator
import struct
from collections.abc import Iterator, Sequence
from itertools import chain

from .bloom import _Frozen

DIGEST_SIZE = 32

Digest = bytes

# SHA-256 that has absorbed the node prefix 0x01. Only ever copied, so
# threads may hash from it at once.
_NODE_STATE = hashlib.sha256(b"\x01")
# A block is at most _BLOCK_FIELDS fields and at most _BLOCK_BYTES bytes; see _blocks.
_BLOCK_FIELDS = 256
_BLOCK_BYTES = 64 * 1024
_LAYOUTS_KEPT = 128  # a layout keeps about 35 bytes per field: at most about 1.2 MB in all

# The top levels of a tree (all of a shallower one) that _walk reads as
# digests by index: a MerkleTree's digest tuples and the verifier's record.
# The levels below them are read as flat buffers, by _prove and by _fold.
_KEPT_LEVELS = 14

# The record of _verify_leaves: (root, depth, levels) of the tree it verified
# last. levels holds its top _KEPT_LEVELS levels, leaves first and the root
# last, as one list per level: node i of a level is its slot i, one 32-byte
# bytes, or None where no verified fold has shown it. A new record is
# 2**14 - 1 slots of None, 128 KiB; a full one, about 1.4 MB.
_kept: tuple = (None, -1, None)


class MerkleTree(_Frozen):
    """All levels of a complete binary Merkle tree.

    levels[0] holds the 2^L leaves, levels[t] the 2^(L-t) nodes of level t,
    and the top level the single root. Each level is one contiguous buffer:
    node i of a level sits at bytes [32i, 32i + 32). Immutable after build;
    safe to share across threads. A build hashes each level in blocks; see
    _blocks for what it holds beyond the levels.

    The tree's first proof cuts its top _KEPT_LEVELS levels into tuples of
    digests, which _prove reads through _walk: at most 2**14 - 1 digests,
    about 1.2 MB, for a tree of any depth. They are held in ``_digests``,
    None until then, which is not a field: ==, hash, repr, copy and pickle
    go by ``levels`` alone. Threads that make a tree's first proofs at once
    may each cut them; the tuples are equal, and one of them is kept.
    """

    __slots__ = ("levels", "_digests")

    def __init__(self, levels: tuple[bytes, ...]) -> None:
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_digests", None)

    @property
    def leaf_count(self) -> int:
        return len(self.levels[0]) // DIGEST_SIZE

    @property
    def root(self) -> Digest:
        return self.levels[-1]


def build_tree(leaves: Sequence[Digest]) -> MerkleTree:
    """Build a complete tree over a power-of-two number of leaf digests.

    The leaves are checked as verify_multi checks its leaves, then joined
    into one buffer a block of _BLOCK_FIELDS leaves at a time. Each level
    above is hashed in blocks of digest pairs; see _blocks for what that
    holds.
    """
    count = len(leaves)
    if not _is_power_of_two(count):
        raise ValueError(f"leaf count must be a power of two >= 1, got {count}")
    if not _all_digests(leaves):
        raise ValueError("leaves must be 32-byte digests")
    return _tree_over(b"".join([b"".join(leaves[i : i + _BLOCK_FIELDS]) for i in range(0, count, _BLOCK_FIELDS)]))


def _tree_over(leaf_level: bytes) -> MerkleTree:
    """The tree whose leaf level is ``leaf_level``, a power-of-two number of digests.

    Each level above is the node digest of each 64-byte pair of the level
    below, hashed straight from its block's one cut.
    """
    levels = [leaf_level]
    while len(levels[-1]) > DIGEST_SIZE:
        blocks = _blocks(levels[-1], 2 * DIGEST_SIZE)
        levels.append(b"".join([b"".join(_node_hashes(pairs)) for _, pairs in blocks]))
    return MerkleTree(levels=tuple(levels))


def _node_hashes(pairs) -> list[Digest]:
    """SHA-256(0x01 || pair) of each 64-byte pair of children, in order, each from a copy of _NODE_STATE."""
    copy = _NODE_STATE.copy
    digests = []
    for pair in pairs:
        state = copy()
        state.update(pair)
        digests.append(state.digest())
    return digests


def _blocks(buffer: bytes, width: int) -> Iterator[tuple[int, tuple[bytes, ...]]]:
    """``buffer`` cut into ``width``-byte fields: (index of the first field, fields) per block.

    Each block is cut by one C-level unpack_from, not by a slice per field.
    A block holds at most _BLOCK_FIELDS fields, so its layout stays small,
    and at most _BLOCK_BYTES bytes, so large chunks are not all copied out at
    once. ``width`` is at most _BLOCK_BYTES, the largest chunk size.

    This is the memory bound of a build. The leaf pass of tree.build and
    each level pass of _tree_over hash one block at a time, one field at a
    time, and join its digests at once, so beyond the tree they return
    they hold one block of field and digest objects (under 0.2 MB at the
    largest chunk size, under 0.1 MB for a block of digest pairs) and the
    joined blocks of the level in progress. Those are the size of the
    levels still to come, so a build peaks about one block above the
    finished tree. A level of one block is returned as it is joined,
    without a second copy.
    """
    count = len(buffer) // width
    step = min(_BLOCK_FIELDS, _BLOCK_BYTES // width)
    for start in range(0, count, step):
        yield start, _layout(min(step, count - start), width).unpack_from(buffer, start * width)


def _split(section: bytes, width: int) -> tuple[bytes, ...]:
    """``section`` cut into ``width``-byte fields, one C-level unpack per block of fields.

    A section of up to _BLOCK_FIELDS fields takes one unpack; a longer one is
    cut block by block, so no layout a proof's counts call for holds more
    than _BLOCK_FIELDS fields.
    """
    count = len(section) // width
    if count <= _BLOCK_FIELDS:
        return _layout(count, width).unpack(section)
    return tuple(chain.from_iterable(fields for _, fields in _blocks(section, width)))


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _layout(count: int, width: int) -> struct.Struct:
    """The layout of ``count`` adjacent ``width``-byte fields, compiled once per (count, width)."""
    return struct.Struct(count * f"{width}s")


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

    leaf_indices must be strictly increasing, in range and exact ints (no
    bool or other subclass). The proof holds only the sibling digests the
    verifier cannot recompute, in the canonical schedule order described in
    the module docstring. Requesting all leaves yields an empty proof;
    requesting one leaf yields its sibling path, one digest per level.
    """
    known = list(leaf_indices)
    if not _are_leaf_indices(known, tree.leaf_count):
        raise ValueError(f"leaf indices must be strictly increasing ints in [0, {tree.leaf_count})")
    return _prove(tree, known)


def _prove(tree: MerkleTree, known: list[int]) -> list[Digest]:
    """prove_multi over ``tree``, for leaf indices its caller has checked.

    The frontier loop cuts each digest out of a flat level below the top
    _KEPT_LEVELS; from there _walk reads the rest of the schedule off the
    tree's digest tuples, which the tree's first proof cuts.
    """
    size = DIGEST_SIZE
    proof = []
    send, unsend = proof.append, proof.pop
    levels = tree.levels
    digests = tree._digests
    if digests is None:
        digests = tuple([_split(level, size) for level in levels[-_KEPT_LEVELS:]])
        object.__setattr__(tree, "_digests", digests)
    for level in levels[:-_KEPT_LEVELS]:
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
    return _walk(digests, known, proof)


def verify_multi(
    root: Digest,
    leaf_entries: Sequence[tuple[int, Digest]],
    leaf_count: int,
    proof: Sequence[Digest],
) -> bool:
    """Replay the prove_multi schedule, consuming proof digests in order.

    leaf_entries are (leaf_index, digest) pairs sorted by strictly
    increasing index, each index an exact int (a bool is not). True iff the
    reconstructed root matches and the proof is consumed exactly: underflow,
    leftovers, duplicate or out-of-range indices all yield False, as does any
    other malformed input.
    """
    try:
        positions, nodes = zip(*leaf_entries, strict=True)
        proof = list(proof)
    except (TypeError, ValueError):
        return False
    if not _is_power_of_two(leaf_count) or not _is_digest(root):
        return False
    if not _are_leaf_indices(positions, leaf_count) or not _all_digests(nodes):
        return False
    return _verify_leaves(root, positions, nodes, leaf_count.bit_length() - 1, proof)


def _verify_leaves(
    root: Digest,
    positions: Sequence[int],
    nodes: Sequence[Digest],
    depth: int,
    proof: Sequence[Digest],
) -> bool:
    """verify_multi for leaves its caller has checked, in a tree of 2**depth leaves.

    The caller vouches for the root and for the leaves: a non-empty, strictly
    increasing run of in-range int positions and one digest each. Only the
    proof's digests, which nobody vouched for, are checked here.

    The leaves are hashed up to the lowest level _kept holds. If the record
    is this (root, depth)'s and holds every node reached there (an unseen
    slot is None, which equals no digest), the rest of the proof must be what
    _walk reads off the kept levels, and nothing more is hashed. Otherwise
    the nodes are hashed on to the root, and a fold that reproduces it is
    copied into the record.
    """
    if not _all_digests(proof):
        return False
    bottom = max(depth + 1 - _KEPT_LEVELS, 0)
    folded = _fold(positions, nodes, proof, 0, bottom, depth, [])
    if folded is None:
        return False
    positions, nodes, cursor = folded
    kept = _kept_levels(root, depth)
    if kept is not None and list(map(kept[0].__getitem__, positions)) == list(nodes):
        return list(proof[cursor:]) == _walk(kept, positions, [])
    seen = []
    folded = _fold(positions, nodes, proof, cursor, depth - bottom, depth - bottom, seen)
    if folded is None or folded[1][0] != root:
        return False
    _keep(root, depth, bottom, seen)
    return True


def _fold(positions, nodes, proof, cursor, steps, levels_left, seen):
    """Hash the frontier (positions, nodes) ``steps`` levels up, reading unknown siblings from proof[cursor:].

    Returns the frontier reached and the new cursor, or None on a proof
    underflow. Once the frontier is one node, the rest of the proof must be
    exactly one sibling per level of ``levels_left`` still left, which is
    checked before that node is hashed any further. Each level folded appends
    (parent positions, pairs) to ``seen``: the pair of parent q is its two
    children, bytes [64q, 64q + 64) of the level below, and is hashed as in
    _node_hashes. A pair is a bytearray where a caller's bytearray is in it.
    """
    copy = _NODE_STATE.copy
    available = len(proof)
    # Distinct in-range positions narrow to one node by the root level at the latest.
    while len(positions) > 1:
        if not steps:
            return positions, nodes, cursor
        count = len(positions)
        parents = []
        pairs = []
        i = 0
        while i < count:
            pos = positions[i]
            node = nodes[i]
            if i + 1 < count and positions[i + 1] == pos ^ 1:
                pairs.append(node + nodes[i + 1])
                i += 2
            else:
                if cursor == available:
                    return None  # proof underflow
                sibling = proof[cursor]
                cursor += 1
                pairs.append(sibling + node if pos & 1 else node + sibling)
                i += 1
            parents.append(pos >> 1)
        seen.append((parents, pairs))
        positions = parents
        nodes = _node_hashes(pairs)
        steps -= 1
        levels_left -= 1
    if available - cursor != levels_left:
        return None  # the rest of the proof must be exactly one sibling per level left
    pos = positions[0]
    node = nodes[0]
    for sibling in proof[cursor : cursor + steps]:
        pair = sibling + node if pos & 1 else node + sibling
        pos >>= 1
        seen.append(((pos,), (pair,)))
        state = copy()
        state.update(pair)
        node = state.digest()
    return [pos], [node], cursor + steps


def _kept_levels(root: Digest, depth: int) -> list | None:
    """The kept levels if the record is the tree of this root and depth, else None."""
    kept_root, kept_depth, levels = _kept
    return levels if kept_depth == depth and kept_root == root else None


def _walk(levels: Sequence[Sequence[Digest]], known: Sequence[int], proof: list[Digest]) -> list[Digest]:
    """Append to ``proof`` the multiproof schedule from frontier ``known`` at levels[0], each digest read by index.

    The one reader of digest lists: levels are the top _KEPT_LEVELS levels
    of a tree, a MerkleTree's digest tuples or the verifier's record (at
    most 2**14 - 1 digests each), the root level last. The nodes read
    are the siblings of the frontier and of its ancestors. Once the frontier
    is one node, the rest is its sibling path.
    """
    send, unsend = proof.append, proof.pop
    t = 0
    while len(known) > 1:
        level = levels[t]
        parents = []
        last = -1
        for pos in known:
            parent = pos >> 1
            if parent == last:
                unsend()  # pos is the sibling its left neighbour asked for: known, not sent
            else:
                send(level[pos ^ 1])
                parents.append(parent)
                last = parent
        known = parents
        t += 1
    pos = known[0]
    for level in levels[t:-1]:
        send(level[pos ^ 1])
        pos >>= 1
    return proof


def _keep(root: Digest, depth: int, bottom: int, seen: list) -> None:
    """Copy what a fold from level ``bottom`` that reproduced ``root`` saw into the record, the top level first.

    A record of another (root, depth) is replaced by a new one of all-None
    levels. Each digest is new, exact bytes, cut from a pair and converted
    where the pair is a bytearray, and the root is copied, so no caller's
    bytearray is held. Written top down, one pair of children at a time
    under a parent already held, the nodes held stay closed under sibling
    and parent after every write, so a verify that reads the record between
    two writes still reads only digests a fold vouched for.
    """
    global _kept
    levels = _kept_levels(root, depth)
    if levels is None:
        key = bytes(root)
        levels = [[None] * (1 << (depth - t)) for t in range(bottom, depth)] + [[key]]
        _kept = (key, depth, levels)
    for level, (parents, pairs) in reversed(list(zip(levels, seen))):
        for parent, pair in zip(parents, pairs):
            level[2 * parent : 2 * parent + 2] = bytes(pair[:32]), bytes(pair[32:])


def _is_power_of_two(value) -> bool:
    return type(value) is int and value >= 1 and not value & (value - 1)


def _is_bytes(value) -> bool:
    """True iff ``value`` is exactly a bytes or a bytearray.

    Like the ints of _is_power_of_two and _are_leaf_indices, the type is
    compared by identity. A subclass could override what a verifier reads of
    it (indexing, concatenation, comparison), and a class whose metaclass
    claims equality with bytes would pass a set or tuple lookup.
    """
    kind = type(value)
    return kind is bytes or kind is bytearray


def _is_digest(value) -> bool:
    return _is_bytes(value) and len(value) == DIGEST_SIZE


def _all_digests(values: Sequence) -> bool:
    """_is_digest for every value: _is_bytes inlined in one pass over the types, then one over the lengths."""
    if [kind for kind in map(type, values) if kind is not bytes and kind is not bytearray]:
        return False
    return set(map(len, values)) <= {DIGEST_SIZE}


def _are_leaf_indices(indices: Sequence[int], leaf_count: int) -> bool:
    """A non-empty, strictly increasing run of exact ints in [0, leaf_count)."""
    if not indices or not all(type(i) is int for i in indices):
        return False
    return 0 <= indices[0] and indices[-1] < leaf_count and all(map(operator.lt, indices, indices[1:]))
