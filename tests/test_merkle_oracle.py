"""The multiproof against a straightforward reference replay.

``oracle_prove`` and ``oracle_verify`` are the plain schedule over levels
kept as tuples of per-node digests: one frontier of (position, digest)
pairs walked level by level, one node_hash per parent. They are the
reference the flat-buffer prove_multi / verify_multi must agree with, on
honest proofs and on every mutation below.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bloomtree.merkle import build_tree, node_hash, prove_multi, verify_multi

LEAF_COUNT = 1024
DEPTH = 10


def oracle_levels(leaves):
    levels = [tuple(leaves)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(tuple(node_hash(prev[j], prev[j + 1]) for j in range(0, len(prev), 2)))
    return levels


def oracle_prove(levels, indices):
    known = list(indices)
    proof = []
    for level in levels[:-1]:
        parents = []
        i = 0
        while i < len(known):
            pos = known[i]
            if i + 1 < len(known) and known[i + 1] == pos ^ 1:
                i += 2
            else:
                proof.append(level[pos ^ 1])
                i += 1
            parents.append(pos >> 1)
        known = parents
    return proof


def oracle_verify(root, entries, leaf_count, proof):
    positions = [index for index, _ in entries]
    if not positions or positions != sorted(set(positions)) or positions[0] < 0 or positions[-1] >= leaf_count:
        return False
    if any(len(d) != 32 for _, d in entries) or any(len(d) != 32 for d in proof):
        return False
    frontier = list(entries)
    cursor = 0
    for _ in range(leaf_count.bit_length() - 1):
        parents = []
        i = 0
        while i < len(frontier):
            pos, digest = frontier[i]
            if i + 1 < len(frontier) and frontier[i + 1][0] == pos ^ 1:
                parent = node_hash(digest, frontier[i + 1][1])
                i += 2
            else:
                if cursor >= len(proof):
                    return False
                sibling = proof[cursor]
                cursor += 1
                parent = node_hash(sibling, digest) if pos & 1 else node_hash(digest, sibling)
                i += 1
            parents.append((pos >> 1, parent))
        frontier = parents
    return cursor == len(proof) and frontier[0][1] == root


LEAVES = [random.Random(f"oracle-leaf-{i}").randbytes(32) for i in range(LEAF_COUNT)]
TREE = build_tree(LEAVES)
LEVELS = oracle_levels(LEAVES)


def mutations(entries, proof, rng):
    """(name, entries, proof) variants the verifier must judge like the oracle."""
    out = []
    if proof:
        at = rng.randrange(len(proof))
        flipped = bytearray(proof[at])
        flipped[rng.randrange(32)] ^= 1 << rng.randrange(8)
        out.append(("flipped digest", entries, proof[:at] + [bytes(flipped)] + proof[at + 1 :]))
        out.append(("dropped digest", entries, proof[:at] + proof[at + 1 :]))
    out.append(("extra digest", entries, proof + [rng.randbytes(32)]))
    if len(proof) >= 2:
        a, b = sorted(rng.sample(range(len(proof)), 2))
        swapped = list(proof)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        out.append(("swapped digests", entries, swapped))
    if len(entries) >= 2:
        a, b = sorted(rng.sample(range(len(entries)), 2))
        relabeled = list(entries)
        relabeled[a] = (entries[a][0], entries[b][1])
        relabeled[b] = (entries[b][0], entries[a][1])
        out.append(("swapped indices", relabeled, proof))
    return out


def test_oracle_levels_match_the_tree():
    assert TREE.root == LEVELS[-1][0]
    for t, level in enumerate(LEVELS):
        assert b"".join(level) == TREE.levels[t]
    # Every power-of-two leaf count up to 2^15, so the wide levels span several
    # blocks of a build.
    rng = random.Random("oracle-levels")
    for count in (1 << e for e in range(16)):
        blob = rng.randbytes(32 * count)
        leaves = [blob[i : i + 32] for i in range(0, len(blob), 32)]
        assert build_tree(leaves).levels == tuple(b"".join(level) for level in oracle_levels(leaves)), count


@settings(max_examples=300, deadline=None)
@given(
    subset=st.sets(st.integers(0, LEAF_COUNT - 1), min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiproof_matches_the_oracle(subset, seed):
    indices = sorted(subset)
    proof = prove_multi(TREE, indices)
    assert proof == oracle_prove(LEVELS, indices)
    entries = [(i, LEAVES[i]) for i in indices]
    assert verify_multi(TREE.root, entries, LEAF_COUNT, proof)
    assert oracle_verify(TREE.root, entries, LEAF_COUNT, proof)
    for name, mutated_entries, mutated_proof in mutations(entries, proof, random.Random(seed)):
        expected = oracle_verify(TREE.root, mutated_entries, LEAF_COUNT, mutated_proof)
        assert not expected, name  # the leaves and nodes are distinct, so every mutation changes something
        assert verify_multi(TREE.root, mutated_entries, LEAF_COUNT, mutated_proof) == expected, name


def test_dense_and_sparse_extremes_match_the_oracle():
    for indices in ([0], [LEAF_COUNT - 1], list(range(LEAF_COUNT)), list(range(0, LEAF_COUNT, 2)), [511, 512]):
        proof = prove_multi(TREE, indices)
        assert proof == oracle_prove(LEVELS, indices)
        assert len(proof) <= len(indices) * DEPTH
        assert verify_multi(TREE.root, [(i, LEAVES[i]) for i in indices], LEAF_COUNT, proof)


def test_one_leaf_multiproof_matches_the_oracle_at_every_leaf():
    # A one-leaf multiproof is the plain sibling path: check it at all 1,024
    # leaves, honest and with a cut, an extended or a flipped path, or the
    # neighbouring index.
    for i in range(LEAF_COUNT):
        proof = prove_multi(TREE, [i])
        assert proof == oracle_prove(LEVELS, [i])
        assert len(proof) == DEPTH
        entries = [(i, LEAVES[i])]
        assert verify_multi(TREE.root, entries, LEAF_COUNT, proof)
        assert oracle_verify(TREE.root, entries, LEAF_COUNT, proof)
        at = i % DEPTH
        flipped = bytearray(proof[at])
        flipped[i % 32] ^= 1
        for name, mutated_entries, mutated_proof in (
            ("cut path", entries, proof[:-1]),
            ("extended path", entries, proof + [LEAVES[i]]),
            ("flipped digest", entries, proof[:at] + [bytes(flipped)] + proof[at + 1 :]),
            ("neighbouring index", [(i ^ 1, LEAVES[i])], proof),
        ):
            expected = oracle_verify(TREE.root, mutated_entries, LEAF_COUNT, mutated_proof)
            assert not expected, name
            assert verify_multi(TREE.root, mutated_entries, LEAF_COUNT, mutated_proof) == expected, name
