"""build_tree, prove_multi and verify_multi against the reference replay in tests/spec.py."""

import ast
import pathlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from bloomtree.merkle import build_tree, prove_multi, verify_multi

LEAF_COUNT = 1024
DEPTH = 10
LEAVES = [random.Random(f"oracle-leaf-{i}").randbytes(32) for i in range(LEAF_COUNT)]
TREE = build_tree(LEAVES)
LEVELS = spec.levels(LEAVES)
# A tree deeper than the digest tuples a MerkleTree's first proof cuts (its
# top 14 levels): its proofs start in the two flat levels below them.
DEEP_COUNT = 1 << 15
DEEP_LEAVES = [random.Random(f"oracle-deep-leaf-{i}").randbytes(32) for i in range(DEEP_COUNT)]
DEEP_TREE = build_tree(DEEP_LEAVES)
DEEP_LEVELS = spec.levels(DEEP_LEAVES)


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


def test_the_spec_imports_only_hashlib_and_struct():
    # The reference shares no code with the library it checks.
    tree = ast.parse(pathlib.Path(spec.__file__).read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(n, ast.Import) for n in imports)
    assert sorted(a.name for n in imports for a in n.names) == ["hashlib", "struct"]


def test_only_the_spec_spells_out_the_params_layout():
    # The v1 byte layout lives in tests/spec.py alone, so a version bump changes it in one place.
    pattern = "<" + "QII"  # split, so this file does not hold it
    tests = pathlib.Path(__file__).parent.glob("test_*.py")
    assert [path.name for path in tests if pattern in path.read_text(encoding="utf-8")] == []


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
        assert build_tree(leaves).levels == tuple(b"".join(level) for level in spec.levels(leaves)), count


@settings(max_examples=300, deadline=None)
@given(
    subset=st.sets(st.integers(0, LEAF_COUNT - 1), min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiproof_matches_the_oracle(subset, seed):
    indices = sorted(subset)
    proof = prove_multi(TREE, indices)
    assert proof == spec.multiproof(LEVELS, indices)
    entries = [(i, LEAVES[i]) for i in indices]
    assert verify_multi(TREE.root, entries, LEAF_COUNT, proof)
    assert spec.fold(entries, DEPTH, proof) == TREE.root
    for name, mutated_entries, mutated_proof in mutations(entries, proof, random.Random(seed)):
        expected = spec.fold(mutated_entries, DEPTH, mutated_proof) == TREE.root
        assert not expected, name  # the leaves and nodes are distinct, so every mutation changes something
        assert verify_multi(TREE.root, mutated_entries, LEAF_COUNT, mutated_proof) == expected, name


@settings(max_examples=200, deadline=None)
@given(
    width=st.sampled_from([2, 4, 8, 64, DEEP_COUNT]),
    start=st.integers(0, DEEP_COUNT - 1),
    data=st.data(),
)
def test_multiproof_past_the_digest_tuples_matches_the_oracle(width, start, data):
    # Leaves drawn from one aligned window of ``width``: the frontier narrows
    # to one node below the lowest digest tuple (width 2), at it (4) or above it.
    low = start - start % width
    subset = data.draw(st.sets(st.integers(low, low + width - 1), min_size=1, max_size=64))
    indices = sorted(subset)
    proof = prove_multi(DEEP_TREE, indices)
    assert proof == spec.multiproof(DEEP_LEVELS, indices)
    assert verify_multi(DEEP_TREE.root, [(i, DEEP_LEAVES[i]) for i in indices], DEEP_COUNT, proof)


def test_dense_and_sparse_extremes_match_the_oracle():
    for indices in ([0], [LEAF_COUNT - 1], list(range(LEAF_COUNT)), list(range(0, LEAF_COUNT, 2)), [511, 512]):
        proof = prove_multi(TREE, indices)
        assert proof == spec.multiproof(LEVELS, indices)
        assert len(proof) <= len(indices) * DEPTH
        assert verify_multi(TREE.root, [(i, LEAVES[i]) for i in indices], LEAF_COUNT, proof)
    # On the deep tree: one node from the leaf level, below the lowest digest
    # tuple (level 1), at it (level 2), above it, and no sibling pairs at all.
    last = DEEP_COUNT - 1
    for indices in ([5], [6, 7], [4, 7], [0, 8], [0, last], list(range(0, DEEP_COUNT, 4)), list(range(DEEP_COUNT))):
        proof = prove_multi(DEEP_TREE, indices)
        assert proof == spec.multiproof(DEEP_LEVELS, indices)
        assert verify_multi(DEEP_TREE.root, [(i, DEEP_LEAVES[i]) for i in indices], DEEP_COUNT, proof)


def test_one_leaf_multiproof_matches_the_oracle_at_every_leaf():
    # A one-leaf multiproof is the plain sibling path: check it at all 1,024
    # leaves, honest and with a cut, an extended or a flipped path, or the
    # neighbouring index.
    for i in range(LEAF_COUNT):
        proof = prove_multi(TREE, [i])
        assert proof == spec.multiproof(LEVELS, [i])
        assert len(proof) == DEPTH
        entries = [(i, LEAVES[i])]
        assert verify_multi(TREE.root, entries, LEAF_COUNT, proof)
        assert spec.fold(entries, DEPTH, proof) == TREE.root
        at = i % DEPTH
        flipped = bytearray(proof[at])
        flipped[i % 32] ^= 1
        for name, mutated_entries, mutated_proof in (
            ("cut path", entries, proof[:-1]),
            ("extended path", entries, proof + [LEAVES[i]]),
            ("flipped digest", entries, proof[:at] + [bytes(flipped)] + proof[at + 1 :]),
            ("neighbouring index", [(i ^ 1, LEAVES[i])], proof),
        ):
            expected = spec.fold(mutated_entries, DEPTH, mutated_proof) == TREE.root
            assert not expected, name
            assert verify_multi(TREE.root, mutated_entries, LEAF_COUNT, mutated_proof) == expected, name
