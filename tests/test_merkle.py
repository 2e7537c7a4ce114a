import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloomtree.merkle import (
    MerkleTree,
    build_tree,
    node_hash,
    prove_multi,
    prove_single,
    verify_multi,
    verify_single,
)

# Computed once with a standalone SHA-256 tool over 0x01 || 0x11*32 || 0x22*32.
NODE_GOLDEN_AB = "1d8f52d3ec81ac02cd97cb3281523be47af850c0f0295af866f04bc245f46bbf"
NODE_GOLDEN_BA = "4d407e7ac6aff1cd1d99ecb1ec91ac3697c8b1d355c4938754e9edc69ba04961"


def leaves_for(count, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(32) for _ in range(count)]


def entries_for(tree: MerkleTree, subset):
    return [(i, tree.node(0, i)) for i in subset]


def flip_byte(digest: bytes, offset: int = 0) -> bytes:
    corrupted = bytearray(digest)
    corrupted[offset] ^= 0x01
    return bytes(corrupted)


class TestNodeHash:
    def test_golden_vector(self):
        a, b = bytes([0x11]) * 32, bytes([0x22]) * 32
        assert node_hash(a, b).hex() == NODE_GOLDEN_AB
        assert node_hash(b, a).hex() == NODE_GOLDEN_BA

    def test_order_sensitive(self):
        a, b = bytes(32), bytes([1]) * 32
        assert node_hash(a, b) != node_hash(b, a)

    def test_output_length(self):
        assert len(node_hash(bytes(32), bytes(32))) == 32


class TestBuildTree:
    def test_single_leaf_is_root(self):
        leaf = leaves_for(1)[0]
        tree = build_tree([leaf])
        assert tree.root == leaf
        assert tree.depth == 0

    def test_two_leaves(self):
        a, b = leaves_for(2)
        assert build_tree([a, b]).root == node_hash(a, b)

    def test_four_leaves_unrolled(self):
        l0, l1, l2, l3 = leaves_for(4)
        tree = build_tree([l0, l1, l2, l3])
        assert tree.root == node_hash(node_hash(l0, l1), node_hash(l2, l3))

    @pytest.mark.parametrize("count", [0, 3, 5, 6, 7, 9, 12])
    def test_rejects_non_power_of_two(self, count):
        with pytest.raises(ValueError):
            build_tree(leaves_for(count))

    def test_rejects_wrong_digest_size(self):
        with pytest.raises(ValueError):
            build_tree([b"short", b"x" * 32])

    def test_level_shape(self):
        tree = build_tree(leaves_for(8))
        assert [len(level) for level in tree.levels] == [8 * 32, 4 * 32, 2 * 32, 32]
        for t in range(1, 4):
            for i in range(8 >> t):
                assert tree.node(t, i) == node_hash(tree.node(t - 1, 2 * i), tree.node(t - 1, 2 * i + 1))

    def test_node_out_of_range(self):
        tree = build_tree(leaves_for(4))
        for level, index in ((0, 4), (0, -1), (1, 2), (2, 1)):
            with pytest.raises(IndexError):
                tree.node(level, index)


class TestSingleProof:
    """One-leaf multiproofs: the plain bottom-up sibling path."""

    def test_single_leaf_empty_path(self):
        tree = build_tree(leaves_for(1))
        assert prove_multi(tree, [0]) == []
        assert verify_multi(tree.root, [(0, tree.node(0, 0))], 1, [])

    def test_four_leaf_sibling_walk(self):
        tree = build_tree(leaves_for(4))
        assert prove_multi(tree, [3]) == [tree.node(0, 2), tree.node(1, 0)]

    def test_eight_leaf_path_length(self):
        tree = build_tree(leaves_for(8))
        assert len(prove_multi(tree, [5])) == 3

    def test_out_of_range_index(self):
        tree = build_tree(leaves_for(4))
        with pytest.raises(ValueError):
            prove_multi(tree, [4])

    @pytest.mark.parametrize("count", [1, 2, 4, 8, 16])
    def test_round_trip_every_index(self, count):
        tree = build_tree(leaves_for(count, seed=count))
        for i in range(count):
            proof = prove_multi(tree, [i])
            assert verify_multi(tree.root, [(i, tree.node(0, i))], count, proof)

    def test_mutated_path_digest_fails(self):
        tree = build_tree(leaves_for(16, seed=3))
        rng = random.Random(99)
        for _ in range(100):
            i = rng.randrange(16)
            proof = prove_multi(tree, [i])
            level = rng.randrange(len(proof))
            proof[level] = flip_byte(proof[level], rng.randrange(32))
            assert not verify_multi(tree.root, [(i, tree.node(0, i))], 16, proof)

    def test_wrong_index_fails(self):
        tree = build_tree(leaves_for(16, seed=4))
        proof = prove_multi(tree, [5])
        assert not verify_multi(tree.root, [(6, tree.node(0, 5))], 16, proof)

    def test_wrong_proof_length_is_false_not_raise(self):
        tree = build_tree(leaves_for(4))
        proof = prove_multi(tree, [1])
        entries = [(1, tree.node(0, 1))]
        assert not verify_multi(tree.root, entries, 4, proof[:1])
        assert not verify_multi(tree.root, entries, 4, proof + [bytes(32)])

    def test_garbage_inputs_are_false(self):
        tree = build_tree(leaves_for(4))
        proof = prove_multi(tree, [0])
        leaf = tree.node(0, 0)
        assert not verify_multi(tree.root, [(0, leaf)], 5, proof)  # not a power of two
        assert not verify_multi(tree.root, [(-1, leaf)], 4, proof)
        assert not verify_multi(b"short", [(0, leaf)], 4, proof)
        assert not verify_multi(tree.root, [(0, b"short")], 4, proof)
        assert not verify_multi(tree.root, [(0, leaf)], 4, [b"short", b"x"])
        assert not verify_multi(tree.root, [(0, leaf)], 4, None)

    def test_inner_node_posing_as_a_leaf_is_false(self):
        # An inner node's digest with its own, shorter path folds to the root;
        # only the path-length check tells it from a leaf.
        tree = build_tree(leaves_for(8, seed=5))
        for i in range(8):
            path = prove_multi(tree, [i])
            inner = [(i >> 1, tree.node(1, i >> 1))]
            assert not verify_multi(tree.root, inner, 8, path[1:])
            assert not verify_multi(tree.root, inner, 8, path)
        pair = [(0, tree.node(1, 0)), (1, tree.node(1, 1))]
        assert not verify_multi(tree.root, pair, 8, [tree.node(2, 1)])

    def test_bool_leaf_index_is_false(self):
        # True == 1, so without the check a valid proof for leaf 1 would pass
        tree = build_tree(leaves_for(4))
        proof = prove_multi(tree, [1])
        leaf = tree.node(0, 1)
        assert verify_multi(tree.root, [(1, leaf)], 4, proof)
        assert not verify_multi(tree.root, [(True, leaf)], 4, proof)
        assert not verify_multi(tree.root, [(False, tree.node(0, 0))], 4, prove_multi(tree, [0]))

    def test_int_subclass_indices_count_as_ints(self):
        # bool is the one int subclass refused; any other indexes like its value
        class Index(int):
            pass

        tree = build_tree(leaves_for(16, seed=12))
        for subset in ([Index(5)], [3, Index(9)], [Index(0), Index(1), 15]):
            proof = prove_multi(tree, subset)
            assert proof == prove_multi(tree, [int(i) for i in subset])
            assert verify_multi(tree.root, entries_for(tree, subset), 16, proof)
        for bad in ([Index(16)], [Index(-1)], [Index(4), Index(4)], [Index(3), True]):
            with pytest.raises(ValueError):
                prove_multi(tree, bad)
            assert not verify_multi(tree.root, [(i, tree.node(0, 3)) for i in bad], 16, prove_multi(tree, [3]))

    def test_single_aliases_are_the_one_leaf_multiproof(self):
        tree = build_tree(leaves_for(16, seed=10))
        for i in (0, 7, 15):
            proof = prove_multi(tree, [i])
            leaf = tree.node(0, i)
            assert verify_single(tree.root, leaf, i, 16, proof)
            for index, candidate in ((i, proof[:-1]), (i ^ 1, proof), (True, proof)):
                assert verify_single(tree.root, leaf, index, 16, candidate) == verify_multi(
                    tree.root, [(index, leaf)], 16, candidate
                )
                assert not verify_single(tree.root, leaf, index, 16, candidate)


class TestMultiProof:
    def test_all_leaves_need_no_proof(self):
        tree = build_tree(leaves_for(8))
        assert prove_multi(tree, list(range(8))) == []
        assert verify_multi(tree.root, entries_for(tree, range(8)), 8, [])

    def test_three_of_eight_takes_four_hashes(self):
        # hand-walked schedule: level-0 siblings 1, 2, 7 then level-1 node 2
        tree = build_tree(leaves_for(8, seed=8))
        proof = prove_multi(tree, [0, 3, 6])
        assert proof == [
            tree.node(0, 1),
            tree.node(0, 2),
            tree.node(0, 7),
            tree.node(1, 2),
        ]
        singles = sum(len(prove_multi(tree, [i])) for i in (0, 3, 6))
        assert singles == 9

    def test_adjacent_pair_skips_leaf_level(self):
        tree = build_tree(leaves_for(8, seed=9))
        assert prove_multi(tree, [0, 1]) == [tree.node(1, 1), tree.node(2, 1)]

    def test_single_index_equals_single_proof(self):
        tree = build_tree(leaves_for(16, seed=10))
        for i in (0, 7, 15):
            assert prove_multi(tree, [i]) == prove_single(tree, i)

    @pytest.mark.parametrize("bad", [[], [1, 1], [2, 1], [0, 8], [-1]])
    def test_rejects_bad_index_sets(self, bad):
        tree = build_tree(leaves_for(8))
        with pytest.raises(ValueError):
            prove_multi(tree, bad)

    def test_deterministic(self):
        tree = build_tree(leaves_for(16, seed=11))
        assert prove_multi(tree, [1, 6, 9]) == prove_multi(tree, [1, 6, 9])

    def test_exhaustive_subsets_round_trip(self):
        for count in (1, 2, 4, 8):
            tree = build_tree(leaves_for(count, seed=count + 20))
            for size in range(1, count + 1):
                for subset in itertools.combinations(range(count), size):
                    proof = prove_multi(tree, list(subset))
                    assert verify_multi(tree.root, entries_for(tree, subset), count, proof)

    def test_compression_is_never_worse_than_singles(self):
        rng = random.Random(77)
        for _ in range(50):
            depth = rng.randrange(1, 6)
            count = 1 << depth
            tree = build_tree(leaves_for(count, seed=rng.random()))
            subset = sorted(rng.sample(range(count), rng.randrange(1, count + 1)))
            proof = prove_multi(tree, subset)
            assert len(proof) <= len(subset) * depth
            if len(subset) == 1:
                assert len(proof) == depth

    def test_extra_trailing_digest_fails(self):
        tree = build_tree(leaves_for(8, seed=30))
        subset = [2, 5]
        proof = prove_multi(tree, subset)
        assert not verify_multi(tree.root, entries_for(tree, subset), 8, proof + [bytes(32)])

    def test_underflow_fails(self):
        tree = build_tree(leaves_for(8, seed=31))
        subset = [2, 5]
        proof = prove_multi(tree, subset)
        assert not verify_multi(tree.root, entries_for(tree, subset), 8, proof[:-1])

    def test_every_digest_mutation_fails(self):
        tree = build_tree(leaves_for(16, seed=32))
        subset = [0, 3, 6, 11]
        proof = prove_multi(tree, subset)
        entries = entries_for(tree, subset)
        for position in range(len(proof)):
            mutated = list(proof)
            mutated[position] = flip_byte(mutated[position])
            assert not verify_multi(tree.root, entries, 16, mutated)

    def test_soundness_probe_leaf_replacement(self):
        # 1000 random forgery attempts, zero accepted
        tree = build_tree(leaves_for(16, seed=33))
        rng = random.Random(34)
        for _ in range(1000):
            subset = sorted(rng.sample(range(16), rng.randrange(1, 17)))
            proof = prove_multi(tree, subset)
            entries = entries_for(tree, subset)
            victim = rng.randrange(len(entries))
            index, _ = entries[victim]
            entries[victim] = (index, rng.randbytes(32))
            assert not verify_multi(tree.root, entries, 16, proof)

    @pytest.mark.parametrize(
        "entries",
        [
            [],
            [(0, bytes(32)), (0, bytes(32))],
            [(1, bytes(32)), (0, bytes(32))],
            [(8, bytes(32))],
            [(0, b"short")],
        ],
    )
    def test_malformed_entries_are_false(self, entries):
        tree = build_tree(leaves_for(8, seed=35))
        assert not verify_multi(tree.root, entries, 8, [])

    def test_single_pass_iterables_are_materialized(self):
        # generators must behave exactly like lists, not silently verify less
        tree = build_tree(leaves_for(8, seed=36))
        proof = prove_multi(tree, (i for i in (0, 3, 6)))
        assert proof == prove_multi(tree, [0, 3, 6])
        assert verify_multi(tree.root, ((i, tree.node(0, i)) for i in (0, 3, 6)), 8, proof)
        assert not verify_multi(tree.root, iter([]), 8, [])

    @given(
        depth=st.integers(min_value=0, max_value=5),
        data=st.data(),
    )
    def test_random_subset_round_trip(self, depth, data):
        count = 1 << depth
        tree = build_tree(leaves_for(count, seed=depth))
        subset = sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))
        proof = prove_multi(tree, subset)
        assert verify_multi(tree.root, entries_for(tree, subset), count, proof)
