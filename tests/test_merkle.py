import array
import copy
import itertools
import pickle
import random
import sys
import threading
import tracemalloc
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spec
from bloomtree import cli, codec, merkle
from bloomtree.bloom import BloomFilter, BloomParams
from bloomtree.merkle import (
    MerkleTree,
    build_tree,
    prove_multi,
    prove_single,
    verify_multi,
    verify_single,
)
from bloomtree.tree import PresenceProof, build, prove

# Computed once with a standalone SHA-256 tool over 0x01 || 0x11*32 || 0x22*32.
NODE_GOLDEN_AB = "1d8f52d3ec81ac02cd97cb3281523be47af850c0f0295af866f04bc245f46bbf"
NODE_GOLDEN_BA = "4d407e7ac6aff1cd1d99ecb1ec91ac3697c8b1d355c4938754e9edc69ba04961"


def leaves_for(count, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(32) for _ in range(count)]


def entries_for(leaves, subset):
    return [(i, leaves[i]) for i in subset]


def node(tree: MerkleTree, level: int, index: int) -> bytes:
    """Node ``index`` of level ``level``, at bytes [32 * index, 32 * index + 32) of that level."""
    return tree.levels[level][32 * index : 32 * index + 32]


def no_hashing():
    """A stand-in for merkle._NODE_STATE, which every node hash copies, that fails the test if a node is hashed."""
    return types.SimpleNamespace(copy=lambda: pytest.fail("hashed a node"))


def flip_byte(digest: bytes, offset: int = 0) -> bytes:
    corrupted = bytearray(digest)
    corrupted[offset] ^= 0x01
    return bytes(corrupted)


class TestNodeHash:
    """The node preimage, read off the root build_tree makes over two leaves."""

    def test_golden_vector(self):
        a, b = bytes([0x11]) * 32, bytes([0x22]) * 32
        assert build_tree([a, b]).root.hex() == NODE_GOLDEN_AB
        assert build_tree([b, a]).root.hex() == NODE_GOLDEN_BA

    def test_order_sensitive(self):
        a, b = bytes(32), bytes([1]) * 32
        assert build_tree([a, b]).root != build_tree([b, a]).root

    def test_output_length(self):
        assert len(build_tree([bytes(32), bytes(32)]).root) == 32


class TestBuildTree:
    def test_single_leaf_is_root(self):
        leaf = leaves_for(1)[0]
        tree = build_tree([leaf])
        assert tree.root == leaf
        assert len(tree.levels) == 1

    def test_two_leaves(self):
        a, b = leaves_for(2)
        assert build_tree([a, b]).root == spec.node(a, b)

    def test_four_leaves_unrolled(self):
        l0, l1, l2, l3 = leaves_for(4)
        tree = build_tree([l0, l1, l2, l3])
        assert tree.root == spec.node(spec.node(l0, l1), spec.node(l2, l3))

    @pytest.mark.parametrize("count", [0, 3, 5, 6, 7, 9, 12])
    def test_rejects_non_power_of_two(self, count):
        with pytest.raises(ValueError):
            build_tree(leaves_for(count))

    def test_rejects_wrong_digest_size(self):
        with pytest.raises(ValueError):
            build_tree([b"short", b"x" * 32])

    def test_bytes_like_digest_types_give_the_same_root(self):
        # verify_multi's digest types are exactly bytes and bytearray: a
        # subclass is refused, since it could override what is read of it
        class Digest(bytes):
            pass

        leaves = leaves_for(8, seed=4)
        root = build_tree(leaves).root
        assert build_tree([bytearray(leaf) for leaf in leaves]).root == root
        for converted in ([Digest(leaf) for leaf in leaves], [*leaves[:7], Digest(leaves[7])]):
            with pytest.raises(ValueError):
                build_tree(converted)

    def test_rejects_buffers_that_are_not_bytes_or_bytearray(self):
        # the leaves verify_multi would refuse, even at 32 bytes
        leaves = leaves_for(4, seed=5)
        for leaf in (memoryview(leaves[1]), array.array("B", leaves[1])):
            assert len(leaf) == 32
            with pytest.raises(ValueError):
                build_tree([leaves[0], leaf, *leaves[2:]])

    def test_rejects_a_non_bytes_leaf_past_the_first_block(self):
        leaves = leaves_for(512)
        leaves[300] = "x" * 32
        with pytest.raises(ValueError):
            build_tree(leaves)

    def test_build_holds_little_beyond_the_tree_it_returns(self):
        # 2^16 leaves: a 2 MiB leaf level, joined from the leaf list in blocks
        leaves = leaves_for(2**16, seed=3)
        tracemalloc.start()
        try:
            tree = build_tree(leaves)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.levels[0] == b"".join(leaves)
        assert peak - retained < 2**20

    def test_level_shape(self):
        leaves = leaves_for(8)
        tree = build_tree(leaves)
        assert [len(level) for level in tree.levels] == [8 * 32, 4 * 32, 2 * 32, 32]
        assert tree.levels[0] == b"".join(leaves)
        for t in range(1, 4):
            for i in range(8 >> t):
                assert node(tree, t, i) == spec.node(node(tree, t - 1, 2 * i), node(tree, t - 1, 2 * i + 1))


class TestDigestTuples:
    """The top levels a MerkleTree's first proof cuts into digest tuples for _prove, which are not a field."""

    @staticmethod
    def cut(levels):
        """The top 14 levels (all of a shallower tree) as their 32-byte digests."""
        return tuple(tuple(level[i : i + 32] for i in range(0, len(level), 32)) for level in levels[-14:])

    def test_every_tree_holds_its_top_levels_cut_into_digests(self, tmp_path):
        # 32,768 one-byte chunks: two flat levels below the digest tuples. Each
        # tree holds none until its first proof, pickled and copied ones too.
        params = BloomParams(m=1 << 18, k=3, chunk_size=1)
        built = build(BloomFilter(params, random.Random(60).randbytes(params.byte_length)))
        data = codec.encode_filter(built)
        head = cli._levels_head(data)
        levels_path = tmp_path / "filter.blt.levels"
        levels_path.write_bytes(head + b"".join(built.tree.levels))
        assert built.tree._digests is None
        prove_multi(built.tree, [0])
        trees = [
            built.tree,
            build(built.filter).tree,
            build_tree(leaves_for(8, seed=61)),
            codec.decode_filter(data).tree,
            MerkleTree(cli._read_levels(str(levels_path), head, params.depth)),
            pickle.loads(pickle.dumps(built.tree)),
            copy.deepcopy(built.tree),
        ]
        for tree in trees[1:]:
            assert tree._digests is None
            prove_multi(tree, [tree.leaf_count - 1])
        for tree in trees:
            held = tree._digests
            assert held == self.cut(tree.levels)
            assert len(held) == min(len(tree.levels), 14)
            prove_multi(tree, [0])
            assert tree._digests is held

    def test_eq_hash_repr_and_pickle_go_by_the_levels_alone(self):
        tree = build_tree(leaves_for(8, seed=62))
        other = MerkleTree(tree.levels)
        prove_multi(other, [3])
        assert other._digests is not None and tree._digests is None
        assert other == tree and hash(other) == hash(tree) == hash(tree.levels)
        assert repr(other) == repr(tree) == f"MerkleTree(levels={tree.levels!r})"
        assert pickle.loads(pickle.dumps(other))._digests is None

    def test_a_deep_tree_holds_at_most_a_mebibyte_and_a_quarter_of_digest_tuples(self):
        # Measured across the first proof, which cuts the tuples: 2**14 - 1 digests.
        tree = build_tree(leaves_for(1 << 16, seed=63))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            proof = prove_multi(tree, [0])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(proof) == 16
        assert [len(level) for level in tree._digests] == [8192 >> t for t in range(14)]
        assert held <= 1.25 * 1024 * 1024, held

    def test_threads_making_a_fresh_trees_first_proofs_get_the_reference_proofs(self):
        # Four threads, more than the cores, switching as often as the
        # interpreter allows, start proving from one fresh tree at once, so
        # more than one may cut its digest tuples.
        count = 1 << 15
        leaves = leaves_for(count, seed=65)
        levels = build_tree(leaves).levels
        subsets = [[0], [1, 2], [5, 9000, count - 1], list(range(3, count, 1021))]
        expected = [spec.multiproof(spec.levels(leaves), subset) for subset in subsets]
        failures = []
        finished = []

        def run(tree, barrier, seed):
            order = random.Random(seed).sample(range(len(subsets)), len(subsets))
            barrier.wait(timeout=60)
            for n in order:
                if prove_multi(tree, subsets[n]) != expected[n]:
                    failures.append(subsets[n])
            finished.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for number in range(5):
                tree = MerkleTree(levels)
                barrier = threading.Barrier(4)
                threads = [threading.Thread(target=run, args=(tree, barrier, 4 * number + n)) for n in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(finished) == list(range(20))
        assert not failures

    def test_a_new_tree_evicts_no_proof_layout(self):
        # Presence round trips at 32-byte chunks on 65,536 chunks, as a server
        # makes them, fill the layout cache with their chunk and digest counts.
        # Cutting a new tree's digest tuples, on its first proof, must push
        # none of them out: the same replay then compiles no layout again.
        params = BloomParams(m=1 << 24, k=12, chunk_size=32)
        rng = random.Random(64)
        bits = bytes(a | b | c for a, b, c in zip(*(rng.randbytes(params.byte_length) for _ in range(3))))
        bloom_tree = build(BloomFilter(params, bits))
        proofs = [proof for proof in (prove(bloom_tree, rng.randbytes(16)) for _ in range(3000)) if type(proof) is PresenceProof]
        assert len(proofs) > 400

        def replay():
            for proof in proofs:
                codec.decode_proof(codec.encode_proof(params, proof))

        merkle._layout.cache_clear()
        replay()
        prove_multi(MerkleTree(bloom_tree.tree.levels), [0])
        misses = merkle._layout.cache_info().misses
        replay()
        assert merkle._layout.cache_info().misses == misses


class TestSingleProof:
    """One-leaf multiproofs: the plain bottom-up sibling path."""

    def test_single_leaf_empty_path(self):
        leaves = leaves_for(1)
        tree = build_tree(leaves)
        assert prove_multi(tree, [0]) == []
        assert verify_multi(tree.root, [(0, leaves[0])], 1, [])

    def test_four_leaf_sibling_walk(self):
        leaves = leaves_for(4)
        tree = build_tree(leaves)
        assert prove_multi(tree, [3]) == [leaves[2], spec.node(leaves[0], leaves[1])]

    def test_eight_leaf_path_length(self):
        tree = build_tree(leaves_for(8))
        assert len(prove_multi(tree, [5])) == 3

    def test_out_of_range_index(self):
        tree = build_tree(leaves_for(4))
        with pytest.raises(ValueError):
            prove_multi(tree, [4])

    @pytest.mark.parametrize("count", [1, 2, 4, 8, 16])
    def test_round_trip_every_index(self, count):
        leaves = leaves_for(count, seed=count)
        tree = build_tree(leaves)
        for i in range(count):
            proof = prove_multi(tree, [i])
            assert verify_multi(tree.root, [(i, leaves[i])], count, proof)

    def test_mutated_path_digest_fails(self):
        leaves = leaves_for(16, seed=3)
        tree = build_tree(leaves)
        rng = random.Random(99)
        for _ in range(100):
            i = rng.randrange(16)
            proof = prove_multi(tree, [i])
            level = rng.randrange(len(proof))
            proof[level] = flip_byte(proof[level], rng.randrange(32))
            assert not verify_multi(tree.root, [(i, leaves[i])], 16, proof)

    def test_wrong_index_fails(self):
        leaves = leaves_for(16, seed=4)
        tree = build_tree(leaves)
        proof = prove_multi(tree, [5])
        assert not verify_multi(tree.root, [(6, leaves[5])], 16, proof)

    def test_wrong_proof_length_is_false_not_raise(self, monkeypatch):
        # a path of the wrong length is refused before any node is hashed
        leaves = leaves_for(4)
        tree = build_tree(leaves)
        proof = prove_multi(tree, [1])
        entries = [(1, leaves[1])]
        monkeypatch.setattr(merkle, "_NODE_STATE", no_hashing())
        assert not verify_multi(tree.root, entries, 4, proof[:1])
        assert not verify_multi(tree.root, entries, 4, proof + [bytes(32)])

    @pytest.mark.parametrize("count", [4, 1 << 14])
    def test_wrong_proof_length_is_false_not_raise_when_warm(self, count, monkeypatch):
        # after an honest verify has kept the tree's top levels, a path of the
        # wrong length is still refused before any node is hashed
        leaves = leaves_for(count)
        tree = build_tree(leaves)
        proof = prove_multi(tree, [1])
        entries = [(1, leaves[1])]
        assert verify_multi(tree.root, entries, count, proof)
        monkeypatch.setattr(merkle, "_NODE_STATE", no_hashing())
        assert not verify_multi(tree.root, entries, count, proof[:-1])
        assert not verify_multi(tree.root, entries, count, proof + [bytes(32)])

    def test_garbage_inputs_are_false(self):
        leaves = leaves_for(4)
        tree = build_tree(leaves)
        proof = prove_multi(tree, [0])
        leaf = leaves[0]
        assert not verify_multi(tree.root, [(0, leaf)], 5, proof)  # not a power of two
        assert not verify_multi(tree.root, [(-1, leaf)], 4, proof)
        assert not verify_multi(b"short", [(0, leaf)], 4, proof)
        assert not verify_multi(type("Root", (bytes,), {})(tree.root), [(0, leaf)], 4, proof)  # equal, but a subclass
        assert not verify_multi(tree.root, [(0, b"short")], 4, proof)
        assert not verify_multi(tree.root, [(0, leaf)], 4, [b"short", b"x"])
        assert not verify_multi(tree.root, [(0, leaf)], 4, None)

    def test_junk_leaf_digest_is_false_not_raise(self):
        tree = build_tree(leaves_for(4, seed=6))
        proof = prove_multi(tree, [2])
        for junk in (None, "x" * 32, b"\x00" * 31):
            assert not verify_multi(tree.root, [(2, junk)], 4, proof)

    def test_inner_node_posing_as_a_leaf_is_false(self):
        # An inner node's digest with its own, shorter path folds to the root;
        # only the path-length check tells it from a leaf.
        tree = build_tree(leaves_for(8, seed=5))
        for i in range(8):
            path = prove_multi(tree, [i])
            inner = [(i >> 1, node(tree, 1, i >> 1))]
            assert not verify_multi(tree.root, inner, 8, path[1:])
            assert not verify_multi(tree.root, inner, 8, path)
        pair = [(0, node(tree, 1, 0)), (1, node(tree, 1, 1))]
        assert not verify_multi(tree.root, pair, 8, [node(tree, 2, 1)])

    def test_bool_leaf_index_is_false(self):
        # True == 1, so without the check a valid proof for leaf 1 would pass
        leaves = leaves_for(4)
        tree = build_tree(leaves)
        proof = prove_multi(tree, [1])
        assert verify_multi(tree.root, [(1, leaves[1])], 4, proof)
        assert not verify_multi(tree.root, [(True, leaves[1])], 4, proof)
        assert not verify_multi(tree.root, [(False, leaves[0])], 4, prove_multi(tree, [0]))

    def test_int_subclass_indices_are_refused(self):
        # Indices are exact ints: a subclass could override its comparisons,
        # so even one that indexes like its value is refused, as bool is.
        class Index(int):
            pass

        leaves = leaves_for(16, seed=12)
        tree = build_tree(leaves)
        for subset in ([5], [3, 9], [0, 1, 15]):
            proof = prove_multi(tree, subset)
            assert verify_multi(tree.root, entries_for(leaves, subset), 16, proof)
            for position in range(len(subset)):
                bad = list(subset)
                bad[position] = Index(bad[position])
                with pytest.raises(ValueError):
                    prove_multi(tree, bad)
                assert not verify_multi(tree.root, entries_for(leaves, bad), 16, proof)
        assert not verify_multi(tree.root, entries_for(leaves, [3]), Index(16), prove_multi(tree, [3]))

    def test_single_aliases_are_the_one_leaf_multiproof(self):
        leaves = leaves_for(16, seed=10)
        tree = build_tree(leaves)
        for i in (0, 7, 15):
            proof = prove_multi(tree, [i])
            leaf = leaves[i]
            assert verify_single(tree.root, leaf, i, 16, proof)
            for index, candidate in ((i, proof[:-1]), (i ^ 1, proof), (True, proof)):
                assert verify_single(tree.root, leaf, index, 16, candidate) == verify_multi(
                    tree.root, [(index, leaf)], 16, candidate
                )
                assert not verify_single(tree.root, leaf, index, 16, candidate)


class TestMultiProof:
    def test_all_leaves_need_no_proof(self):
        leaves = leaves_for(8)
        tree = build_tree(leaves)
        assert prove_multi(tree, list(range(8))) == []
        assert verify_multi(tree.root, entries_for(leaves, range(8)), 8, [])

    def test_three_of_eight_takes_four_hashes(self):
        # hand-walked schedule: level-0 siblings 1, 2, 7 then level-1 node 2
        leaves = leaves_for(8, seed=8)
        tree = build_tree(leaves)
        proof = prove_multi(tree, [0, 3, 6])
        assert proof == [
            leaves[1],
            leaves[2],
            leaves[7],
            node(tree, 1, 2),
        ]
        singles = sum(len(prove_multi(tree, [i])) for i in (0, 3, 6))
        assert singles == 9

    def test_adjacent_pair_skips_leaf_level(self):
        tree = build_tree(leaves_for(8, seed=9))
        assert prove_multi(tree, [0, 1]) == [node(tree, 1, 1), node(tree, 2, 1)]

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
            leaves = leaves_for(count, seed=count + 20)
            tree = build_tree(leaves)
            for size in range(1, count + 1):
                for subset in itertools.combinations(range(count), size):
                    proof = prove_multi(tree, list(subset))
                    assert verify_multi(tree.root, entries_for(leaves, subset), count, proof)

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
        leaves = leaves_for(8, seed=30)
        tree = build_tree(leaves)
        subset = [2, 5]
        proof = prove_multi(tree, subset)
        assert not verify_multi(tree.root, entries_for(leaves, subset), 8, proof + [bytes(32)])

    def test_underflow_fails(self):
        leaves = leaves_for(8, seed=31)
        tree = build_tree(leaves)
        subset = [2, 5]
        proof = prove_multi(tree, subset)
        assert not verify_multi(tree.root, entries_for(leaves, subset), 8, proof[:-1])

    def test_every_digest_mutation_fails(self):
        leaves = leaves_for(16, seed=32)
        tree = build_tree(leaves)
        subset = [0, 3, 6, 11]
        proof = prove_multi(tree, subset)
        entries = entries_for(leaves, subset)
        for position in range(len(proof)):
            mutated = list(proof)
            mutated[position] = flip_byte(mutated[position])
            assert not verify_multi(tree.root, entries, 16, mutated)

    def test_soundness_probe_leaf_replacement(self):
        # 1000 random forgery attempts, zero accepted
        leaves = leaves_for(16, seed=33)
        tree = build_tree(leaves)
        rng = random.Random(34)
        for _ in range(1000):
            subset = sorted(rng.sample(range(16), rng.randrange(1, 17)))
            proof = prove_multi(tree, subset)
            entries = entries_for(leaves, subset)
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
        leaves = leaves_for(8, seed=36)
        tree = build_tree(leaves)
        proof = prove_multi(tree, (i for i in (0, 3, 6)))
        assert proof == prove_multi(tree, [0, 3, 6])
        assert verify_multi(tree.root, ((i, leaves[i]) for i in (0, 3, 6)), 8, proof)
        assert not verify_multi(tree.root, iter([]), 8, [])

    @given(
        depth=st.integers(min_value=0, max_value=5),
        data=st.data(),
    )
    def test_random_subset_round_trip(self, depth, data):
        count = 1 << depth
        leaves = leaves_for(count, seed=depth)
        tree = build_tree(leaves)
        subset = sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))
        proof = prove_multi(tree, subset)
        assert verify_multi(tree.root, entries_for(leaves, subset), count, proof)


class TestKeptLevels:
    """The top levels of the tree verified last, which _verify_leaves keeps and reads instead of hashing."""

    @pytest.fixture(autouse=True)
    def no_record(self, monkeypatch):
        monkeypatch.setattr(merkle, "_kept", (None, -1, None))

    def test_a_warm_verify_within_the_kept_levels_hashes_nothing(self, monkeypatch):
        leaves = leaves_for(16, seed=40)
        tree = build_tree(leaves)
        for i in range(16):
            assert verify_multi(tree.root, [(i, leaves[i])], 16, prove_multi(tree, [i]))
        monkeypatch.setattr(merkle, "_NODE_STATE", no_hashing())
        for subset in ([3], [0, 9], list(range(16))):
            assert verify_multi(tree.root, entries_for(leaves, subset), 16, prove_multi(tree, subset))

    def test_a_deep_tree_keeps_its_top_levels(self):
        # A depth-14 tree has 15 levels; the record holds a slot per node of all but the leaves.
        leaves = leaves_for(1 << 14, seed=44)
        tree = build_tree(leaves)
        assert verify_multi(tree.root, [(5, leaves[5])], 1 << 14, prove_multi(tree, [5]))
        kept = merkle._kept_levels(tree.root, 14)
        assert [len(level) for level in kept] == [len(level) // 32 for level in tree.levels[1:]]

    def test_a_full_record_is_closed_true_to_the_tree_and_bounded(self):
        # Every leaf of a depth-14 tree verified, a multiproof of 64 at a time,
        # fills every slot of the record: 2**14 - 1 digest objects. Part way
        # and at the end, each digest held is build_tree's and has its sibling
        # and parent held.
        count = 1 << 14
        leaves = leaves_for(count, seed=52)
        tree = build_tree(leaves)
        batches = [list(range(start, count, count // 64)) for start in range(count // 64)]
        proofs = [prove_multi(tree, batch) for batch in batches]

        def check_record():
            kept = merkle._kept_levels(tree.root, 14)
            for t, level in enumerate(kept[:-1]):
                for i, digest in enumerate(level):
                    if digest is not None:
                        assert digest == node(tree, 1 + t, i)
                        assert level[i ^ 1] is not None and kept[t + 1][i >> 1] is not None
            assert kept[-1] == [tree.root]
            return kept

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for number, (batch, proof) in enumerate(zip(batches, proofs)):
                assert verify_multi(tree.root, entries_for(leaves, batch), count, proof)
                if number in (0, 5, 50):
                    check_record()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert None not in itertools.chain.from_iterable(check_record())
        assert retained < 1.5 * 1024 * 1024, retained

    def test_a_warm_verify_refuses_a_changed_leaf(self):
        leaves = leaves_for(16, seed=48)
        tree = build_tree(leaves)
        assert verify_multi(tree.root, entries_for(leaves, range(16)), 16, [])
        for subset in ([3], [0, 9]):
            proof = prove_multi(tree, subset)
            for victim in subset:
                entries = [(i, flip_byte(leaves[i]) if i == victim else leaves[i]) for i in subset]
                assert not verify_multi(tree.root, entries, 16, proof)

    @pytest.mark.parametrize("subset", [[5], [2, 5]])
    def test_record_is_keyed_by_root_and_depth(self, subset):
        # The same root and proof at half the leaf count: the kept levels of
        # the 16-leaf tree must not vouch for a fold over 8 leaves.
        leaves = leaves_for(16, seed=41)
        tree = build_tree(leaves)
        entries = entries_for(leaves, subset)
        proof = prove_multi(tree, subset)
        assert not verify_multi(tree.root, entries, 8, proof)  # cold
        assert verify_multi(tree.root, entries, 16, proof)
        assert not verify_multi(tree.root, entries, 8, proof)  # warm

    def test_forged_proofs_leave_the_record_unwritten(self):
        leaves = leaves_for(16, seed=42)
        tree = build_tree(leaves)
        rng = random.Random(43)
        for subset in ([3], [0, 9], [1, 2, 7, 12]):
            entries = entries_for(leaves, subset)
            proof = prove_multi(tree, subset)
            forged = [(entries, proof[:-1]), (entries, proof + [bytes(32)])]
            for position in range(len(proof)):
                flipped = list(proof)
                flipped[position] = flip_byte(flipped[position], rng.randrange(32))
                forged.append((entries, flipped))
            victim = rng.randrange(len(entries))
            changed = list(entries)
            changed[victim] = (entries[victim][0], flip_byte(entries[victim][1]))
            forged.append((changed, proof))
            for forged_entries, forged_proof in forged:
                assert not verify_multi(tree.root, forged_entries, 16, forged_proof)
                assert merkle._kept_levels(tree.root, 4) is None
        assert verify_multi(tree.root, entries_for(leaves, [3]), 16, prove_multi(tree, [3]))
        assert merkle._kept_levels(tree.root, 4) is not None

    def test_an_unseen_node_is_not_taken_for_a_zero_digest(self):
        # Unseen nodes are None in the record, and a zero digest must not pass
        # for one. Leaf 7, its sibling and its parent's sibling are unseen
        # after leaf 0 is verified; the grandparent's sibling is on leaf 0's path.
        leaves = leaves_for(8, seed=44)
        tree = build_tree(leaves)
        assert verify_multi(tree.root, [(0, leaves[0])], 8, prove_multi(tree, [0]))
        forged = [bytes(32), bytes(32), node(tree, 2, 0)]
        assert not verify_multi(tree.root, [(7, bytes(32))], 8, forged)
        assert not verify_multi(tree.root, [(6, bytes(32)), (7, bytes(32))], 8, forged[1:])

    def test_the_record_holds_copies_of_a_callers_bytearrays(self):
        # A root, leaves and proof digests given as bytearrays and changed in
        # place once they verified: each changed one, with the others honest,
        # is refused, and the honest bytes still verify. A record holding a
        # caller's object would take the changed one for what it vouched for.
        leaves = leaves_for(16, seed=53)
        tree = build_tree(leaves)
        subset = [2, 9]
        proof = prove_multi(tree, subset)
        root = bytearray(tree.root)
        held = [bytearray(leaves[i]) for i in subset]
        digests = [bytearray(digest) for digest in proof]
        assert verify_multi(root, list(zip(subset, held)), 16, digests)
        kept_root, _, levels = merkle._kept
        assert type(kept_root) is bytes
        assert {type(digest) for level in levels for digest in level} == {bytes, type(None)}
        for value in (root, *held, *digests):
            value[0] ^= 0x01
        honest = entries_for(leaves, subset)
        assert not verify_multi(root, honest, 16, proof)
        for victim in range(len(subset)):
            changed = [(i, held[n] if n == victim else leaves[i]) for n, i in enumerate(subset)]
            assert not verify_multi(tree.root, changed, 16, proof)
        for victim in range(len(proof)):
            changed = [digests[n] if n == victim else digest for n, digest in enumerate(proof)]
            assert not verify_multi(tree.root, honest, 16, changed)
        assert verify_multi(tree.root, honest, 16, proof)

    @given(depth=st.integers(min_value=0, max_value=6), data=st.data())
    def test_the_warm_walk_is_the_provers_schedule(self, depth, data):
        # On a record holding every node, _walk reads off the reference
        # multiproof of the tree's levels, for any strictly increasing set.
        count = 1 << depth
        leaves = leaves_for(count, seed=54 + depth)
        tree = build_tree(leaves)
        assert verify_multi(tree.root, entries_for(leaves, range(count)), count, [])
        kept = merkle._kept_levels(tree.root, depth)
        positions = sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))
        assert merkle._walk(kept, positions, []) == spec.multiproof(spec.levels(leaves), positions)

    def test_three_deep_trees_keep_one_record(self):
        # A depth-14 tree keeps its top 14 levels: 2**14 - 1 slots of None,
        # 128 KiB, of which three verifies fill a few dozen. The proofs are
        # made first, as a tree's first proof cuts its own digest tuples.
        count = 1 << 14
        cases = []
        for seed in (45, 46, 47):
            leaves = leaves_for(count, seed=seed)
            tree = build_tree(leaves)
            cases += [(tree.root, [(i, leaves[i])], prove_multi(tree, [i])) for i in (0, 5000, count - 1)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for root, entries, proof in cases:
                assert verify_multi(root, entries, count, proof)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert merkle._kept_levels(cases[-1][0], 14) is not None
        assert retained < 300 * 1024

    def test_the_provers_digest_tuples_are_the_levels_the_record_keeps(self):
        # At every depth up to 16, the prover cuts into tuples just the levels
        # the verifier keeps, so its flat levels are those the verifier folds
        # below its record; and the record holds only the tuples' digests.
        for depth in range(17):
            count = 1 << depth
            leaves = leaves_for(count, seed=depth)
            tree = build_tree(leaves)
            assert verify_multi(tree.root, [(0, leaves[0])], count, prove_multi(tree, [0]))
            kept = merkle._kept_levels(tree.root, depth)
            assert [len(level) for level in kept] == [len(level) for level in tree._digests], depth
            assert len(tree.levels) - len(kept) == max(depth + 1 - 14, 0), depth
            for held, cut in zip(kept, tree._digests):
                assert all(digest is None or digest == cut[i] for i, digest in enumerate(held))

    def test_threads_sharing_the_record_get_the_cold_verdicts(self):
        # Four threads, more than the cores, switching as often as the
        # interpreter allows, verify honest and forged proofs of three trees,
        # so the record is replaced and written under readers.
        cases = []
        for count, seed in ((16, 49), (16, 50), (32, 51)):
            leaves = leaves_for(count, seed=seed)
            tree = build_tree(leaves)
            for subset in ([1], [4, 11], [0, 5, 6, 13]):
                entries = entries_for(leaves, subset)
                proof = prove_multi(tree, subset)
                cases.append((tree.root, entries, count, proof, True))
                for position in range(len(proof)):
                    forged = list(proof)
                    forged[position] = flip_byte(forged[position])
                    cases.append((tree.root, entries, count, forged, False))
        failures = []
        finished = []

        def run(seed):
            order = random.Random(seed).sample(cases, len(cases))
            for _ in range(20):
                for root, entries, count, proof, expected in order:
                    if verify_multi(root, entries, count, proof) is not expected:
                        failures.append((entries, proof, expected))
            finished.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(finished) == [0, 1, 2, 3]
        assert not failures
