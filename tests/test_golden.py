"""Golden values for a mid-sized filter, pinned before the hot loops were
rewritten for speed: the root and the exact proof bytes must not move."""

import hashlib
import random

from bloomtree import codec
from bloomtree.bloom import BloomFilter, BloomParams
from bloomtree.tree import PresenceProof, build, prove, verify

PARAMS = BloomParams(m=512 * 32 * 8, k=7, chunk_size=32)  # 512 chunks, depth 9
ROOT_HEX = "72d064ac538382fe894cff5055890259d31aacd4fdd26264b37ca5ab9f6ad940"
# SHA-256 over the concatenated encodings of the presence (absence) proofs
# of the 20 elements below, in order.
PRESENCE_SHA256 = "46a391fcf179e0746bc70565affb82925b93c10b974039c148953385c3c8cba3"
ABSENCE_SHA256 = "f05b88a4b9154e95ce506d1dd0e02ded31b88f1ea1baa51a2646a29a7f142d03"

# A wide tree: 2^15 chunks of 8 random bytes, wide enough that a build hashes
# its lower levels in several blocks.
WIDE_PARAMS = BloomParams(m=2**15 * 8 * 8, k=7, chunk_size=8)
WIDE_ROOT_HEX = "4352dc4354c594c804b398463c183fff636bd3facdd7e71317403b041709dc7a"
# SHA-256 over all 16 levels of the tree joined, leaves first.
WIDE_LEVELS_SHA256 = "65e08f54fe51ce2c75c4cb27b4c25f41dc73fc6f4769640c2b82604d5e668f96"


def golden_filter():
    rng = random.Random("golden-512")
    filt = BloomFilter(PARAMS)
    inserted = [rng.randbytes(16) for _ in range(2000)]
    for element in inserted:
        filt.insert(element)
    return filt, inserted[:10] + [b"absent-%d" % i for i in range(10)]


def test_root_is_pinned():
    filt, _ = golden_filter()
    assert build(filt).root.hex() == ROOT_HEX


def test_proof_bytes_are_pinned():
    filt, elements = golden_filter()
    bloom_tree = build(filt)
    presence, absence = hashlib.sha256(), hashlib.sha256()
    kinds = []
    for element in elements:
        proof = prove(bloom_tree, element)
        blob = codec.encode_proof(PARAMS, proof)
        (presence if isinstance(proof, PresenceProof) else absence).update(blob)
        kinds.append(isinstance(proof, PresenceProof))
        assert verify(bloom_tree.root, PARAMS, element, proof).is_valid
        assert codec.decode_proof(blob) == (PARAMS, proof)
    assert kinds == [True] * 10 + [False] * 10
    assert presence.hexdigest() == PRESENCE_SHA256
    assert absence.hexdigest() == ABSENCE_SHA256


def test_wide_tree_levels_are_pinned():
    bits = random.Random("golden-32768").randbytes(WIDE_PARAMS.byte_length)
    bloom_tree = build(BloomFilter(WIDE_PARAMS, bits))
    assert bloom_tree.root.hex() == WIDE_ROOT_HEX
    assert len(bloom_tree.tree.levels) == 16
    assert hashlib.sha256(b"".join(bloom_tree.tree.levels)).hexdigest() == WIDE_LEVELS_SHA256
