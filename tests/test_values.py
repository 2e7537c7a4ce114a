"""Value semantics of the seven library record types.

Each is built from its field values, compares and hashes by them, prints
them, refuses any assignment or deletion, and survives copy, deepcopy and
pickle. The signatures and reprs are pinned as literals.
"""

import copy
import inspect
import pickle

import pytest

from bloomtree.bloom import BloomFilter, BloomParams
from bloomtree.merkle import MerkleTree
from bloomtree.tree import AbsenceProof, BloomTree, PresenceProof, Verdict, VerdictKind

PARAMS = BloomParams(m=64, k=3, chunk_size=8)
TREE = MerkleTree(levels=(b"r" * 32,))

# (type, field values by name, signature, repr); equal values are built anew from the same field objects.
CASES = [
    (
        BloomParams,
        {"m": 64, "k": 3, "chunk_size": 8},
        "(m: int, k: int, chunk_size: int) -> None",
        "BloomParams(m=64, k=3, chunk_size=8)",
    ),
    (
        BloomFilter,
        {"params": BloomParams(m=64, k=1, chunk_size=8), "bits": bytearray(range(8))},
        "(params: bloomtree.bloom.BloomParams, bits: bytearray | bytes | None = None) -> None",
        r"BloomFilter(params=BloomParams(m=64, k=1, chunk_size=8), bits=bytearray(b'\x00\x01\x02\x03\x04\x05\x06\x07'))",
    ),
    (
        MerkleTree,
        {"levels": (b"r" * 32,)},
        "(levels: tuple[bytes, ...]) -> None",
        "MerkleTree(levels=(b'rrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrr',))",
    ),
    (
        Verdict,
        {"kind": VerdictKind.INVALID, "reason": "bad"},
        "(kind: bloomtree.tree.VerdictKind, reason: str | None = None) -> None",
        "Verdict(kind=<VerdictKind.INVALID: 'Invalid'>, reason='bad')",
    ),
    (
        PresenceProof,
        {"chunk_indices": (0, 2), "chunks": (b"a", b"c"), "multiproof": (b"m",)},
        "(chunk_indices: tuple[int, ...], chunks: tuple[bytes, ...], multiproof: tuple[bytes, ...]) -> None",
        "PresenceProof(chunk_indices=(0, 2), chunks=(b'a', b'c'), multiproof=(b'm',))",
    ),
    (
        AbsenceProof,
        {"chunk_index": 1, "chunk": b"z", "path": (b"p",)},
        "(chunk_index: int, chunk: bytes, path: tuple[bytes, ...]) -> None",
        "AbsenceProof(chunk_index=1, chunk=b'z', path=(b'p',))",
    ),
    (
        BloomTree,
        {"filter": BloomFilter(PARAMS, bytes(8)), "tree": TREE},
        "(filter: bloomtree.bloom.BloomFilter, tree: bloomtree.merkle.MerkleTree) -> None",
        "BloomTree(filter=BloomFilter(params=BloomParams(m=64, k=3, chunk_size=8), bits=b'\\x00\\x00\\x00\\x00"
        "\\x00\\x00\\x00\\x00'), tree=MerkleTree(levels=(b'rrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrr',)))",
    ),
]


@pytest.mark.parametrize(("cls", "fields", "signature", "text"), CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, signature, text):
    value = cls(**fields)
    assert str(inspect.signature(cls)) == signature
    assert repr(value) == text

    # == by value, positionally or by keyword, and never across types
    assert value == cls(*fields.values()) and not value != cls(**fields)
    twin = type("Twin", (cls,), {})(**fields)
    assert value != twin and twin != value
    assert value != tuple(fields.values())
    assert value.__eq__(tuple(fields.values())) is NotImplemented

    # a filter over a bytearray compares by value but is unhashable, as the array is
    if cls is BloomFilter:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(**fields))

    for name in (*fields, "extra"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) is before

    for duplicate in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(duplicate) is cls and duplicate == value
