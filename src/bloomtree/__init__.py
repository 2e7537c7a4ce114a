"""Bloom tree: a Bloom filter chunked and committed under a Merkle root.

Instead of shipping the whole filter to answer one membership query, a
prover sends a compact presence proof (the touched chunks plus one Merkle
multiproof, verdict "might be in the set") or an absence proof (one chunk
with a zero at a required bit plus a single Merkle path, verdict
"definitely not in the set").
"""

from .bloom import BloomFilter, BloomParams, derive_params, fpr, indices
from .codec import (
    BadMagic,
    CodecError,
    InvalidField,
    RootMismatch,
    TrailingBytes,
    TruncatedPayload,
    UnsupportedVersion,
    decode_filter,
    decode_proof,
    encode_filter,
    encode_proof,
)
from .tree import (
    AbsenceProof,
    BloomTree,
    PresenceProof,
    Verdict,
    VerdictKind,
    build,
    prove,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AbsenceProof",
    "BadMagic",
    "BloomFilter",
    "BloomParams",
    "BloomTree",
    "CodecError",
    "InvalidField",
    "PresenceProof",
    "RootMismatch",
    "TrailingBytes",
    "TruncatedPayload",
    "UnsupportedVersion",
    "Verdict",
    "VerdictKind",
    "build",
    "decode_filter",
    "decode_proof",
    "derive_params",
    "encode_filter",
    "encode_proof",
    "fpr",
    "indices",
    "prove",
    "verify",
]
