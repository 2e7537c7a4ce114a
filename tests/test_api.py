"""The package's public surface: the names it exports and the README example."""

import contextlib
import importlib
import io
import pathlib
import re

import bloomtree

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
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

# Building blocks kept out of the package namespace; they live in their modules.
MODULE_ONLY = {
    "merkle": [
        "DIGEST_SIZE",
        "MerkleTree",
        "build_tree",
        "prove_multi",
        "prove_single",
        "verify_multi",
        "verify_single",
    ],
    "tree": ["leaf_hash", "locate"],
}


def test_all_is_pinned_and_every_name_imports():
    assert bloomtree.__all__ == PUBLIC_NAMES
    namespace = {}
    exec(f"from bloomtree import {', '.join(PUBLIC_NAMES)}", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(bloomtree, name)


def test_building_blocks_import_from_their_modules_only():
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"bloomtree.{module_name}")
        for name in names:
            assert hasattr(module, name), (module_name, name)
            assert not hasattr(bloomtree, name), name


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "MaybePresent\nDefinitelyAbsent\n"
