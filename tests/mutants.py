"""Mutation checks: each input check and hot-path rule has a test that fails without it.

    python tests/mutants.py

Each mutant is a source edit that removes or weakens one rule, and names
the tests that must fail once it is applied. The script copies src/,
tests/ and README.md into a temporary directory once, and requires every
named test to pass there unmutated, in one pytest run. Then, for each
mutant, it applies the edit (its old text must occur exactly once in the
file), requires pytest to exit 1, tests failed, and restores the file: a
collection error (2) or no tests collected (5) does not count as a kill.
Every pytest run starts without bytecode or a hypothesis example database
left by an earlier one, so no run can read a stale module or replay
another mutant's failure. It exits 1 and names every survivor, 0 when
every mutant is killed. Stdlib only; pytest and hypothesis must be
importable.

A change that adds a check adds its mutant here.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md")
TESTS_FAILED = 1


class Mutant(NamedTuple):
    name: str
    path: str  # under src/bloomtree/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "level passes hash each level in one block",
        "merkle.py",
        "_BLOCK_BYTES = 64 * 1024",
        "_BLOCK_BYTES = 1 << 30",
        ("tests/test_tree.py::TestBuild::test_build_of_large_chunks_holds_little_beyond_the_tree",),
    ),
    Mutant(
        "_verify_leaves trusts the proof's digests",
        "merkle.py",
        "if not _all_digests(proof):",
        "if False:",
        ("tests/test_tree.py::TestVerify::test_junk_digests_in_an_honest_proof_are_invalid",),
    ),
    Mutant(
        "insert walks k-1 steps",
        "bloom.py",
        "for x in range(start, start + params.k * step, step):",
        "for x in range(start, start + (params.k - 1) * step, step):",
        ("tests/test_bloom.py::TestInsert::test_sets_exactly_the_reference_bits",),
    ),
    Mutant(
        "_are_leaf_indices admits int subclasses and bools",
        "merkle.py",
        "type(i) is int for i in indices",
        "isinstance(i, int) for i in indices",
        (
            "tests/test_merkle.py::TestSingleProof::test_bool_leaf_index_is_false",
            "tests/test_merkle.py::TestSingleProof::test_int_subclass_indices_are_refused",
        ),
    ),
    Mutant(
        "_tree_over hashes pairs without the 0x01 prefix",
        "merkle.py",
        "sha256(prefix + pair).digest() for pair in pairs",
        "sha256(pair).digest() for pair in pairs",
        ("tests/test_golden.py::test_wide_tree_levels_are_pinned",),
    ),
    Mutant(
        "build_tree takes any leaves",
        "merkle.py",
        "if not _all_digests(leaves):",
        "if False:",
        ("tests/test_merkle.py::TestBuildTree::test_rejects_wrong_digest_size",),
    ),
    Mutant(
        "build_tree takes any leaf count",
        "merkle.py",
        "if not _is_power_of_two(count):",
        "if False:",
        ("tests/test_merkle.py::TestBuildTree::test_rejects_non_power_of_two",),
    ),
    Mutant(
        "the header check takes any magic",
        "codec.py",
        "if found != magic:",
        "if False:",
        (
            "tests/test_codec.py::TestFilterCodec::test_bad_magic",
            "tests/test_codec.py::TestProofCodec::test_bad_magic",
        ),
    ),
    Mutant(
        "the header check takes any version",
        "codec.py",
        "if version != VERSION:",
        "if False:",
        (
            "tests/test_codec.py::TestFilterCodec::test_unsupported_version",
            "tests/test_codec.py::TestProofCodec::test_unsupported_version",
        ),
    ),
    Mutant(
        "a header cut short takes any magic",
        "codec.py",
        "found = data[:4] if have >= 4 else magic",
        "found = magic",
        ("tests/test_codec.py::test_every_header_prefix_raises_the_error_of_its_first_bad_field",),
    ),
    Mutant(
        "a header cut short takes any version",
        "codec.py",
        "version = data[4] if have > 4 else VERSION",
        "version = VERSION",
        ("tests/test_codec.py::test_every_header_prefix_raises_the_error_of_its_first_bad_field",),
    ),
    Mutant(
        "a whole header is read as one cut short",
        "codec.py",
        "if have >= layout.size:",
        "if have > layout.size:",
        ("tests/test_codec.py::test_every_header_prefix_raises_the_error_of_its_first_bad_field",),
    ),
    Mutant(
        "ExperimentConfig takes an empty axis",
        "experiment.py",
        "if not self.chunk_sizes or not self.fprs or not self.ns:",
        "if False:",
        (
            "tests/test_experiment.py::TestGrid::test_config_validation",
            "tests/test_cli.py::TestExperiment::test_empty_axis_is_a_usage_error",
        ),
    ),
    Mutant(
        "verify takes any root",
        "tree.py",
        "if not _is_digest(root):",
        "if False:",
        ("tests/test_tree.py::TestVerify::test_root_that_is_not_a_digest_is_invalid_not_raise",),
    ),
    Mutant(
        "verify_multi takes any leaf digests",
        "merkle.py",
        " or not _all_digests(nodes):",
        ":",
        ("tests/test_merkle.py::TestSingleProof::test_junk_leaf_digest_is_false_not_raise",),
    ),
    Mutant(
        "verify takes a presence proof whose chunk count is off",
        "tree.py",
        "if len(chunks) != len(expected):",
        "if False:",
        ("tests/test_tree.py::TestVerify::test_presence_chunk_count_must_match_the_chunk_indices",),
    ),
    Mutant(
        "BloomParams takes a float, a bool or an int subclass",
        "bloom.py",
        "if not type(m) is type(k) is type(size) is int:",
        "if False:",
        ("tests/test_bloom.py::TestParamsValidation::test_geometry_must_be_exact_ints",),
    ),
    Mutant(
        "BloomParams takes any chunk size",
        "bloom.py",
        "if not MIN_CHUNK_SIZE <= size <= MAX_CHUNK_SIZE or size & (size - 1):",
        "if not MIN_CHUNK_SIZE <= size <= MAX_CHUNK_SIZE:",
        ("tests/test_bloom.py::TestParamsValidation::test_rejects_chunk_size_that_is_not_a_power_of_two",),
    ),
    Mutant(
        "derive_params drops the one-chunk floor",
        "bloom.py",
        "m = max(chunk_size * 8, 1 << (optimal_bit_count(n, p) - 1).bit_length())",
        "m = 1 << (optimal_bit_count(n, p) - 1).bit_length()",
        (
            "tests/test_bloom.py::TestDeriveParams::test_single_chunk_clamp",
            "tests/test_bloom.py::TestDeriveParams::test_tiny_sizing",
        ),
    ),
    Mutant(
        "the struct layout cache is unbounded",
        "merkle.py",
        "@functools.lru_cache(maxsize=_LAYOUTS_KEPT)",
        "@functools.lru_cache(maxsize=None)",
        ("tests/test_codec.py::TestProofCodec::test_declared_chunk_sizes_leave_bounded_memory",),
    ),
    Mutant(
        "verify takes a presence chunk of any length or type",
        "tree.py",
        'if not _is_bytes(chunk) or len(chunk) != size:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        'if False:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify takes an absence chunk of any length or type",
        "tree.py",
        'if not _is_bytes(chunk) or len(chunk) != size:\n'
        '            return Verdict.invalid(f"chunk is not',
        'if False:\n'
        '            return Verdict.invalid(f"chunk is not',
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify takes a presence chunk of a bytes subclass",
        "tree.py",
        'if not _is_bytes(chunk) or len(chunk) != size:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        'if not isinstance(chunk, (bytes, bytearray)) or len(chunk) != size:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        ("tests/test_tree.py::TestVerify::test_chunks_that_lie_about_their_bits_are_invalid",),
    ),
    Mutant(
        "verify takes an absence chunk of a bytes subclass",
        "tree.py",
        'if not _is_bytes(chunk) or len(chunk) != size:\n'
        '            return Verdict.invalid(f"chunk is not',
        'if not isinstance(chunk, (bytes, bytearray)) or len(chunk) != size:\n'
        '            return Verdict.invalid(f"chunk is not',
        ("tests/test_tree.py::TestVerify::test_chunks_that_lie_about_their_bits_are_invalid",),
    ),
    Mutant(
        "the exact-type checks compare types by equality",
        "merkle.py",
        "    kind = type(value)\n    return kind is bytes or kind is bytearray\n",
        "    return type(value) in {bytes, bytearray}\n",
        ("tests/test_tree.py::TestVerify::test_chunks_that_lie_about_their_bits_are_invalid",),
    ),
    Mutant(
        "verify takes an absence chunk index of an int subclass",
        "tree.py",
        "if type(chunk_index) is not int:",
        "if not isinstance(chunk_index, int):",
        ("tests/test_tree.py::TestVerify::test_chunk_indices_that_are_not_exact_ints_are_invalid",),
    ),
    Mutant(
        "verify compares presence chunk indices of any type",
        "tree.py",
        "if not all(type(i) is int for i in supplied) or list(supplied) != expected:",
        "if list(supplied) != expected:",
        ("tests/test_tree.py::TestVerify::test_chunk_indices_that_are_not_exact_ints_are_invalid",),
    ),
    Mutant(
        "_all_digests takes digests of a bytes subclass",
        "merkle.py",
        "if [kind for kind in map(type, values) if kind is not bytes and kind is not bytearray]:",
        "if not all(isinstance(v, (bytes, bytearray)) for v in values):",
        (
            "tests/test_merkle.py::TestBuildTree::test_bytes_like_digest_types_give_the_same_root",
            "tests/test_tree.py::TestVerify::test_junk_digests_in_an_honest_proof_are_invalid",
        ),
    ),
    Mutant(
        "verify takes a superset of the presence chunk set",
        "tree.py",
        " or list(supplied) != expected:",
        " or not set(expected) <= set(supplied):",
        ("tests/test_tree.py::TestVerify::test_presence_chunk_set_must_match_exactly",),
    ),
    Mutant(
        "verify takes a presence proof with a required bit at zero",
        "tree.py",
        "zeros = _zero_bits(positions, claimed, params)\n        if zeros:",
        "zeros = _zero_bits(positions, claimed, params)\n        if False:",
        ("tests/test_tree.py::TestVerify::test_presence_over_the_committed_chunks_of_an_outsider_is_invalid",),
    ),
    Mutant(
        "verify takes an absence chunk the element does not map into",
        "tree.py",
        "if not required:",
        "if False:",
        ("tests/test_tree.py::TestVerify::test_absence_for_irrelevant_chunk_is_invalid",),
    ),
    Mutant(
        "verify takes an absence chunk whose required bits are all set",
        "tree.py",
        "if not _zero_bits(required, claimed, params):",
        "if False:",
        (
            "tests/test_tree.py::TestVerify::test_absence_over_a_committed_chunk_of_a_member_is_invalid",
            "tests/test_codec.py::TestVerdictsOnProofBytes::test_reencoded_proofs_get_the_spec_verdict",
        ),
    ),
    Mutant(
        "verify takes an absence chunk without reconstructing the root from its path",
        "tree.py",
        "if not _reconstructs(root, params, claimed, path):",
        "if False:",
        ("tests/test_tree.py::TestVerify::test_absence_path_of_the_wrong_shape_is_invalid",),
    ),
    Mutant(
        "verify takes an absence path of any type",
        "tree.py",
        "if not _is_sequence(path):",
        "if False:",
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify iterates a proof field of any type",
        "tree.py",
        "    kind = type(value)\n    return kind is tuple or kind is list\n",
        '    return hasattr(value, "__iter__")\n',
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify takes an absence chunk with a zero at a bit the element does not map to",
        "tree.py",
        "if not _zero_bits(required, claimed, params):",
        "if chunk.count(255) == size:",
        ("tests/test_codec.py::TestVerdictsOnProofBytes::test_reencoded_proofs_get_the_spec_verdict",),
    ),
    Mutant(
        "the leaf preimage drops the chunk index",
        "tree.py",
        "sha256(head(0, i) + chunk)",
        'sha256(b"\\x00" + chunk)',
        ("tests/test_codec.py::TestVerdictsOnProofBytes::test_tampered_bytes_get_the_spec_verdict",),
    ),
    Mutant(
        "the filter decoder slices its filter bytes and root unchecked",
        "codec.py",
        "if end > have:\n        raise _truncated(have, at, size, DIGEST_SIZE)",
        "if False:\n        raise _truncated(have, at, size, DIGEST_SIZE)",
        ("tests/test_codec.py::test_truncation_names_the_field_it_cuts",),
    ),
    Mutant(
        "the proof decoder reads a presence chunk count unchecked",
        "codec.py",
        "if at + 2 > have:\n            raise _truncated(have, at, 2)",
        "if False:\n            raise _truncated(have, at, 2)",
        ("tests/test_codec.py::test_truncation_names_the_field_it_cuts",),
    ),
    Mutant(
        "the proof decoder slices presence chunk indices and chunks unchecked",
        "codec.py",
        "if digests_at + 2 > have:\n            raise _truncated(have, at, 8 * count",
        "if False:\n            raise _truncated(have, at, 8 * count",
        ("tests/test_codec.py::test_truncation_names_the_field_it_cuts",),
    ),
    Mutant(
        "the proof decoder slices an absence chunk index and chunk unchecked",
        "codec.py",
        "if digests_at + 2 > have:\n            raise _truncated(have, at, 8, size",
        "if False:\n            raise _truncated(have, at, 8, size",
        ("tests/test_codec.py::test_truncation_names_the_field_it_cuts",),
    ),
    Mutant(
        "the proof decoder slices its digests unchecked",
        "codec.py",
        "if end > have:\n        raise _truncated(have, at, DIGEST_SIZE * count)",
        "if False:\n        raise _truncated(have, at, DIGEST_SIZE * count)",
        ("tests/test_codec.py::test_truncation_names_the_field_it_cuts",),
    ),
    Mutant(
        "the filter decoder takes trailing bytes",
        "codec.py",
        "raise _truncated(have, at, size, DIGEST_SIZE)\n    if end != have:",
        "raise _truncated(have, at, size, DIGEST_SIZE)\n    if False:",
        ("tests/test_codec.py::TestFilterCodec::test_trailing_bytes",),
    ),
    Mutant(
        "the proof decoder takes trailing bytes",
        "codec.py",
        "raise _truncated(have, at, DIGEST_SIZE * count)\n    if end != have:",
        "raise _truncated(have, at, DIGEST_SIZE * count)\n    if False:",
        ("tests/test_codec.py::TestVerdictsOnProofBytes::test_tampered_bytes_get_the_spec_verdict",),
    ),
    Mutant(
        "_verify_leaves folds a path of any length",
        "merkle.py",
        "if available - cursor != levels_left:",
        "if False:",
        (
            "tests/test_merkle.py::TestSingleProof::test_wrong_proof_length_is_false_not_raise",
            "tests/test_merkle.py::TestSingleProof::test_wrong_proof_length_is_false_not_raise_when_warm",
        ),
    ),
    Mutant(
        "the record is written before the root check",
        "merkle.py",
        "    if folded is None or folded[1][0] != root:\n        return False\n"
        "    _keep(root, depth, bottom, seen)\n    return True\n",
        "    if folded is None:\n        return False\n"
        "    _keep(root, depth, bottom, seen)\n    return folded[1][0] == root\n",
        ("tests/test_merkle.py::TestKeptLevels::test_forged_proofs_leave_the_record_unwritten",),
    ),
    Mutant(
        "a failed fold still writes",
        "merkle.py",
        "    if folded is None or folded[1][0] != root:\n        return False\n    _keep(root, depth, bottom, seen)\n",
        "    _keep(root, depth, bottom, seen)\n    if folded is None or folded[1][0] != root:\n        return False\n",
        ("tests/test_merkle.py::TestKeptLevels::test_forged_proofs_leave_the_record_unwritten",),
    ),
    Mutant(
        "the record is keyed by the root alone",
        "merkle.py",
        "return levels if kept_depth == depth and kept_root == root else None",
        "return levels if kept_root == root else None",
        ("tests/test_merkle.py::TestKeptLevels::test_record_is_keyed_by_root_and_depth",),
    ),
    Mutant(
        "a warm verify skips the rest-of-proof comparison",
        "merkle.py",
        "return list(proof[cursor:]) == _prove(kept, positions)",
        "return True",
        ("tests/test_tree.py::TestVerify::test_one_digest_replaced_after_every_leaf_was_verified_is_invalid",),
    ),
    Mutant(
        "a warm verify takes any frontier",
        "merkle.py",
        "if [level[pos * DIGEST_SIZE : (pos + 1) * DIGEST_SIZE] for pos in positions] == list(nodes):",
        "if True:",
        ("tests/test_merkle.py::TestKeptLevels::test_a_warm_verify_refuses_a_changed_leaf",),
    ),
    Mutant(
        "an unseen node reads as a zero digest",
        "merkle.py",
        "if kept is not None and _UNSEEN not in nodes:",
        "if kept is not None:",
        ("tests/test_merkle.py::TestKeptLevels::test_an_unseen_node_is_not_taken_for_a_zero_digest",),
    ),
    Mutant(
        "optimal_bit_count lets a float overflow out as OverflowError",
        "bloom.py",
        "except OverflowError:\n        raise ValueError(\"expected element count",
        "except ZeroDivisionError:\n        raise ValueError(\"expected element count",
        (
            "tests/test_bloom.py::TestDeriveParams::test_inputs_too_large_for_a_float_raise_value_error",
            "tests/test_cli.py::TestParams::test_value_too_large_for_a_float_is_usage_error",
        ),
    ),
    Mutant(
        "derive_params divides an m beyond a float by n",
        "bloom.py",
        "round(min(m, 2 * MAX_K * n) / n * _LN2)",
        "round(m / n * _LN2)",
        (
            "tests/test_bloom.py::TestDeriveParams::test_inputs_too_large_for_a_float_raise_value_error",
            "tests/test_cli.py::TestParams::test_value_too_large_for_a_float_is_usage_error",
        ),
    ),
    Mutant(
        "fpr lets a float overflow out as OverflowError",
        "bloom.py",
        "except OverflowError:\n        raise ValueError(\"m, k and n",
        "except ZeroDivisionError:\n        raise ValueError(\"m, k and n",
        ("tests/test_bloom.py::TestFpr::test_rejects_bad_arguments",),
    ),
    Mutant(
        "BloomFilter turns an int or a list of ints into a backing array",
        "bloom.py",
        "bits = bytearray(memoryview(bits))",
        "bits = bytearray(bits)",
        ("tests/test_bloom.py::TestFilter::test_backing_array_must_be_bytes_like",),
    ),
    Mutant(
        "record fields can be reassigned",
        "bloom.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        (
            "tests/test_bloom.py::TestFilter::test_fields_cannot_be_reassigned",
            "tests/test_tree.py::TestBuild::test_committed_filter_cannot_be_reassigned",
            "tests/test_values.py::test_value_semantics",
        ),
    ),
    Mutant(
        "records compare equal across types",
        "bloom.py",
        "        if type(other) is not type(self):\n            return NotImplemented\n",
        "",
        ("tests/test_values.py::test_value_semantics",),
    ),
    Mutant(
        "copy and pickle restore records through setattr",
        "bloom.py",
        "    def __reduce__(self):\n        return type(self), tuple([getattr(self, name) for name in self.__slots__])\n\n",
        "",
        ("tests/test_values.py::test_value_semantics",),
    ),
    Mutant(
        "leaf_hash turns an int chunk into zero bytes",
        "tree.py",
        "return _leaf_hashes([(chunk_index, chunk)])[0]",
        "return _leaf_hashes([(chunk_index, bytes(chunk))])[0]",
        ("tests/test_tree.py::TestLeafHash::test_chunk_must_be_bytes_like",),
    ),
    Mutant(
        "the decoders turn an int into zero bytes",
        "codec.py",
        "return data if type(data) is bytes else bytes(memoryview(data))",
        "return bytes(data)",
        ("tests/test_codec.py::test_input_that_is_not_bytes_like_raises_type_error",),
    ),
    Mutant(
        "BloomParams formats k raw in its message",
        "bloom.py",
        'MAX_K}], got {_shown(k)}"',
        'MAX_K}], got {k}"',
        ("tests/test_bloom.py::test_messages_state_their_rule_for_any_int[params-k]",),
    ),
    Mutant(
        "verify takes a presence proof's chunks without the multiproof",
        "tree.py",
        "if not _reconstructs(root, params, claimed, multiproof):",
        "if False:",
        ("tests/test_codec.py::TestVerdictsOnProofBytes::test_tampered_bytes_get_the_spec_verdict",),
    ),
    Mutant(
        "definitely_absent() gives the MaybePresent verdict",
        "tree.py",
        "return _DEFINITELY_ABSENT",
        "return _MAYBE_PRESENT",
        (
            "tests/test_tree.py::TestVerdict::test_labels",
            "tests/test_codec.py::TestVerdictsOnProofBytes::test_tampered_bytes_get_the_spec_verdict",
        ),
    ),
    Mutant(
        "a levels file is taken without comparing its key with the filter's SHA-256",
        "codec.py",
        "if levels_file[:at] != _levels_head(data):",
        "if levels_file[:at - DIGEST_SIZE] != _levels_head(data)[:-DIGEST_SIZE]:",
        ("tests/test_cli.py::TestLevelsFile::test_a_changed_filter_is_refused_as_before",),
    ),
    Mutant(
        "a levels file is taken whatever its root",
        "codec.py",
        " or levels_file[-DIGEST_SIZE:] != root:",
        ":",
        ("tests/test_cli.py::TestLevelsFile::test_a_damaged_levels_file_gives_the_same_bytes[another tree]",),
    ),
    Mutant(
        "prove skips the self-check of a proof read from kept levels",
        "cli.py",
        "if proof is None or not verify(",
        "if proof is None or False and not verify(",
        (
            "tests/test_cli.py::TestLevelsFile::test_a_wrong_digest_on_the_proof_path_is_repaired[alpha]",
            "tests/test_cli.py::TestLevelsFile::test_a_wrong_digest_on_the_proof_path_is_repaired[zeta-is-not-here]",
        ),
    ),
    Mutant(
        "a failed self-check exits instead of rebuilding the tree",
        "cli.py",
        "        bloom_tree = _decode_and_keep(data, levels_path)\n",
        "        if proof is not None:\n"
        '            raise codec.RootMismatch("the proof read from the kept levels does not verify")\n'
        "        bloom_tree = _decode_and_keep(data, levels_path)\n",
        (
            "tests/test_cli.py::TestLevelsFile::test_a_wrong_digest_on_the_proof_path_is_repaired[alpha]",
            "tests/test_cli.py::TestLevelsFile::test_a_wrong_digest_on_the_proof_path_is_repaired[zeta-is-not-here]",
        ),
    ),
    Mutant(
        "the grid takes the upper median",
        "experiment.py",
        "statistics.median_low(",
        "statistics.median_high(",
        ("tests/test_experiment.py::TestGrid::test_default_grid_output_is_pinned",),
    ),
)


def pytest_exit_code(workdir: pathlib.Path, tests: tuple[str, ...]) -> int:
    # Without bytecode, pytest would redo its assertion rewriting of every test
    # and plugin module in every run, about 1 s a run; only the exit code is read.
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain", *tests]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    code = subprocess.run(command, cwd=workdir, env=env, capture_output=True).returncode
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)  # its saved failures would replay in the next run
    return code


def check(workdir: pathlib.Path, mutant: Mutant) -> str | None:
    """None if the mutant is killed, else why it is not. The mutated file is restored either way."""
    target = workdir / "src" / "bloomtree" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"its old text occurs {text.count(mutant.old)} times in {mutant.path}, not once"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code = pytest_exit_code(workdir, mutant.tests)
    finally:
        target.write_text(text, encoding="utf-8")
    if code != TESTS_FAILED:
        return f"its tests exit {code} mutated, not {TESTS_FAILED}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bloomtree-mutants-") as tmp:
        workdir = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, workdir / name)
        named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        code = pytest_exit_code(workdir, named)
        if code != 0:
            print(f"the named tests exit {code} unmutated, so no mutant can be judged", file=sys.stderr)
            return 1
        survivors = []
        for mutant in MUTANTS:
            reason = check(workdir, mutant)
            print(f"{'killed' if reason is None else 'SURVIVED'}: {mutant.name}", flush=True)
            if reason is not None:
                survivors.append(f"{mutant.name}: {reason}")
    for line in survivors:
        print(f"survivor: {line}", file=sys.stderr)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
