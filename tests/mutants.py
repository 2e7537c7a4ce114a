"""Mutation checks: each input check and hot-path rule has a test that fails without it.

    python tests/mutants.py

Each mutant is a source edit that removes or weakens one rule, and names
the tests that must fail once it is applied. For each mutant, the script
copies src/, tests/ and README.md into a temporary directory, requires
the named tests to pass there unmutated, applies the edit (its old text
must occur exactly once in the file) and requires pytest to exit 1, tests
failed: a collection error (2) or no tests collected (5) does not count
as a kill. It exits 1 and names every survivor, 0 when every mutant is
killed. Stdlib only; pytest and hypothesis must be importable.

A change that adds a check adds its mutant here.
"""

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
        "_are_leaf_indices admits bools",
        "merkle.py",
        "isinstance(i, int) and not isinstance(i, bool) for i in indices",
        "isinstance(i, int) for i in indices",
        ("tests/test_merkle.py::TestSingleProof::test_bool_leaf_index_is_false",),
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
        "the header check takes any version",
        "codec.py",
        "if version != VERSION:",
        "if False:",
        ("tests/test_codec.py::TestFilterCodec::test_unsupported_version",),
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
        'if not isinstance(chunk, (bytes, bytearray)) or len(chunk) != size:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        'if False:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify takes an absence chunk of any length or type",
        "tree.py",
        'if not isinstance(chunk, (bytes, bytearray)) or len(chunk) != size:\n'
        '            return Verdict.invalid(f"chunk is not',
        'if False:\n'
        '            return Verdict.invalid(f"chunk is not',
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify takes an absence path that is not iterable",
        "tree.py",
        "        try:\n"
        "            path = list(proof.path)\n"
        "        except TypeError:\n"
        '            return Verdict.invalid("malformed absence proof path")\n',
        "        path = proof.path\n",
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
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
        "the grid takes the upper median",
        "experiment.py",
        "statistics.median_low(",
        "statistics.median_high(",
        ("tests/test_experiment.py::TestGrid::test_default_grid_output_is_pinned",),
    ),
)


def pytest_exit_code(workdir: pathlib.Path, tests: tuple[str, ...]) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=workdir, capture_output=True).returncode


def check(mutant: Mutant) -> str | None:
    """None if the mutant is killed, else why it is not."""
    with tempfile.TemporaryDirectory(prefix="bloomtree-mutant-") as tmp:
        workdir = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, workdir / name)
        target = workdir / "src" / "bloomtree" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"its old text occurs {text.count(mutant.old)} times in {mutant.path}, not once"
        code = pytest_exit_code(workdir, mutant.tests)
        if code != 0:
            return f"its tests exit {code} unmutated"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = pytest_exit_code(workdir, mutant.tests)
        if code != TESTS_FAILED:
            return f"its tests exit {code} mutated, not {TESTS_FAILED}"
    return None


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        reason = check(mutant)
        print(f"{'killed' if reason is None else 'SURVIVED'}: {mutant.name}", flush=True)
        if reason is not None:
            survivors.append(f"{mutant.name}: {reason}")
    for line in survivors:
        print(f"survivor: {line}", file=sys.stderr)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
