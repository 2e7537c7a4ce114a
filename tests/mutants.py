"""Mutation check: each rule behind a verdict has a test that fails without it.

    python tests/mutants.py

Operator mutants are generated from the AST of the modules that hold logic
(MODULES): each comparison swapped (== and !=, < and <=, > and >=, in and
not in, is and is not), each and/or swapped or one operand dropped, each not
dropped, 1 added to each int constant, each if and while test forced True
and forced False, and each conditional expression replaced by either
branch, the module written out with ast.unparse. Hand mutants (MUTANTS) are
edits for the attacks no operator makes, each naming its tests.

In a temporary copy of src/, tests/ and README.md the suite runs twice
unmutated: timed, when it must pass, and traced by this module's pytest
plugin for the src/ lines each test runs in the pytest process itself. A
generated mutant runs the tests that run its lines, fastest first, with -x;
one on a line no test runs, such as a module constant, runs every test of
its module. A mutant is killed if pytest exits 1, tests failed (a test
module that raises at import counts), or if it outlives a timeout derived
from its tests' unmutated time, as a while test forced True loops forever.
Exit 2 or 5 is no kill. Each run has no hypothesis deadline, example
database or shrinking, and one fixed seed.

EQUIVALENTS lists the generated mutants no input can tell apart, each with
its reason, keyed by module, enclosing def or class, operator and the
mutated node's source; they are not run. The script exits 1 and names each
survivor, each entry of EQUIVALENTS that does not match one generated
mutant and each hand mutant an operator makes; 0 otherwise. Stdlib only;
pytest and hypothesis must be importable.

Operator mutants are generated: add a hand mutant only for an attack no
operator makes, and a test, not an entry of EQUIVALENTS, for a survivor some
input can show.
"""

import ast
import json
import os
import pathlib
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md")
MODULES = ("bloom", "merkle", "tree", "codec", "cli", "experiment")
TESTS_FAILED = 1
SEED = 0
WORKERS = 2
# A mutant's run may take this many times its tests' unmutated time, plus this many seconds.
TIMEOUT_FACTOR = 3
TIMEOUT_SLACK = 20
# Environment variables the plugin reads: where it writes each test's time,
# and with TRACE set its lines; and a file naming the tests to run, in order.
RECORD = "BLOOMTREE_MUTANTS_RECORD"
TRACE = "BLOOMTREE_MUTANTS_TRACE"
SELECT = "BLOOMTREE_MUTANTS_SELECT"


class Mutant(NamedTuple):
    name: str
    old: str  # occurs once in the modules
    new: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    module: str
    function: str  # the qualified name of the enclosing def or class, "" at module level
    operator: str
    source: str  # ast.unparse of the mutated node
    reason: str


class Site(NamedTuple):
    module: str
    function: str
    operator: str
    source: str
    lines: range  # of the mutated node, in the committed module
    text: str  # the mutated module


MUTANTS = (
    Mutant(
        "level passes hash each level in one block",
        "_BLOCK_BYTES = 64 * 1024",
        "_BLOCK_BYTES = 1 << 30",
        ("tests/test_tree.py::TestBuild::test_build_of_large_chunks_holds_little_beyond_the_tree",),
    ),
    Mutant(
        "the prover reads one flat level too many",
        "for level in levels[:-_KEPT_LEVELS]:",
        "for level in levels[: 1 - _KEPT_LEVELS]:",
        ("tests/test_merkle_oracle.py::test_dense_and_sparse_extremes_match_the_oracle",),
    ),
    Mutant(
        "the prover reads one flat level too few",
        "for level in levels[:-_KEPT_LEVELS]:",
        "for level in levels[: -_KEPT_LEVELS - 1]:",
        ("tests/test_merkle_oracle.py::test_dense_and_sparse_extremes_match_the_oracle",),
    ),
    Mutant(
        "insert walks k-1 steps",
        "for x in range(start, start + params.k * step, step):",
        "for x in range(start, start + (params.k - 1) * step, step):",
        ("tests/test_bloom.py::TestInsert::test_sets_exactly_the_reference_bits",),
    ),
    Mutant(
        "_are_leaf_indices admits int subclasses and bools",
        "type(i) is int for i in indices",
        "isinstance(i, int) for i in indices",
        (
            "tests/test_merkle.py::TestSingleProof::test_bool_leaf_index_is_false",
            "tests/test_merkle.py::TestSingleProof::test_int_subclass_indices_are_refused",
        ),
    ),
    Mutant(
        "_tree_over hashes pairs without the 0x01 prefix",
        "sha256(prefix + pair).digest() for pair in pairs",
        "sha256(pair).digest() for pair in pairs",
        ("tests/test_golden.py::test_wide_tree_levels_are_pinned",),
    ),
    Mutant(
        "derive_params drops the one-chunk floor",
        "m = max(chunk_size * 8, 1 << (optimal_bit_count(n, p) - 1).bit_length())",
        "m = 1 << (optimal_bit_count(n, p) - 1).bit_length()",
        (
            "tests/test_bloom.py::TestDeriveParams::test_single_chunk_clamp",
            "tests/test_bloom.py::TestDeriveParams::test_tiny_sizing",
        ),
    ),
    Mutant(
        "the struct layout cache is unbounded",
        "@functools.lru_cache(maxsize=_LAYOUTS_KEPT)",
        "@functools.lru_cache(maxsize=None)",
        ("tests/test_codec.py::TestProofCodec::test_declared_chunk_sizes_leave_bounded_memory",),
    ),
    Mutant(
        "verify takes a presence chunk of a bytes subclass",
        'if not _is_bytes(chunk) or len(chunk) != size:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        'if not isinstance(chunk, (bytes, bytearray)) or len(chunk) != size:\n'
        '                return Verdict.invalid(f"chunk {chunk_index} is not',
        ("tests/test_tree.py::TestVerify::test_chunks_that_lie_about_their_bits_are_invalid",),
    ),
    Mutant(
        "verify takes an absence chunk of a bytes subclass",
        'if not _is_bytes(chunk) or len(chunk) != size:\n'
        '            return Verdict.invalid(f"chunk is not',
        'if not isinstance(chunk, (bytes, bytearray)) or len(chunk) != size:\n'
        '            return Verdict.invalid(f"chunk is not',
        ("tests/test_tree.py::TestVerify::test_chunks_that_lie_about_their_bits_are_invalid",),
    ),
    Mutant(
        "the exact-type checks compare types by equality",
        "    kind = type(value)\n    return kind is bytes or kind is bytearray\n",
        "    return type(value) in {bytes, bytearray}\n",
        ("tests/test_tree.py::TestVerify::test_chunks_that_lie_about_their_bits_are_invalid",),
    ),
    Mutant(
        "verify takes an absence chunk index of an int subclass",
        "if type(chunk_index) is not int:",
        "if not isinstance(chunk_index, int):",
        ("tests/test_tree.py::TestVerify::test_chunk_indices_that_are_not_exact_ints_are_invalid",),
    ),
    Mutant(
        "_all_digests takes digests of a bytes subclass",
        "if [kind for kind in map(type, values) if kind is not bytes and kind is not bytearray]:",
        "if not all(isinstance(v, (bytes, bytearray)) for v in values):",
        (
            "tests/test_merkle.py::TestBuildTree::test_bytes_like_digest_types_give_the_same_root",
            "tests/test_tree.py::TestVerify::test_junk_digests_in_an_honest_proof_are_invalid",
        ),
    ),
    Mutant(
        "verify takes a superset of the presence chunk set",
        " or list(supplied) != expected:",
        " or not set(expected) <= set(supplied):",
        ("tests/test_tree.py::TestVerify::test_presence_chunk_set_must_match_exactly",),
    ),
    Mutant(
        "verify iterates a proof field of any type",
        "    kind = type(value)\n    return kind is tuple or kind is list\n",
        '    return hasattr(value, "__iter__")\n',
        ("tests/test_tree.py::TestVerify::test_junk_fields_in_an_honest_proof_are_invalid_with_their_reason",),
    ),
    Mutant(
        "verify takes an absence chunk with a zero at a bit the element does not map to",
        "if not _zero_bits(required, claimed, params):",
        "if chunk.count(255) == size:",
        ("tests/test_codec.py::TestVerdictsOnProofBytes::test_reencoded_proofs_get_the_spec_verdict",),
    ),
    Mutant(
        "the leaf preimage drops the chunk index",
        "sha256(head(0, i) + chunk)",
        'sha256(b"\\x00" + chunk)',
        ("tests/test_codec.py::TestVerdictsOnProofBytes::test_tampered_bytes_get_the_spec_verdict",),
    ),
    Mutant(
        "the record is written before the root check",
        "    if folded is None or folded[1][0] != root:\n        return False\n"
        "    _keep(root, depth, bottom, seen)\n    return True\n",
        "    if folded is None:\n        return False\n"
        "    _keep(root, depth, bottom, seen)\n    return folded[1][0] == root\n",
        ("tests/test_merkle.py::TestKeptLevels::test_forged_proofs_leave_the_record_unwritten",),
    ),
    Mutant(
        "a failed fold still writes",
        "    if folded is None or folded[1][0] != root:\n        return False\n    _keep(root, depth, bottom, seen)\n",
        "    _keep(root, depth, bottom, seen)\n    if folded is None or folded[1][0] != root:\n        return False\n",
        ("tests/test_merkle.py::TestKeptLevels::test_forged_proofs_leave_the_record_unwritten",),
    ),
    Mutant(
        "a warm verify skips the rest-of-proof comparison",
        "return list(proof[cursor:]) == _walk(kept, positions, [])",
        "return True",
        ("tests/test_tree.py::TestVerify::test_one_digest_replaced_after_every_leaf_was_verified_is_invalid",),
    ),
    Mutant(
        "the record holds the caller's root object",
        "key = bytes(root)",
        "key = root",
        ("tests/test_merkle.py::TestKeptLevels::test_the_record_holds_copies_of_a_callers_bytearrays",),
    ),
    Mutant(
        "optimal_bit_count lets a float overflow out as OverflowError",
        "except OverflowError:\n        raise ValueError(\"expected element count",
        "except ZeroDivisionError:\n        raise ValueError(\"expected element count",
        (
            "tests/test_bloom.py::TestDeriveParams::test_inputs_too_large_for_a_float_raise_value_error",
            "tests/test_cli.py::TestParams::test_value_too_large_for_a_float_is_usage_error",
        ),
    ),
    Mutant(
        "derive_params divides an m beyond a float by n",
        "round(min(m, 2 * MAX_K * n) / n * _LN2)",
        "round(m / n * _LN2)",
        (
            "tests/test_bloom.py::TestDeriveParams::test_inputs_too_large_for_a_float_raise_value_error",
            "tests/test_cli.py::TestParams::test_value_too_large_for_a_float_is_usage_error",
        ),
    ),
    Mutant(
        "fpr lets a float overflow out as OverflowError",
        "except OverflowError:\n        raise ValueError(\"m, k and n",
        "except ZeroDivisionError:\n        raise ValueError(\"m, k and n",
        ("tests/test_bloom.py::TestFpr::test_rejects_bad_arguments",),
    ),
    Mutant(
        "BloomFilter turns an int or a list of ints into a backing array",
        "bits = bytearray(memoryview(bits))",
        "bits = bytearray(bits)",
        ("tests/test_bloom.py::TestFilter::test_backing_array_must_be_bytes_like",),
    ),
    Mutant(
        "record fields can be reassigned",
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
        "        if type(other) is not type(self):\n            return NotImplemented\n",
        "",
        ("tests/test_values.py::test_value_semantics",),
    ),
    Mutant(
        "copy and pickle restore records through setattr",
        "    def __reduce__(self):\n        return type(self), tuple([getattr(self, name) for name in self._fields])\n\n",
        "",
        ("tests/test_values.py::test_value_semantics",),
    ),
    Mutant(
        "leaf_hash turns an int chunk into zero bytes",
        "return _leaf_hashes([(chunk_index, chunk)])[0]",
        "return _leaf_hashes([(chunk_index, bytes(chunk))])[0]",
        ("tests/test_tree.py::TestLeafHash::test_chunk_must_be_bytes_like",),
    ),
    Mutant(
        "the decoders turn an int into zero bytes",
        "return data if type(data) is bytes else bytes(memoryview(data))",
        "return bytes(data)",
        ("tests/test_codec.py::test_input_that_is_not_bytes_like_raises_type_error",),
    ),
    Mutant(
        "BloomParams formats k raw in its message",
        'MAX_K}], got {_shown(k)}"',
        'MAX_K}], got {k}"',
        ("tests/test_bloom.py::test_messages_state_their_rule_for_any_int[params-k]",),
    ),
    Mutant(
        "definitely_absent() gives the MaybePresent verdict",
        "return _DEFINITELY_ABSENT",
        "return _MAYBE_PRESENT",
        (
            "tests/test_tree.py::TestVerdict::test_labels",
            "tests/test_codec.py::TestVerdictsOnProofBytes::test_tampered_bytes_get_the_spec_verdict",
        ),
    ),
    Mutant(
        "a levels file is taken without comparing its key with the filter's SHA-256",
        "not levels_file.startswith(head)",
        "not levels_file.startswith(head[:5])",
        ("tests/test_cli.py::TestLevelsFile::test_a_changed_filter_is_refused_as_before",),
    ),
    Mutant(
        "a failed self-check exits instead of rebuilding the tree",
        "        bloom_tree = codec.decode_filter(data)\n",
        "        if levels is not None:\n"
        '            raise codec.RootMismatch("the proof read from the kept levels does not verify")\n'
        "        bloom_tree = codec.decode_filter(data)\n",
        ("tests/test_cli.py::TestLevelsFile::test_a_wrong_digest_on_the_proof_path_is_repaired",),
    ),
    Mutant(
        "a hit is checked against the levels file's own root",
        "not verify(root, params, element, proof)",
        "not verify(bloom_tree.root, params, element, proof)",
        ("tests/test_cli.py::TestLevelsFile::test_a_damaged_levels_file_gives_the_same_bytes[another tree]",),
    ),
    Mutant(
        "prove waits in open() for a writer to a FIFO at the levels path",
        'flags | getattr(os, "O_NONBLOCK", 0)',
        "flags",
        ("tests/test_cli.py::TestLevelsFile::test_a_fifo_at_the_levels_path_is_a_miss",),
    ),
    Mutant(
        "the grid takes the upper median",
        "statistics.median_low(",
        "statistics.median_high(",
        ("tests/test_experiment.py::TestGrid::test_default_grid_output_is_pinned",),
    ),
)


# Each differs from the committed code in nothing any input can show.
EQUIVALENTS = (
    Equivalent("bloom", "_shown", "< to <=", "value < 0", "value has 65 bits or more here, so it is never 0"),
    Equivalent("bloom", "_shown", "0 to 1", "value < 0", "value has 65 bits or more here, so it is never in [0, 1)"),
    Equivalent("bloom", "BloomParams.__init__", "1 to 2", "m - 1", "for m >= 2, m & (m - 2) is 0 just when m is a power of two"),
    Equivalent("bloom", "derive_params", "2 to 3", "2 * MAX_K", "a cap of MAX_K / ln 2 bits an element or more gives k = MAX_K"),
    Equivalent("merkle", "", "256 to 257", "_BLOCK_FIELDS = 256", "how many fields a block holds: the same fields are cut"),
    Equivalent("merkle", "", "64 to 65", "64 * 1024", "how many bytes a block holds: the same fields are cut"),
    Equivalent("merkle", "", "1024 to 1025", "64 * 1024", "how many bytes a block holds: the same fields are cut"),
    Equivalent("merkle", "", "128 to 129", "_LAYOUTS_KEPT = 128", "a cache size: a cached layout cuts as a new one does"),
    Equivalent("merkle", "", "1 to 2", "(None, -1, None)", "the empty record's depth only has to be no tree's, and all are >= 0"),
    Equivalent("merkle", "_split", "test to False", "count <= _BLOCK_FIELDS", "a short cut: _blocks cuts the same fields"),
    Equivalent("merkle", "_split", "<= to <", "count <= _BLOCK_FIELDS", "a short cut: _blocks cuts the same fields"),
    Equivalent("merkle", "_prove", "1 to 2", "last = -1", "last starts below every parent position, and all are >= 0"),
    Equivalent("merkle", "_walk", "1 to 2", "last = -1", "last starts below every parent position, and all are >= 0"),
    Equivalent("codec", "_params", "16 to 17", "maxsize=16", "a cache size: a cached record equals a new one"),
    Equivalent("cli", "_read_levels", "1 to 2", "size + 1", "a read of any more than size bytes tells a longer file by its length"),
    Equivalent(
        "cli",
        "_read_levels",
        "to its body",
        "handle.read(size + 1) if stat.S_ISREG(os.fstat(handle.fileno()).st_mode) else b''",
        "on Linux a FIFO with no writer reads as no bytes, and no device holds the key",
    ),
    Equivalent("cli", "_open_nonblocking", "0 to 1", "getattr(os, 'O_NONBLOCK', 0)", "the default is for a platform without O_NONBLOCK, and every POSIX one has it"),
)

_SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}
_SWAP = dict([(ast.Eq, ast.NotEq), (ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.In, ast.NotIn), (ast.Is, ast.IsNot)])
_SWAP.update({b: a for a, b in _SWAP.items()})


def _variants(node: ast.AST, parent: ast.AST | None = None):
    """(operator, key, target, replacement) for each mutant of ``node``: ``target``, the node or its test, is replaced.

    ``key`` is the node whose source names the mutant: the one comparison of
    a chain that is swapped, the parent of a constant, else the target.
    """
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for j, op in enumerate(node.ops):
            swapped = _SWAP[type(op)]
            key = ast.Compare(operands[j], [op], [operands[j + 1]])
            ops = [*node.ops[:j], swapped(), *node.ops[j + 1 :]]
            yield f"{_SYMBOLS[type(op)]} to {_SYMBOLS[swapped]}", key, node, ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp):
        word, other = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
        yield f"{word} to {other}", node, node, ast.BoolOp(ast.Or() if other == "or" else ast.And(), node.values)
        for j in range(len(node.values)):
            rest = node.values[:j] + node.values[j + 1 :]
            yield f"drop {word} operand {j + 1}", node, node, rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "drop not", node, node, node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield f"{node.value} to {node.value + 1}", parent, node, ast.Constant(node.value + 1)
    elif isinstance(node, (ast.If, ast.While)):
        yield "test to True", node.test, node.test, ast.Constant(True)
        yield "test to False", node.test, node.test, ast.Constant(False)
    elif isinstance(node, ast.IfExp):
        yield "to its body", node, node, node.body
        yield "to its else", node, node, node.orelse


def _context(tree: ast.AST) -> dict[int, tuple[str, ast.AST | None]]:
    """Each node's enclosing def or class by qualified name ("" at module level), and its parent; keyed by id."""
    context = {id(tree): ("", None)}
    stack = [(tree, "")]
    while stack:
        node, name = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{name}.{node.name}" if name else node.name
        for child in ast.iter_child_nodes(node):
            context[id(child)] = (name, node)
            stack.append((child, name))
    return context


def _replace(tree: ast.AST, target: ast.AST, replacement: ast.AST) -> None:
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, replacement)
                return
            for i, item in enumerate(value if isinstance(value, list) else ()):
                if item is target:
                    value[i] = replacement
                    return


def generate(module: str, text: str) -> list[Site]:
    """Every operator mutant of ``module``, whose source is ``text``, that changes its unparsed source."""
    tree = ast.parse(text)
    context = _context(tree)
    plain = ast.unparse(tree)
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        function, parent = context[id(node)]
        while isinstance(parent, ast.UnaryOp):  # -1 is one literal
            parent = context[id(parent)][1]
        for choice, (operator, key, target, _) in enumerate(_variants(node, parent)):
            fresh = ast.parse(text)
            _, _, fresh_target, replacement = list(_variants(list(ast.walk(fresh))[index]))[choice]
            _replace(fresh, fresh_target, replacement)
            mutated = ast.unparse(fresh)
            if mutated != plain:
                lines = range(target.lineno, target.end_lineno + 1)
                sites.append(Site(module, function, operator, ast.unparse(key), lines, mutated))
    return sites


def drift(sites: list[Site], sources: dict[str, str]) -> list[str]:
    """Entries of EQUIVALENTS that do not match one generated mutant, and hand mutants that do not apply or are generated."""
    keys = Counter(site[:4] for site in sites)
    texts = {site.text for site in sites}
    problems = [
        f"equivalent {entry[:4]} matches {keys[entry[:4]]} generated mutants, not one"
        for entry in EQUIVALENTS
        if keys[entry[:4]] != 1
    ]
    for mutant in MUTANTS:
        found = sum(text.count(mutant.old) for text in sources.values())
        if found != 1:
            problems.append(f"hand mutant {mutant.name!r}: its old text occurs {found} times in the modules, not once")
            continue
        # A hand mutant that does not compile raises here, before any run could count it killed.
        if ast.unparse(ast.parse(_applied(mutant, sources)[1])) in texts:
            problems.append(f"hand mutant {mutant.name!r} is a generated mutant: delete it")
    return problems


# The pytest plugin, loaded by every run with -p mutants: the hypothesis
# profile, the tests SELECT names in its order, and what RECORD and TRACE ask for.

_started: dict[str, float] = {}
_times: dict[str, float] = {}
_lines: dict[str, set] = {}


def pytest_configure(config):
    from hypothesis import HealthCheck, Phase, settings

    phases = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)  # no shrinking
    slow = (HealthCheck.too_slow,)  # under the tracer
    settings.register_profile("mutants", deadline=None, database=None, phases=phases, suppress_health_check=slow)
    settings.load_profile("mutants")


def pytest_collection_modifyitems(config, items):
    if os.environ.get(SELECT):
        order = {test: i for i, test in enumerate(json.loads(pathlib.Path(os.environ[SELECT]).read_text()))}
        config.hook.pytest_deselected(items=[item for item in items if item.nodeid not in order])
        items[:] = sorted([item for item in items if item.nodeid in order], key=lambda item: order[item.nodeid])


def pytest_runtest_logstart(nodeid, location):
    if os.environ.get(TRACE):
        tracer = _tracer(str(ROOT / "src" / "bloomtree") + os.sep, _lines.setdefault(nodeid, set()))
        sys.settrace(tracer)
        threading.settrace(tracer)
    _started[nodeid] = time.perf_counter()


def pytest_runtest_logfinish(nodeid, location):
    _times[nodeid] = time.perf_counter() - _started.pop(nodeid)
    sys.settrace(None)
    threading.settrace(None)


def pytest_sessionfinish(session):
    if os.environ.get(RECORD):
        lines = {test: sorted({f"{pathlib.Path(name).stem}:{line}" for name, line in hit}) for test, hit in _lines.items()}
        pathlib.Path(os.environ[RECORD]).write_text(json.dumps({"times": _times, "lines": lines}), encoding="utf-8")


def _tracer(prefix: str, hit: set):
    """A trace function that adds (file name, line) to ``hit`` for each line run in a file under ``prefix``."""

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return call


def run_pytest(workdir: pathlib.Path, args: list[str], timeout: float | None = None, **plugin: str) -> int | None:
    """pytest's exit code for ``args`` in ``workdir``, or None if it outlives ``timeout`` seconds.

    ``plugin`` is passed to the plugin as environment variables.
    """
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants", "--assert=plain"]
    path = os.pathsep.join([str(workdir / "tests"), *filter(None, [os.environ.get("PYTHONPATH")])])
    # No bytecode, so no run reads a module compiled from another mutant.
    env = {**os.environ, **plugin, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [*command, f"--hypothesis-seed={SEED}", *args], cwd=workdir, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)  # nothing one run writes there reaches the next
    return run.returncode


class Job(NamedTuple):
    name: str
    module: str
    text: str  # the mutated module
    tests: list[str]  # fastest first


def check(workdir: pathlib.Path, job: Job, times: dict[str, float]) -> str | None:
    """None if the mutant is killed, else why it is not. The mutated file is restored either way."""
    target = workdir / "src" / "bloomtree" / f"{job.module}.py"
    text = target.read_text(encoding="utf-8")
    target.write_text(job.text, encoding="utf-8")
    selection = workdir / "selection.json"
    selection.write_text(json.dumps(job.tests), encoding="utf-8")
    # A test module that runs the mutated code at import and raises there is a failed test, as in CI.
    args = ["-x", "--continue-on-collection-errors", *sorted({test.partition("::")[0] for test in job.tests})]
    timeout = TIMEOUT_SLACK + TIMEOUT_FACTOR * sum(times[test] for test in job.tests)
    try:
        code = run_pytest(workdir, args, timeout, **{SELECT: str(selection)})
    finally:
        target.write_text(text, encoding="utf-8")
    if code not in (TESTS_FAILED, None):
        return f"its tests exit {code} mutated, not {TESTS_FAILED}"
    return None


def _applied(mutant: Mutant, sources: dict[str, str]) -> tuple[str, str]:
    """The module ``mutant`` edits, and its text edited."""
    module = next(module for module, text in sources.items() if mutant.old in text)
    return module, sources[module].replace(mutant.old, mutant.new)


def _run_as(names: tuple[str, ...], times: dict[str, float]) -> list[str]:
    """The ids of the tests the suite ran under ``names``, a parametrized test's every case, fastest first."""
    return sorted([test for test in times if test in names or test.partition("[")[0] in names], key=times.get)


def jobs_for(sites: list[Site], sources: dict[str, str], times: dict[str, float], lines: dict[str, list[str]]) -> list[Job]:
    """The hand mutants with their named tests, then each site with the tests that execute it."""
    tests_at, tests_in = {}, {}
    for test, hits in lines.items():
        for hit in hits:
            tests_at.setdefault(hit, set()).add(test)
            tests_in.setdefault(hit.partition(":")[0], set()).add(test)
    jobs = [Job(mutant.name, *_applied(mutant, sources), _run_as(mutant.tests, times)) for mutant in MUTANTS]
    for site in sites:
        tests = set().union(*[tests_at.get(f"{site.module}:{line}", ()) for line in site.lines])
        name = f"{site[:4]} at line {site.lines[0]}"
        jobs.append(Job(name, site.module, site.text, sorted(tests or tests_in[site.module], key=times.get)))
    return jobs


def main() -> int:
    started = time.monotonic()
    sources = {module: (ROOT / "src" / "bloomtree" / f"{module}.py").read_text(encoding="utf-8") for module in MODULES}
    sites = [site for module in MODULES for site in generate(module, sources[module])]
    problems = drift(sites, sources)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    listed = {entry[:4] for entry in EQUIVALENTS}
    unlisted = [site for site in sites if site[:4] not in listed]
    with tempfile.TemporaryDirectory(prefix="bloomtree-mutants-") as tmp:
        workdirs = [pathlib.Path(tmp) / str(i) for i in range(WORKERS)]
        for workdir, name in [(workdir, name) for workdir in workdirs for name in COPIED]:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, workdir / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, workdir / name)
        record = str(pathlib.Path(tmp) / "record.json")
        code = run_pytest(workdirs[0], ["tests"], **{RECORD: record})
        if code != 0:
            print(f"the suite exits {code} unmutated, so no mutant can be judged", file=sys.stderr)
            return 1
        times = json.loads(pathlib.Path(record).read_text(encoding="utf-8"))["times"]
        unknown = [test for mutant in MUTANTS for test in mutant.tests if not _run_as((test,), times)]
        for test in unknown:
            print(f"a hand mutant names {test}, which the suite does not run", file=sys.stderr)
        if unknown:
            return 1
        run_pytest(workdirs[0], ["tests"], **{RECORD: record, TRACE: "1"})  # whether it passes is not read
        lines = json.loads(pathlib.Path(record).read_text(encoding="utf-8"))["lines"]
        jobs = jobs_for(unlisted, sources, times, lines)
        free = queue.Queue()
        for workdir in workdirs:
            free.put(workdir)

        def judge(job: Job) -> str | None:
            workdir = free.get()
            try:
                return check(workdir, job, times)
            finally:
                free.put(workdir)

        survivors = []
        with ThreadPoolExecutor(WORKERS) as pool:
            for job, reason in zip(jobs, pool.map(judge, jobs)):
                if reason is not None:
                    survivors.append(f"{job.name}: {reason}")
                    print(f"SURVIVED: {survivors[-1]}", flush=True)
    for module in MODULES:
        made = sum(site.module == module for site in sites)
        print(f"{module}: {made} generated, {made - sum(site.module == module for site in unlisted)} listed as equivalent")
    print(f"{len(jobs) - len(survivors)} of {len(jobs)} mutants killed ({len(MUTANTS)} by hand) in {time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
