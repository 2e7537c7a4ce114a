import hashlib
import os
import pathlib
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from bloomtree import cli, codec
from bloomtree.bloom import BloomFilter, derive_params
from bloomtree.cli import main
from bloomtree.tree import AbsenceProof, build, prove

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    return main(list(argv))


def run_python(*argv, stdin=None, timeout=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=timeout
    )


def run_module(*argv, stdin=None, timeout=None):
    return run_python("-m", "bloomtree", *argv, stdin=stdin, timeout=timeout)


@pytest.fixture
def elements_file(tmp_path):
    path = tmp_path / "elements.txt"
    path.write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
    return path


@pytest.fixture
def filter_file(tmp_path, elements_file):
    # sized for 200 elements: 32 chunks, so proofs carry real digests
    path = tmp_path / "filter.blt"
    code = run_cli(
        "build", "--elements", str(elements_file), "--n", "200",
        "--fpr", "0.01", "--chunk-size", "8", "--out", str(path),
    )
    assert code == 0
    return path


class TestParams:
    def test_reference_geometry(self, capsys):
        assert run_cli("params", "--n", "10000", "--fpr", "0.01", "--chunk-size", "32") == 0
        out = capsys.readouterr().out
        assert "m_raw: 95851" in out
        assert "m: 131072" in out
        assert "k: 9" in out
        assert "chunks: 512" in out

    def test_tiny_geometry(self, capsys):
        assert run_cli("params", "--n", "1", "--fpr", "0.5", "--chunk-size", "1") == 0
        out = capsys.readouterr().out
        assert "m: 8" in out
        assert "k: 6" in out

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("params", "--n", "10000")
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_out_of_range_flag_value_is_usage_error(self, capsys):
        assert run_cli("params", "--n", "100", "--fpr", "1.5", "--chunk-size", "32") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk_size", ["3", "24", "65535"])
    def test_chunk_size_that_is_not_a_power_of_two_is_usage_error(self, tmp_path, elements_file, capsys, chunk_size):
        assert run_cli("params", "--n", "100", "--fpr", "0.01", "--chunk-size", chunk_size) == 2
        out = tmp_path / "f.blt"
        code = run_cli("build", "--elements", str(elements_file), "--fpr", "0.01", "--chunk-size", chunk_size, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("power of two") == 2

    def test_value_too_large_for_a_float_is_usage_error(self, capsys):
        assert run_cli("params", "--n", "100", "--fpr", "0.01", "--chunk-size", "1" + "0" * 400) == 2
        assert run_cli("params", "--n", "1" + "0" * 400, "--fpr", "0.01", "--chunk-size", "8") == 2
        assert capsys.readouterr().err.count("error:") == 2

    def test_zero_capacity_is_usage_error(self, tmp_path, elements_file):
        out = tmp_path / "f.blt"
        code = run_cli(
            "build", "--elements", str(elements_file), "--n", "0",
            "--fpr", "0.1", "--chunk-size", "8", "--out", str(out),
        )
        assert code == 2


class TestBuild:
    def test_empty_elements_file_builds_all_zero_filter(self, tmp_path, capsys):
        empty = tmp_path / "none.txt"
        empty.write_bytes(b"")
        out = tmp_path / "empty.blt"
        assert run_cli("build", "--elements", str(empty), "--fpr", "0.1", "--chunk-size", "8", "--out", str(out)) == 0
        tree = codec.decode_filter(out.read_bytes())
        assert bytes(tree.filter.bits) == bytes(tree.filter.params.byte_length)

    @pytest.mark.parametrize(
        "content, elements",
        [
            (b"", []),
            (b"\n", [b""]),
            (b"a", [b"a"]),
            (b"a\n", [b"a"]),
            (b"a\nb", [b"a", b"b"]),
            (b"a\nb\n", [b"a", b"b"]),
            (b"a\n\nb\n", [b"a", b"", b"b"]),
            (b"a\n\n", [b"a", b""]),
            (b"a\r\nb\r\n", [b"a\r", b"b\r"]),
        ],
    )
    def test_each_line_is_one_element(self, tmp_path, content, elements):
        # The default capacity is the line count, so a miscount changes the params too.
        path = tmp_path / "elements.txt"
        path.write_bytes(content)
        out = tmp_path / "f.blt"
        assert run_cli("build", "--elements", str(path), "--fpr", "0.1", "--chunk-size", "8", "--out", str(out)) == 0
        filt = BloomFilter(derive_params(max(1, len(elements)), 0.1, 8))
        for element in elements:
            filt.insert(element)
        assert out.read_bytes() == codec.encode_filter(build(filt))

    def test_duplicate_lines_build_identical_filters(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("x\ny\n", encoding="utf-8")
        b = tmp_path / "b.txt"
        b.write_text("x\ny\nx\ny\ny\n", encoding="utf-8")
        out_a, out_b = tmp_path / "a.blt", tmp_path / "b.blt"
        run_cli("build", "--elements", str(a), "--n", "2", "--fpr", "0.1", "--chunk-size", "8", "--out", str(out_a))
        run_cli("build", "--elements", str(b), "--n", "2", "--fpr", "0.1", "--chunk-size", "8", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_output_reloads_with_matching_root(self, filter_file, capsys):
        assert run_cli("root", "--filter", str(filter_file)) == 0
        printed = capsys.readouterr().out.strip()
        tree = codec.decode_filter(filter_file.read_bytes())
        assert printed == tree.root.hex()
        assert len(printed) == 64
        assert printed == printed.lower()


class TestProveVerify:
    def test_inserted_element_round_trip(self, tmp_path, filter_file, capsys):
        proof = tmp_path / "alpha.proof"
        assert run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof)) == 0
        assert capsys.readouterr().out.strip() == "presence"
        assert run_cli("verify", "--filter", str(filter_file), "--element", "alpha", "--proof", str(proof)) == 0
        assert capsys.readouterr().out.strip() == "MaybePresent"

    def test_absent_element_round_trip(self, tmp_path, filter_file, capsys):
        proof = tmp_path / "zeta.proof"
        assert run_cli("prove", "--filter", str(filter_file), "--element", "zeta-is-not-here", "--out", str(proof)) == 0
        assert capsys.readouterr().out.strip() == "absence"
        assert run_cli("verify", "--filter", str(filter_file), "--element", "zeta-is-not-here", "--proof", str(proof)) == 0
        assert capsys.readouterr().out.strip() == "DefinitelyAbsent"

    def test_verify_with_root_only(self, tmp_path, filter_file, capsys):
        proof = tmp_path / "alpha.proof"
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof))
        run_cli("root", "--filter", str(filter_file))
        root_hex = capsys.readouterr().out.strip().splitlines()[-1]
        assert run_cli("verify", "--root", root_hex, "--element", "alpha", "--proof", str(proof)) == 0
        assert capsys.readouterr().out.strip() == "MaybePresent"

    def test_tampered_proof_is_invalid_exit_1(self, tmp_path, filter_file, capsys):
        proof = tmp_path / "alpha.proof"
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof))
        blob = bytearray(proof.read_bytes())
        blob[-1] ^= 0x40  # corrupt a digest byte, structure stays parseable
        proof.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cli("verify", "--filter", str(filter_file), "--element", "alpha", "--proof", str(proof)) == 1
        assert capsys.readouterr().out.startswith("Invalid")

    def test_wrong_element_is_invalid_exit_1(self, tmp_path, filter_file, capsys):
        proof = tmp_path / "alpha.proof"
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof))
        assert run_cli("verify", "--filter", str(filter_file), "--element", "beta", "--proof", str(proof)) == 1

    def test_element_file_matches_element_string(self, tmp_path, filter_file, capsys):
        element = tmp_path / "element.bin"
        element.write_bytes(b"alpha")
        via_file = tmp_path / "file.proof"
        via_flag = tmp_path / "flag.proof"
        run_cli("prove", "--filter", str(filter_file), "--element-file", str(element), "--out", str(via_file))
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(via_flag))
        assert via_file.read_bytes() == via_flag.read_bytes()

    def test_bad_root_hex_is_format_error(self, tmp_path, filter_file, capsys):
        proof = tmp_path / "p.proof"
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof))
        assert run_cli("verify", "--root", "zz", "--element", "alpha", "--proof", str(proof)) == 3
        assert "root is not valid hex" in capsys.readouterr().err
        # Valid hex of the wrong length is refused too.
        for root in ("00" * 31, "00" * 33):
            assert run_cli("verify", "--root", root, "--element", "alpha", "--proof", str(proof)) == 3
            assert "root must be 32 bytes" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("root", "--filter", str(tmp_path / "absent.blt")) == 3

    def test_corrupt_filter_file_is_format_error(self, tmp_path, filter_file):
        blob = bytearray(filter_file.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "bad.blt"
        bad.write_bytes(bytes(blob))
        assert run_cli("root", "--filter", str(bad)) == 3

    @pytest.mark.parametrize("chunk_size", [3, 24, 65535])
    def test_chunk_size_that_is_not_a_power_of_two_is_format_error(self, tmp_path, chunk_size):
        m = 1 << (chunk_size * 8 - 1).bit_length()
        bad_filter = tmp_path / "bad.blt"
        bad_filter.write_bytes(spec.filter_header(m, 1, chunk_size) + bytes(m // 8 + 32))
        assert run_cli("root", "--filter", str(bad_filter)) == 3
        bad_proof = tmp_path / "bad.proof"
        body = spec.absence_body(0, bytes(chunk_size))
        bad_proof.write_bytes(spec.proof_header(spec.ABSENCE, m, 1, chunk_size) + body)
        assert run_cli("verify", "--root", "00" * 32, "--element", "a", "--proof", str(bad_proof)) == 3

    def test_params_mismatch_between_proof_and_filter(self, tmp_path, filter_file, elements_file, capsys):
        other = tmp_path / "other.blt"
        run_cli("build", "--elements", str(elements_file), "--fpr", "0.001", "--chunk-size", "32", "--out", str(other))
        proof = tmp_path / "p.proof"
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof))
        capsys.readouterr()
        assert run_cli("verify", "--filter", str(other), "--element", "alpha", "--proof", str(proof)) == 1
        assert "params" in capsys.readouterr().out


def library_proof(filter_path, element: bytes) -> bytes:
    """The bytes the library proves for ``element`` from the filter file, through decode_filter."""
    bloom_tree = codec.decode_filter(filter_path.read_bytes())
    return codec.encode_proof(bloom_tree.filter.params, prove(bloom_tree, element))


def prove_file(directory, filter_path, element: bytes):
    """Run prove on ``element`` in process; returns its exit code and the proof bytes, or None if none was written."""
    element_path = directory / "element"
    element_path.write_bytes(element)
    proof_path = directory / "out.proof"
    proof_path.unlink(missing_ok=True)
    code = run_cli("prove", "--filter", str(filter_path), "--element-file", str(element_path), "--out", str(proof_path))
    return code, proof_path.read_bytes() if proof_path.exists() else None


def unread_chunk(filter_path, element: bytes) -> int:
    """The lowest chunk the element's proof does not read."""
    _, proof = codec.decode_proof(library_proof(filter_path, element))
    read = {proof.chunk_index} if isinstance(proof, AbsenceProof) else set(proof.chunk_indices)
    return next(chunk for chunk in range(len(read) + 1) if chunk not in read)


def flip_chunk_bit(filter_bytes: bytes, chunk: int) -> bytes:
    """The filter file with bit 0 of the chunk flipped (8-byte chunks) and the stored root left as it is."""
    blob = bytearray(filter_bytes)
    blob[spec.FILTER_HEADER + 8 * chunk] ^= 0x01
    return bytes(blob)


def temp_files(directory) -> list[str]:
    return [path.name for path in directory.iterdir() if path.name.endswith(".tmp")]


class TestLevelsFile:
    """prove keeps the tree's levels in FILTER.levels and reuses them, writing the same bytes."""

    @settings(max_examples=30, deadline=None)
    @given(
        inserted=st.lists(st.binary(max_size=6), min_size=1, max_size=40, unique=True),
        chunk_size=st.sampled_from([1, 8, 32, 256]),
        pick=st.integers(min_value=0),
        outsider=st.binary(min_size=7, max_size=9),
    )
    def test_the_first_and_later_proves_write_the_library_bytes(self, tmp_path_factory, inserted, chunk_size, pick, outsider):
        directory = tmp_path_factory.mktemp("levels")
        filt = BloomFilter(derive_params(len(inserted), 0.05, chunk_size))
        for element in inserted:
            filt.insert(element)
        filter_path = directory / "filter.blt"
        filter_path.write_bytes(codec.encode_filter(build(filt)))
        member = inserted[pick % len(inserted)]
        for element in (member, member, outsider):  # a miss, then two proves from the levels file
            assert prove_file(directory, filter_path, element) == (0, library_proof(filter_path, element))
        assert (directory / "filter.blt.levels").exists()
        assert temp_files(directory) == []

    def test_a_second_prove_does_not_build(self, tmp_path, filter_file, monkeypatch):
        want = library_proof(filter_file, b"beta")
        builds = []
        monkeypatch.setattr(codec, "build", lambda filt: builds.append(filt) or build(filt))
        prove_file(tmp_path, filter_file, b"alpha")
        assert len(builds) == 1
        assert prove_file(tmp_path, filter_file, b"beta") == (0, want)
        assert len(builds) == 1

    def test_the_levels_file_holds_the_key_and_every_level(self, tmp_path, filter_file):
        prove_file(tmp_path, filter_file, b"alpha")
        data = filter_file.read_bytes()
        levels = codec.decode_filter(data).tree.levels
        kept = (tmp_path / "filter.blt.levels").read_bytes()
        assert kept == b"BLLV" + bytes([codec.VERSION]) + hashlib.sha256(data).digest() + b"".join(levels)

    def test_a_changed_filter_is_refused_as_before(self, tmp_path, filter_file, capsys):
        # A bit flipped in a chunk beta's proof does not read, the stored root left as it is:
        # only the levels file's key can tell, and the full rebuild then refuses the file.
        prove_file(tmp_path, filter_file, b"alpha")
        filter_file.write_bytes(flip_chunk_bit(filter_file.read_bytes(), unread_chunk(filter_file, b"beta")))
        capsys.readouterr()
        assert prove_file(tmp_path, filter_file, b"beta") == (3, None)
        assert "stored root does not match" in capsys.readouterr().err

    def test_root_and_verify_by_filter_do_not_read_the_levels_file(self, tmp_path, filter_file, capsys):
        # A changed filter with its stored root left as it is, beside the levels file of the changed
        # filter under its key: only a full rebuild of the filter refuses it.
        proof = tmp_path / "alpha.proof"
        run_cli("prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof))
        changed = flip_chunk_bit(filter_file.read_bytes(), unread_chunk(filter_file, b"alpha"))
        filter_file.write_bytes(changed)
        params, bits, _ = codec._filter_fields(changed)
        levels = build(BloomFilter(params, bits)).tree.levels
        (tmp_path / "filter.blt.levels").write_bytes(cli._levels_head(changed) + b"".join(levels))
        capsys.readouterr()
        assert run_cli("root", "--filter", str(filter_file)) == 3
        assert "stored root does not match" in capsys.readouterr().err
        assert run_cli("verify", "--filter", str(filter_file), "--element", "alpha", "--proof", str(proof)) == 3
        assert "stored root does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("element", [b"alpha", b"zeta-is-not-here"])
    def test_a_wrong_digest_on_the_proof_path_is_repaired(self, tmp_path, filter_file, element):
        prove_file(tmp_path, filter_file, element)
        levels_path = tmp_path / "filter.blt.levels"
        honest = levels_path.read_bytes()
        _, proof = codec.decode_proof(library_proof(filter_file, element))
        digests = proof.path if isinstance(proof, AbsenceProof) else proof.multiproof
        # The first digest the proof reads and the last, next to the root.
        for digest in (digests[0], digests[-1]):
            at = honest.index(digest, 37)
            forged = bytearray(honest)
            forged[at] ^= 0x01
            levels_path.write_bytes(bytes(forged))
            assert prove_file(tmp_path, filter_file, element) == (0, library_proof(filter_file, element))
            assert levels_path.read_bytes() == honest
            assert temp_files(tmp_path) == []

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "extended", "garbage", "wrong version", "another tree", "another tree, then the root", "directory"],
    )
    def test_a_damaged_levels_file_gives_the_same_bytes(self, tmp_path, filter_file, damage):
        prove_file(tmp_path, filter_file, b"alpha")
        levels_path = tmp_path / "filter.blt.levels"
        honest = levels_path.read_bytes()
        if damage == "directory":
            levels_path.unlink()
            levels_path.mkdir()
        else:
            # another tree: the whole tree of this filter with a chunk alpha's proof does not read
            # changed, under this filter's key; alpha's proof verifies against its root, not the stored one.
            # A file one digest too long can end with the stored root.
            changed = flip_chunk_bit(filter_file.read_bytes(), unread_chunk(filter_file, b"alpha"))
            params, bits, _ = codec._filter_fields(changed)
            other = build(BloomFilter(params, bits))
            damaged = {
                "truncated": honest[:-1],
                "extended": honest + bytes(1),
                "garbage": bytes(range(256)) * (len(honest) // 256) + bytes(len(honest) % 256),
                "wrong version": honest[:4] + bytes([codec.VERSION + 1]) + honest[5:],
                "another tree": honest[:37] + b"".join(other.tree.levels),
                "another tree, then the root": honest[:37] + b"".join(other.tree.levels) + honest[-32:],
            }[damage]
            levels_path.write_bytes(damaged)
        for element in (b"alpha", b"zeta-is-not-here"):
            assert prove_file(tmp_path, filter_file, element) == (0, library_proof(filter_file, element))
        assert levels_path.is_dir() if damage == "directory" else levels_path.read_bytes() == honest
        assert temp_files(tmp_path) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_fifo_at_the_levels_path_is_a_miss(self, tmp_path, filter_file):
        # A plain open of a FIFO waits for a writer. The prove runs in a child
        # process, so a prove that waits fails at the timeout instead of hanging.
        levels_path = tmp_path / "filter.blt.levels"
        os.mkfifo(levels_path)
        proof_path = tmp_path / "alpha.proof"
        proved = run_module(
            "prove", "--filter", str(filter_file), "--element", "alpha", "--out", str(proof_path), timeout=10
        )
        assert proved.returncode == 0, proved.stderr
        assert proof_path.read_bytes() == library_proof(filter_file, b"alpha")
        assert stat.S_ISREG(levels_path.lstat().st_mode)
        assert temp_files(tmp_path) == []


class TestExperiment:
    def test_writes_deterministic_csv(self, tmp_path, capsys):
        args = [
            "experiment", "--seed", "9", "--chunk-sizes", "8", "--fprs", "0.1",
            "--ns", "40,80", "--sample-size", "4",
        ]
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text(encoding="utf-8").splitlines()[0]
        assert header == "chunk_size,fpr,n,m_bits,k,filter_bytes,absence_bytes,median_presence_bytes"
        out = capsys.readouterr().out
        assert "wrote 2 rows" in out

    def test_seed_and_sample_size_default_to_7_and_100(self, tmp_path):
        grid = ["experiment", "--chunk-sizes", "8", "--fprs", "0.1", "--ns", "400"]
        defaulted = tmp_path / "defaulted.csv"
        explicit = tmp_path / "explicit.csv"
        assert run_cli(*grid, "--out", str(defaulted)) == 0
        assert run_cli(*grid, "--seed", "7", "--sample-size", "100", "--out", str(explicit)) == 0
        assert defaulted.read_bytes() == explicit.read_bytes()

    def test_an_omitted_axis_is_the_grid_default(self, tmp_path):
        grid = ["experiment", "--fprs", "0.1", "--ns", "40", "--sample-size", "2"]
        defaulted = tmp_path / "defaulted.csv"
        explicit = tmp_path / "explicit.csv"
        assert run_cli(*grid, "--out", str(defaulted)) == 0
        assert run_cli(*grid, "--chunk-sizes", "8,32,64", "--out", str(explicit)) == 0
        assert defaulted.read_bytes() == explicit.read_bytes()

    def test_empty_axis_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        grid = ["--chunk-sizes", "", "--fprs", "0.1", "--ns", "40", "--sample-size", "2", "--out", str(out)]
        assert run_cli("experiment", *grid) == 2
        assert "chunk_sizes, fprs and ns must all be non-empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--ns", "40,,80"), ("--chunk-sizes", "8,"), ("--fprs", ",0.1")])
    def test_blank_item_is_a_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "grid.csv"
        grid = {"--chunk-sizes": "8", "--fprs": "0.1", "--ns": "40", flag: value}
        args = [arg for pair in grid.items() for arg in pair]
        assert run_cli("experiment", *args, "--sample-size", "2", "--out", str(out)) == 2
        assert not out.exists()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the root does not commit to k")
def test_verify_by_root_never_proves_an_inserted_element_absent(tmp_path, capsys, echoed_k_forgery):
    # --root takes the params the proof file echoes.
    bloom_tree, forged = echoed_k_forgery
    element_file = tmp_path / "element"
    proof_file = tmp_path / "forged.proof"
    verdicts = []
    for echoed, element, proof in forged:
        element_file.write_bytes(element)
        proof_file.write_bytes(codec.encode_proof(echoed, proof))
        run_cli("verify", "--root", bloom_tree.root.hex(), "--element-file", str(element_file), "--proof", str(proof_file))
        verdicts.append(capsys.readouterr().out.strip())
    assert "DefinitelyAbsent" not in verdicts


def test_cli_import_leaves_the_experiment_module_unloaded():
    # -S: without site, whose .pth files may import typing themselves. dataclasses
    # and the inspect it imports cost a CLI process about a fifth of its start-up.
    # The levels file is written with os alone, not tempfile or shutil, which would import random.
    names = ("bloomtree.experiment", "typing", "dataclasses", "inspect", "tempfile", "shutil", "random")
    code = f"import sys, bloomtree.cli; print([name in sys.modules for name in {names!r}])"
    result = run_python("-S", "-c", code)
    assert (result.returncode, result.stdout) == (0, f"{[False] * len(names)}\n")


def test_runtime_imports_only_the_standard_library():
    # -S: without site, so only what bloomtree itself imports is loaded.
    code = (
        "import sys, bloomtree, bloomtree.cli, bloomtree.experiment\n"
        "names = {name.partition('.')[0] for name in sys.modules}\n"
        "print(sorted(names - set(sys.stdlib_module_names) - {'bloomtree', '__main__'}))"
    )
    result = run_python("-S", "-c", code)
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_module_invocation_smoke(tmp_path):
    result = run_module("params", "--n", "1000", "--fpr", "0.1", "--chunk-size", "8")
    assert result.returncode == 0
    assert "chunks:" in result.stdout


def test_process_round_trip_against_the_printed_root(tmp_path, elements_file):
    filter_path = tmp_path / "filter.blt"
    built = run_module(
        "build", "--elements", str(elements_file), "--n", "200",
        "--fpr", "0.01", "--chunk-size", "8", "--out", str(filter_path),
    )
    assert built.returncode == 0
    root = built.stdout.removeprefix("root: ").strip()
    assert root == codec.decode_filter(filter_path.read_bytes()).root.hex()
    for element, kind, verdict in (("alpha", "presence", "MaybePresent"), ("omega", "absence", "DefinitelyAbsent")):
        proof = tmp_path / f"{element}.proof"
        proved = run_module("prove", "--filter", str(filter_path), "--element", element, "--out", str(proof))
        assert (proved.returncode, proved.stdout.strip()) == (0, kind)
        checked = run_module("verify", "--root", root, "--element", element, "--proof", str(proof))
        assert (checked.returncode, checked.stdout.strip()) == (0, verdict)
        blob = bytearray(proof.read_bytes())
        blob[-1] ^= 0x01  # the last byte of the last digest
        proof.write_bytes(bytes(blob))
        tampered = run_module("verify", "--root", root, "--element", element, "--proof", str(proof))
        assert tampered.returncode == 1
        assert tampered.stdout.startswith("Invalid")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_build_reads_a_pipe_when_the_capacity_is_given(tmp_path, elements_file):
    # Counting the lines for the default capacity needs a second pass, which a
    # pipe cannot give; with --n there is one pass.
    build = ("build", "--fpr", "0.01", "--chunk-size", "8")
    from_file = run_module(*build, "--n", "200", "--elements", str(elements_file), "--out", str(tmp_path / "f.blt"))
    piped = run_module(
        *build, "--n", "200", "--elements", "/dev/stdin", "--out", str(tmp_path / "p.blt"),
        stdin=elements_file.read_text(encoding="utf-8"),
    )
    assert (piped.returncode, piped.stdout) == (0, from_file.stdout)
    assert (tmp_path / "p.blt").read_bytes() == (tmp_path / "f.blt").read_bytes()
    uncounted = run_module(*build, "--elements", "/dev/stdin", "--out", str(tmp_path / "u.blt"), stdin="a\n")
    assert uncounted.returncode == 3
