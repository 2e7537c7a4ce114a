import hashlib
import math

import pytest

import spec
from bloomtree.bloom import BloomFilter, BloomParams
from bloomtree.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentRow,
    _absence_specimen_size,
    _element_stream,
    format_summary,
    rows_to_csv,
    run_cell,
    run_grid,
    write_csv,
)
from bloomtree.tree import build

TINY = ExperimentConfig(chunk_sizes=(8,), fprs=(0.1,), ns=(50, 120), sample_size=9, seed=3)


class TestRunCell:
    def test_reference_cell_geometry(self):
        row = run_cell(32, 0.01, 10000, sample_size=5, seed=3)
        assert row.m_bits == 131072
        assert row.k == 9
        assert row.filter_bytes == 16384
        # absence: one 32-byte chunk and 9 digests
        assert row.absence_proof_bytes == spec.absence_size(32, 9)

    def test_single_element_sample_is_its_own_median(self):
        row = run_cell(8, 0.1, 30, sample_size=1, seed=4)
        assert row.median_presence_proof_bytes > 0

    def test_deterministic_under_seed(self):
        one = run_cell(8, 0.1, 40, sample_size=6, seed=5)
        two = run_cell(8, 0.1, 40, sample_size=6, seed=5)
        assert one == two

    def test_filter_bytes_match_geometry(self):
        row = run_cell(64, 0.001, 200, sample_size=4, seed=6)
        assert row.filter_bytes == row.m_bits // 8
        count = row.m_bits // (row.chunk_size * 8)
        assert count & (count - 1) == 0


class TestStream:
    def test_deterministic_and_distinct(self):
        a = _element_stream("key")
        b = _element_stream("key")
        one = [next(a) for _ in range(500)]
        two = [next(b) for _ in range(500)]
        assert one == two
        assert len(set(one)) == 500

    def test_different_keys_differ(self):
        assert next(_element_stream("key-1")) != next(_element_stream("key-2"))


def test_saturated_filter_raises():
    params = BloomParams(m=8, k=1, chunk_size=1)
    bloom_tree = build(BloomFilter(params, bytearray([0xFF])))
    with pytest.raises(RuntimeError):
        _absence_specimen_size(bloom_tree, _element_stream("sat"), max_draws=20)


class TestGrid:
    def test_row_order_is_the_cross_product(self):
        config = ExperimentConfig(chunk_sizes=(8, 32), fprs=(0.1,), ns=(30, 60), sample_size=3, seed=7)
        rows = run_grid(config)
        assert [(r.chunk_size, r.n) for r in rows] == [(8, 30), (8, 60), (32, 30), (32, 60)]

    def test_csv_shape_and_determinism(self, tmp_path):
        rows = run_grid(TINY)
        text = rows_to_csv(rows)
        lines = text.strip("\n").split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert lines[1].startswith("8,0.1,50,")
        again = rows_to_csv(run_grid(TINY))
        assert again == text
        out = tmp_path / "grid.csv"
        write_csv(rows, out)
        assert out.read_bytes() == text.encode("utf-8")

    def test_absence_digest_count_law(self):
        for row in run_grid(TINY):
            chunk_count = row.m_bits // (row.chunk_size * 8)
            depth = int(math.log2(chunk_count))
            assert row.absence_proof_bytes == spec.absence_size(row.chunk_size, depth)

    def test_summary_table_lists_every_row(self):
        rows = run_grid(TINY)
        table = format_summary(rows)
        assert "filter_B" in table
        assert len(table.splitlines()) == 2 + len(rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(chunk_sizes=())
        with pytest.raises(ValueError):
            ExperimentConfig(sample_size=0)

    def test_default_grid_output_is_pinned(self):
        # The CSV and the summary table are frozen: SHA-256 of each for the
        # default grid, taken before the row formatting was rewritten.
        rows = run_grid(ExperimentConfig())
        csv_digest = hashlib.sha256(rows_to_csv(rows).encode("utf-8")).hexdigest()
        summary_digest = hashlib.sha256(format_summary(rows).encode("utf-8")).hexdigest()
        assert csv_digest == "d322282179b5b497dccac099bb9052e7f1883414f1187c508ce4d1e379815886"
        assert summary_digest == "4f92992cb019d0c4e08b4c5af48abf62fa40baa6f73060229d70cb1f57ed22c8"


def test_row_fields_are_plain_data():
    row = ExperimentRow(8, 0.1, 10, 64, 1, 8, 40, 50)
    assert row.fpr_target == 0.1
    assert row.median_presence_proof_bytes == 50
