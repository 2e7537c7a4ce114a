"""Proof-size measurement grid: chunk size x false-positive rate x element count.

Each cell builds one filter from seeded random elements, measures the
encoded size of presence proofs for a sample of inserted elements (median,
lower middle on even counts) and of one absence proof for a fresh element,
and compares both against the filter's own size. Sizes are the encoded byte
lengths from :mod:`bloomtree.codec`. Everything is deterministic under a
fixed seed, down to the emitted CSV bytes.
"""

import random
import statistics
from dataclasses import astuple, dataclass

from .bloom import BloomFilter, derive_params
from .codec import encode_proof
from .tree import AbsenceProof, BloomTree, VerdictKind, build, prove, verify

DEFAULT_CHUNK_SIZES = (8, 32, 64)
DEFAULT_FPRS = (0.1, 0.01, 0.001)
DEFAULT_NS = (500, 1000, 5000, 10000)
DEFAULT_SAMPLE_SIZE = 100
DEFAULT_SEED = 7

# Header labels in ExperimentRow field order, for the CSV and for the summary
# table (with each column's width).
CSV_COLUMNS = ("chunk_size", "fpr", "n", "m_bits", "k", "filter_bytes", "absence_bytes", "median_presence_bytes")
_SUMMARY_LABELS = ("chunk", "fpr", "n", "m_bits", "k", "filter_B", "absence_B", "presence_B")
_SUMMARY_WIDTHS = (5, 7, 6, 8, 3, 9, 10, 11)

_ELEMENT_LENGTH = 16


@dataclass(frozen=True)
class ExperimentConfig:
    chunk_sizes: tuple[int, ...] = DEFAULT_CHUNK_SIZES
    fprs: tuple[float, ...] = DEFAULT_FPRS
    ns: tuple[int, ...] = DEFAULT_NS
    sample_size: int = DEFAULT_SAMPLE_SIZE
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not self.chunk_sizes or not self.fprs or not self.ns:
            raise ValueError("chunk_sizes, fprs and ns must all be non-empty")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")


@dataclass(frozen=True)
class ExperimentRow:
    """One grid cell's measurements, all sizes in encoded bytes.

    The field order is the column order of the CSV and the summary table.
    """

    chunk_size: int
    fpr_target: float
    n: int
    m_bits: int
    k: int
    filter_bytes: int
    absence_proof_bytes: int
    median_presence_proof_bytes: int


def run_cell(
    chunk_size: int,
    fpr_target: float,
    n: int,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SEED,
) -> ExperimentRow:
    """Build one cell's filter and measure its proof sizes.

    Presence sizes come from the first min(sample_size, n) inserted
    elements; the absence size from the first fresh element whose proof
    is an absence proof. Each element is proved once, and each proof is
    verified against the root before its size is recorded.
    """
    params = derive_params(n, fpr_target, chunk_size)
    stream = _element_stream(f"bloomtree-experiment|{seed}|{chunk_size}|{fpr_target!r}|{n}")
    inserted = [next(stream) for _ in range(n)]

    filt = BloomFilter(params)
    for element in inserted:
        filt.insert(element)
    bloom_tree = build(filt)

    median_presence = statistics.median_low(
        _measured_size(bloom_tree, element, prove(bloom_tree, element), VerdictKind.MAYBE_PRESENT)
        for element in inserted[:sample_size]
    )
    absence_size = _absence_specimen_size(bloom_tree, stream, max_draws=10 * sample_size)

    return ExperimentRow(
        chunk_size=chunk_size,
        fpr_target=fpr_target,
        n=n,
        m_bits=params.m,
        k=params.k,
        filter_bytes=params.byte_length,
        absence_proof_bytes=absence_size,
        median_presence_proof_bytes=median_presence,
    )


def run_grid(config: ExperimentConfig = ExperimentConfig()) -> list[ExperimentRow]:
    """Run the full cross product in deterministic order.

    Row order is chunk_sizes x fprs x ns regardless of how cells might be
    scheduled.
    """
    return [
        run_cell(chunk_size, fpr_target, n, config.sample_size, config.seed)
        for chunk_size in config.chunk_sizes
        for fpr_target in config.fprs
        for n in config.ns
    ]


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """CSV text with a mandatory header; newline-terminated, LF line ends."""
    lines = [CSV_COLUMNS, *map(astuple, rows)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def write_csv(rows: list[ExperimentRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows_to_csv(rows))


def format_summary(rows: list[ExperimentRow]) -> str:
    """Fixed-width table of the grid for terminal output."""
    header, *body = [
        " ".join(f"{value:>{width}}" for value, width in zip(line, _SUMMARY_WIDTHS))
        for line in (_SUMMARY_LABELS, *map(astuple, rows))
    ]
    return "\n".join([header, "-" * len(header), *body])


def _element_stream(seed_key: str):
    """Endless stream of distinct pseudo-random elements for one cell."""
    rng = random.Random(seed_key)
    seen = set()
    while True:
        element = rng.randbytes(_ELEMENT_LENGTH)
        if element in seen:
            continue
        seen.add(element)
        yield element


def _measured_size(bloom_tree: BloomTree, element: bytes, proof, expected_kind) -> int:
    """Encoded size of ``proof``, once it verifies as ``expected_kind``: a proof of the other kind cannot."""
    params = bloom_tree.filter.params
    verdict = verify(bloom_tree.root, params, element, proof)
    if verdict.kind is not expected_kind:
        raise RuntimeError(f"measured proof failed verification: {verdict}")
    return len(encode_proof(params, proof))


def _absence_specimen_size(bloom_tree: BloomTree, stream, max_draws: int) -> int:
    """Encoded size of the absence proof of the first fresh element that gets one.

    Each draw is proved once. A draw that happens to be a false positive
    gets a presence proof and is skipped; with realistic false-positive
    targets the first draw almost always works.
    """
    for _ in range(max_draws):
        element = next(stream)
        proof = prove(bloom_tree, element)
        if isinstance(proof, AbsenceProof):
            return _measured_size(bloom_tree, element, proof, VerdictKind.DEFINITELY_ABSENT)
    raise RuntimeError(f"no absence-yielding element found in {max_draws} draws; filter is saturated")
