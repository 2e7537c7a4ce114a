import pathlib
import random
import sys

import pytest

# Allow running the suite from a checkout without installing the package.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def echoed_k_forgery():
    """Proofs for inserted elements that echo k + 1, k + 2 and k + 3 (ROADMAP item 2).

    The root commits to the filter bytes but not to k, so a tree built over
    the same bytes with a larger k has the honest root, and its absence
    proofs name a zero bit among the extra indices of an inserted element.
    Returns the honest tree over 20 inserted elements and one
    (echoed params, element, proof) triple per element and echoed k.
    """
    # Imported here, not at the top: a bloomtree that fails to import then
    # fails each test module that imports it, not the loading of this file.
    from bloomtree.bloom import BloomFilter, BloomParams
    from bloomtree.tree import build, prove

    params = BloomParams(m=512, k=18, chunk_size=8)
    rng = random.Random(0)
    inserted = [rng.randbytes(12) for _ in range(20)]
    filt = BloomFilter(params)
    for element in inserted:
        filt.insert(element)
    forged = []
    for extra in (1, 2, 3):
        echoed = BloomParams(m=params.m, k=params.k + extra, chunk_size=params.chunk_size)
        forger = build(BloomFilter(echoed, bytes(filt.bits)))
        forged += [(echoed, element, prove(forger, element)) for element in inserted]
    return build(filt), forged
