"""Command-line front end over the filter/proof file formats.

Exit codes: 0 success or valid proof, 1 invalid proof, 2 usage error,
3 I/O or file-format error.

Elements are passed as UTF-8 text on the command line (or as raw file
contents with --element-file); the library itself accepts arbitrary bytes.
"""

import argparse
import os
import sys

from . import codec
from .bloom import BloomFilter, derive_params, fpr, optimal_bit_count
from .tree import AbsenceProof, BloomTree, Verdict, build, prove, verify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3

_CHUNK_SIZE_HELP = "bytes per committed chunk, a power of two from 1 to 65536"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (codec.CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad flag values (fpr out of range, zero n, a number too large for a float, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bloomtree",
        description="Bloom filter committed under a Merkle root, with presence and absence proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derive filter geometry for n elements at a target false-positive rate")
    p.add_argument("--n", type=int, required=True, help="expected element count")
    p.add_argument("--fpr", type=float, required=True, help="target false-positive rate in (0,1)")
    p.add_argument("--chunk-size", type=int, required=True, help=_CHUNK_SIZE_HELP)
    p.set_defaults(handler=_cmd_params)

    p = sub.add_parser("build", help="build a filter from newline-delimited elements and write a filter file")
    p.add_argument("--elements", required=True, help="UTF-8 file, one element per line")
    p.add_argument(
        "--n", type=int, default=None,
        help="capacity to size for (default: number of lines, min 1, which needs a seekable file)",
    )
    p.add_argument("--fpr", type=float, required=True)
    p.add_argument("--chunk-size", type=int, required=True, help=_CHUNK_SIZE_HELP)
    p.add_argument("--out", required=True, help="output filter file")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser(
        "prove",
        help="write a presence or absence proof for one element",
        description="Write a presence or absence proof for one element. The filter's tree is kept in FILTER.levels "
        "(twice the filter's size, safe to delete) so the next prove need not re-hash it; each proof is checked "
        "against the filter's stored root before it is written, though a hand-made FILTER.levels can hide "
        "corruption in chunks the proof does not read.",
    )
    p.add_argument("--filter", required=True, help="filter file")
    _add_element_flags(p)
    p.add_argument("--out", required=True, help="output proof file")
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("verify", help="verify a proof against a root (or a filter file's root)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--root",
        help="root as 64 hex digits, either case, whitespace allowed between byte pairs; the params "
        "are read from the proof file and not checked, since the root does not commit to k",
    )
    source.add_argument("--filter", help="filter file to take root and params from")
    _add_element_flags(p)
    p.add_argument("--proof", required=True, help="proof file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("root", help="print a filter file's root as lowercase hex")
    p.add_argument("--filter", required=True)
    p.set_defaults(handler=_cmd_root)

    p = sub.add_parser("experiment", help="run the proof-size grid and write a CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunk-sizes", default=None, help="comma-separated chunk sizes in bytes")
    p.add_argument("--fprs", default=None, help="comma-separated false-positive rates")
    p.add_argument("--ns", default=None, help="comma-separated element counts")
    p.add_argument("--sample-size", type=int, default=None)
    p.set_defaults(handler=_cmd_experiment)

    return parser


def _add_element_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--element", help="element as a UTF-8 string")
    group.add_argument("--element-file", help="file whose exact bytes are the element")


def _load_filter(path: str) -> BloomTree:
    with open(path, "rb") as handle:
        return codec.decode_filter(handle.read())


def _element_bytes(args) -> bytes:
    if args.element is not None:
        return args.element.encode("utf-8")
    with open(args.element_file, "rb") as handle:
        return handle.read()


def _cmd_params(args) -> int:
    params = derive_params(args.n, args.fpr, args.chunk_size)
    print(f"m_raw: {optimal_bit_count(args.n, args.fpr)}")
    print(f"m: {params.m}")
    print(f"k: {params.k}")
    print(f"chunks: {params.chunk_count}")
    print(f"predicted_fpr: {fpr(params.m, params.k, args.n)}")
    return EXIT_OK


def _cmd_build(args) -> int:
    # One line at a time: a first pass counts the lines when the capacity
    # defaults to it, then a pass inserts. A final newline ends the last line
    # and starts no empty element.
    with open(args.elements, "rb") as handle:
        n = args.n
        if n is None:
            n = max(1, sum(1 for _ in handle))
            handle.seek(0)
        filt = BloomFilter(derive_params(n, args.fpr, args.chunk_size))
        for line in handle:
            filt.insert(line.removesuffix(b"\n"))
    bloom_tree = build(filt)
    with open(args.out, "wb") as handle:
        handle.write(codec.encode_filter(bloom_tree))
    print(f"root: {bloom_tree.root.hex()}")
    return EXIT_OK


def _cmd_prove(args) -> int:
    with open(args.filter, "rb") as handle:
        data = handle.read()
    element = _element_bytes(args)
    levels_path = args.filter + ".levels"
    bloom_tree = codec._with_levels(data, _read_levels(levels_path, 64 * len(data)))
    proof = None if bloom_tree is None else prove(bloom_tree, element)
    # Kept levels are vouched for by one thing: the proof read from them verifies against the stored root.
    if proof is None or not verify(bloom_tree.root, bloom_tree.filter.params, element, proof).is_valid:
        bloom_tree = _decode_and_keep(data, levels_path)
        proof = prove(bloom_tree, element)
    with open(args.out, "wb") as handle:
        handle.write(codec.encode_proof(bloom_tree.filter.params, proof))
    print("absence" if isinstance(proof, AbsenceProof) else "presence")
    return EXIT_OK


def _read_levels(path: str, limit: int) -> bytes:
    """The levels file, cut at its stated size or at ``limit``; no bytes if it cannot be read.

    A filter file's levels file is shorter than 64 bytes per byte of it, so
    a file cut at 64 times that reads as the wrong length, a miss. The read
    asks for the stated size, as a read of ``limit`` bytes would allocate
    them all first.
    """
    try:
        with open(path, "rb") as handle:
            return handle.read(min(os.fstat(handle.fileno()).st_size, limit))
    except OSError:
        return b""


def _decode_and_keep(data: bytes, levels_path: str) -> BloomTree:
    """decode_filter, then its levels written to ``levels_path`` through a temp file; a failed write is no error."""
    bloom_tree = codec.decode_filter(data)
    temp = f"{levels_path}.{os.getpid()}.tmp"
    try:
        handle = open(temp, "xb")
    except OSError:
        return bloom_tree  # not writable here, or a file of that name this process did not make
    try:
        with handle:
            handle.writelines(codec._levels_file(data, bloom_tree))
        os.replace(temp, levels_path)
    except OSError:
        try:
            os.remove(temp)
        except OSError:
            pass
    return bloom_tree


def _cmd_verify(args) -> int:
    with open(args.proof, "rb") as handle:
        echoed_params, proof = codec.decode_proof(handle.read())
    if args.filter is not None:
        bloom_tree = _load_filter(args.filter)
        root = bloom_tree.root
        params = bloom_tree.filter.params
        if echoed_params != params:
            return _report(Verdict.invalid("proof params do not match the filter's params"))
    else:
        root = _parse_root(args.root)
        params = echoed_params
    return _report(verify(root, params, _element_bytes(args), proof))


def _report(verdict: Verdict) -> int:
    print(str(verdict))
    return EXIT_OK if verdict.is_valid else EXIT_INVALID


def _parse_root(text: str) -> bytes:
    try:
        root = bytes.fromhex(text)
    except ValueError:
        raise codec.InvalidField(f"root is not valid hex: {text!r}") from None
    if len(root) != 32:
        raise codec.InvalidField("root must be 32 bytes (64 hex chars)")
    return root


def _cmd_root(args) -> int:
    print(_load_filter(args.filter).root.hex())
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from . import experiment  # imported here, so the other commands never load it

    given = {
        "chunk_sizes": _parse_list(args.chunk_sizes, int),
        "fprs": _parse_list(args.fprs, float),
        "ns": _parse_list(args.ns, int),
        "sample_size": args.sample_size,
        "seed": args.seed,
    }
    # Only the flags given: the grid's defaults and rules live in ExperimentConfig.
    config = experiment.ExperimentConfig(**{name: value for name, value in given.items() if value is not None})
    rows = experiment.run_grid(config)
    experiment.write_csv(rows, args.out)
    print(experiment.format_summary(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _parse_list(text, conv):
    # An empty flag is an empty axis, which ExperimentConfig refuses; a blank
    # item converts to nothing and raises ValueError, a usage error.
    if text is None:
        return None
    return tuple(map(conv, text.split(","))) if text else ()
