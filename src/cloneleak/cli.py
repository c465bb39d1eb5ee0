"""Batch command-line interface.

Verbs: classify, reduce, table, verify, sweep. Output is JSON (one record
with n, engine, seed, rows, summary, tolerances) or CSV rows; identical
configuration and seed produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from . import leakage, oracle, verify
from .pauli import DENSE_QUBIT_CAP, dense_to_pauli_sum, pauli_sum_to_dense
from .subsets import (PairTag, RegisterSubset, classify,
                      enumerate_classifications, row_fields)

_LABEL = re.compile(r"([SN])([0-9]+)")


class SubsetSpecError(ValueError):
    pass


class UsageError(ValueError):
    pass


def parse_subset(text: str, n: int) -> RegisterSubset:
    """Parse a label list like 'S1,N2,N3' into per-pair membership tags."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise SubsetSpecError("subset needs at least one label (e.g. 'S1,N2')")
    signals: set[int] = set()
    noises: set[int] = set()
    for tok in tokens:
        m = _LABEL.fullmatch(tok.upper())
        if not m:
            raise SubsetSpecError(f"unknown token {tok!r}: labels look like S3 or N1")
        kind, idx = m.group(1), int(m.group(2))
        if not 1 <= idx <= n:
            raise SubsetSpecError(f"index out of range: {tok!r} with n={n}")
        bucket = signals if kind == "S" else noises
        if idx in bucket:
            raise SubsetSpecError(f"duplicate label {tok!r}")
        bucket.add(idx)
    # A pair's tag by whether its signal and its noise are listed, in the
    # order of PairTag: both, the signal only, the noise only, neither.
    tag_of = dict(zip(itertools.product((True, False), repeat=2), PairTag))
    return RegisterSubset(n, tuple(tag_of[i in signals, i in noises]
                                   for i in range(1, n + 1)))


def parse_bloch(text: str) -> np.ndarray:
    """Parse 'x,y,z'; near-unit vectors are normalized, others rejected."""
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated Bloch components, "
                         f"got {text!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"non-numeric Bloch component in {text!r}") from exc
    if not np.isfinite(vec).all():
        raise UsageError(f"non-finite Bloch component in {text!r}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-6:
        raise UsageError(f"Bloch vector {text!r} has norm {norm!r}; "
                         "pure input states must be unit length")
    return vec / norm


def _int_in(low: int, high: int):
    """argparse type for an int in [low, high]."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


# Largest --n of classify, reduce, table and sweep, checked before any of the
# n pair tags is built (classify takes milliseconds at this n).
N_MAX = 10_000

# Largest --grid of sweep and verify. sweep compares every pair of grid
# points, so its work and its pair index arrays grow as grid**2: 1 000
# points are 499 500 eigendecompositions (about 3 s for a 3-qubit subset on
# 2 cores); 20 000 would be 2e8 of them behind 1.5 GiB of pair indices.
GRID_MAX = 1_000

# Largest |--seed|, the signed 64-bit range: the probe grid turns the seed
# into a float, which a much larger int overflows.
SEED_MAX = 2 ** 63 - 1

# Largest dense footprint of one sweep: --grid states of 16 * 4**size bytes,
# plus a batch of PAIR_CHUNK differences and the two stacks they come from.
SWEEP_BYTES_MAX = 1 << 30


# Output is written in blocks of EMIT_BLOCK characters or more, not per row.
EMIT_BLOCK = 1 << 16

_MARK = "@"  # a label while rows are rendered, or the record's rows

# The pure-Python encoder that json.dumps runs when indent is set, and a row's
# text cut from a stub with "rows" at the record's depth.
_JSON = json.JSONEncoder(indent=2, allow_nan=False)
_PRE, _POST = _JSON.encode({"rows": [_MARK]}).split(_JSON.encode(_MARK))


def _json_row(row: dict) -> str:
    return _JSON.encode({"rows": [row]})[len(_PRE):-len(_POST)]


def _json_flat_rows(columns: list[str]):
    """Render rows of one scalar per column as `_json_row` does, from its
    text of one row with the marker in every cell: each of these holes takes
    the C encoder's text of its value, made once per value and type."""
    parts = _json_row(dict.fromkeys(columns, _MARK)).split(_JSON.encode(_MARK))
    scalar = functools.lru_cache(maxsize=None, typed=True)(
        json.JSONEncoder(allow_nan=False).encode)

    def render(row: dict) -> str:
        cells = map(scalar, map(row.__getitem__, columns))
        return parts[0] + "".join(map(str.__add__, cells, parts[1:]))
    return render


class _Echo:
    """File stand-in for csv.writer: writerow returns the formatted line."""

    def write(self, line: str) -> str:
        return line


def _blocks(pieces):
    """Join text pieces into blocks: append each piece to a list and, once it
    holds EMIT_BLOCK characters or more, yield its join. No block is empty;
    all but the last are at least EMIT_BLOCK long. Blocks stay below twice
    that: a piece is a frame chunk, one prefix's rows (at most 16 448 chars)
    or one row (at most about 118 000: classify's only row at --n 10 000)."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= EMIT_BLOCK:  # the pieces are freed before the block is out
            block, held, size = "".join(held), [], 0
            yield block
    if size:
        yield "".join(held)


def _emit(args: argparse.Namespace, rows, summary: dict, columns: list[str],
          make_row=None) -> None:
    """Stream the record (JSON) or the rows (CSV) to --out or stdout.

    Rows are dicts, each rendered on its own, or with make_row a
    `ClassificationTable`, whose leaf rows make_row(label, fields) are
    rendered once per fields tuple with a stand-in label of their size (as
    many commas, so the label cell is quoted as theirs are) that the marker
    then replaces; each prefix is its `templates` text with one
    `str.replace`. The record's head, row separator and tail are what its
    encoding around two marker rows leaves.

    The first block is encoded before the output is opened, so an output
    shorter than EMIT_BLOCK that fails to encode (a NaN) writes nothing;
    a longer one stops where its encoding failed.
    """
    if args.fmt == "json":
        mark = _JSON.encode(_MARK)
        render = _json_row if make_row is None else _json_flat_rows(columns)

        def frame(items: list):
            return itertools.chain(_JSON.iterencode({
                "n": args.n, "engine": args.engine, "seed": args.seed,
                "rows": items, "summary": summary,
                "tolerances": asdict(leakage.TOLERANCES)}), ["\n"])
    else:
        writer = csv.writer(_Echo(), lineterminator="\n")
        mark = _MARK

        def render(row: dict) -> str:  # booleans as JSON writes them
            return writer.writerow([
                ("true" if v else "false") if type(v) is bool else v
                for v in map(row.get, columns)])

        def frame(items: list):
            return itertools.chain([writer.writerow(columns)], items)

    chunks, text = frame([_MARK, _MARK]), ""
    while text.count(mark) < 2:  # the tail streams on from the chunks
        text += next(chunks)
    opening, sep, closing = text.split(mark, 2)
    if make_row is None:
        texts = (sep + render(row) for row in rows)
    else:
        @functools.cache
        def leaf(fields: tuple) -> str:
            stand_in = _MARK + "," * (fields[0] - 1)
            text = sep + render(make_row(stand_in, fields)).replace(
                stand_in, _MARK)
            if text.count(_MARK) != 1:
                raise RuntimeError(f"a row does not hold the label marker "
                                   f"{_MARK!r} exactly once")
            return text

        texts = (text.replace(_MARK, label)
                 for label, text in rows.templates(leaf, _MARK))
    first = next(texts, None)
    pieces = frame([]) if first is None else itertools.chain(
        [opening, first[len(sep):]], texts, [closing], chunks)
    blocks = _blocks(pieces)
    blocks = itertools.chain([next(blocks, "")], blocks)
    if not args.out:
        for block in blocks:
            sys.stdout.write(block)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for block in blocks:
                fh.write(block)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc.strerror}") from exc


def _note_single_pair(args: argparse.Namespace) -> None:
    if args.n == 1:
        print("note: n=1 keeps a single clone/noise pair; the encoding is "
              "meant for more than one clone and its single clone is only "
              "partially hidden. Proceeding anyway.", file=sys.stderr)


def _refuse_oversized(args: argparse.Namespace, subset) -> None:
    """Refuse a reduce or sweep run too large to finish, before anything is
    encoded. argparse bounds each flag alone; these bounds join flags."""
    aligned = not (subset.missing_pairs or subset.both_count)
    if args.engine != leakage.ENGINE_ANALYTIC and args.n > args.oracle_cap:
        raise UsageError(f"n={args.n} exceeds the oracle cap {args.oracle_cap} "
                         f"({2 * args.n + 1} qubits); raise the cap explicitly "
                         f"to proceed")
    if (args.engine != leakage.ENGINE_ANALYTIC
            and subset.size > DENSE_QUBIT_CAP):
        raise UsageError(f"keeping {subset.size} qubits exceeds the dense cap "
                         f"{DENSE_QUBIT_CAP}")
    if aligned and subset.size > DENSE_QUBIT_CAP:
        # The analytic engine would answer in Pauli form, but reduce and
        # sweep keep within the dense cap. It refuses unaligned subsets
        # itself, before a state of their size is formed.
        raise UsageError(f"PauliSum on {subset.size} qubits exceeds dense "
                         f"cap {DENSE_QUBIT_CAP}")
    if args.command == "sweep" and (args.engine == leakage.ENGINE_ORACLE
                                    or aligned):
        held = 16 * 4 ** subset.size * (args.grid + 3 * leakage.PAIR_CHUNK)
        if held > SWEEP_BYTES_MAX:
            raise UsageError(f"sweep would hold {held / 2 ** 30:.1f} GiB of "
                             f"{subset.size}-qubit states, above the budget "
                             f"of {SWEEP_BYTES_MAX >> 30} GiB; lower --grid")


TABLE_COLUMNS = ["pattern", "size", "p", "q", "verdict", "rule",
                 "max_distance", "y_signal"]


def _structural_row(pattern: str, fields: tuple) -> dict:
    """A table row: the label, the row_fields (size, p, q, verdict, rule),
    and no measurement."""
    return dict(zip(TABLE_COLUMNS, (pattern, *fields, None, None)))


def cmd_classify(args: argparse.Namespace) -> int:
    subset = parse_subset(args.subset, args.n)
    _note_single_pair(args)
    cls = classify(subset)
    row = _structural_row(subset.labels(), row_fields(subset, cls))
    summary = {"verdict": cls.verdict.value, "rule": cls.reason.value}
    if cls.leak is not None:
        leak = {"observable": cls.leak.observable, "sign": cls.leak.sign}
        row, summary = row | leak, summary | leak
    _emit(args, [row], summary, TABLE_COLUMNS + ["observable", "sign"])
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    _note_single_pair(args)
    table = enumerate_classifications(args.n)
    _emit(args, table, {"patterns": len(table),
                        "verdict_counts": table.verdict_counts()},
          TABLE_COLUMNS, _structural_row)
    return 0


def _pauli_rows(ps, engine: str) -> list[dict]:
    return [{"term": letters, "coefficient": coeff, "engine": engine}
            for letters, coeff in sorted(ps.terms.items())]


def cmd_reduce(args: argparse.Namespace) -> int:
    subset = parse_subset(args.subset, args.n)
    bloch = parse_bloch(args.psi)
    _note_single_pair(args)
    _refuse_oversized(args, subset)
    engines = [args.engine] if args.engine != "both" else \
        [leakage.ENGINE_ORACLE, leakage.ENGINE_ANALYTIC]
    rows = []
    dense = {}
    summary: dict = {"subset": subset.labels(),
                     "psi": [float(v) for v in bloch]}
    for engine in engines:
        # The analytic engine's Pauli form is exact; print it as computed,
        # and form its dense matrix only when it is compared or printed.
        if engine == leakage.ENGINE_ANALYTIC:
            ps = leakage.analytic_state(subset, bloch)
            if len(engines) == 2 or args.dense:
                dense[engine] = pauli_sum_to_dense(ps)
        else:
            dense[engine] = leakage.reduced_state(subset, bloch, engine)
            ps = dense_to_pauli_sum(dense[engine])
        rows.extend(_pauli_rows(ps, engine))
    if len(engines) == 2:
        err = float(np.abs(dense[engines[0]] - dense[engines[1]]).max())
        summary["engine_max_entry_error"] = err
    if args.dense:
        summary["dense"] = {
            eng: [[[float(c.real), float(c.imag)] for c in row] for row in mat]
            for eng, mat in dense.items()
        }
    _emit(args, rows, summary, ["term", "coefficient", "engine"])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    subset = parse_subset(args.subset, args.n)
    _note_single_pair(args)
    _refuse_oversized(args, subset)
    grid = leakage.bloch_grid(args.grid, args.seed)
    rhos = [leakage.reduced_state(subset, b, args.engine) for b in grid]
    max_d, per_point = leakage.pairwise_max_trace_distance(rhos)
    estimates = [leakage.y_leak_estimate(r, subset.size) for r in rhos]
    rows = [{"index": idx, "x": float(b[0]), "y": float(b[1]),
             "z": float(b[2]), "y_leak_estimate": float(est),
             "max_distance": float(d)}
            for idx, (b, est, d) in enumerate(zip(grid, estimates, per_point))]
    ys = grid[:, 1]
    slope, intercept = np.polyfit(ys, np.array(estimates), 1)
    summary = {"max_pairwise_distance": max_d,
               "slope": float(slope),
               "intercept": float(intercept)}
    _emit(args, rows, summary,
          ["index", "x", "y", "z", "y_leak_estimate", "max_distance"])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_checks(verify.VerifyConfig(
        n_max=args.n, oracle_cap=args.oracle_cap, grid_size=args.grid,
        seed=args.seed))
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}", file=sys.stderr)
    rows = [{"check": r.name, "passed": r.passed, "detail": r.detail}
            | ({} if r.n_range is None else {"n_range": r.n_range})
            for r in results]
    all_passed = all(r.passed for r in results)
    try:
        resolution = leakage.resolve_sign_rule()
        sign = {
            "observed": {str(n): s for n, s in resolution.observed},
            "rule": resolution.rule.kind,
            "rule_formula": resolution.rule.describe(),
        }
    except RuntimeError:
        # The sign_resolution check has already failed with the reason.
        sign = None
    summary = {"passed": all_passed, "sign": sign}
    _emit(args, rows, summary, ["check", "passed", "detail"])
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneleak",
        description="Classify and measure what subsets of the encrypted-clone "
                    "storage register reveal about the stored qubit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_n=True, engines=None, grid=False,
               oracle_cap=False):
        if needs_n:
            p.add_argument("--n", type=_int_in(1, N_MAX), required=True,
                           help="number of clone/noise pairs")
        if engines:
            p.add_argument("--engine", choices=engines, default=engines[0])
        else:
            p.set_defaults(engine=leakage.ENGINE_ORACLE)
        if grid:
            p.add_argument("--grid", type=_int_in(6, GRID_MAX), default=26,
                           metavar="N",
                           help=f"number of probe states (6 to {GRID_MAX})")
        p.add_argument("--seed", type=_int_in(-SEED_MAX - 1, SEED_MAX), default=0)
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       dest="fmt")
        if oracle_cap:
            p.add_argument("--oracle-cap", type=_int_in(1, oracle.ORACLE_CAP_MAX),
                           default=oracle.ORACLE_CAP_DEFAULT,
                           help="largest n the brute-force engine accepts")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")

    p = sub.add_parser("classify", help="structural verdict for one subset")
    p.add_argument("--subset", required=True, metavar="SPEC",
                   help="comma-separated labels, e.g. S1,N2,N3")
    common(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("reduce", help="reduced state of one subset")
    p.add_argument("--subset", required=True, metavar="SPEC")
    p.add_argument("--psi", required=True, metavar="X,Y,Z",
                   help="Bloch vector of the stored qubit")
    p.add_argument("--dense", action="store_true",
                   help="include dense matrix entries in the summary")
    common(p, engines=["oracle", "analytic", "both"], oracle_cap=True)
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("table", help="classify every nonempty subset pattern")
    common(p)
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("verify", help="run the full cross-check battery")
    p.add_argument("--n", type=int, default=4,
                   help="largest n for the brute-force comparisons")
    common(p, needs_n=False, grid=True, oracle_cap=True)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("sweep", help="leakage estimates across a probe grid")
    p.add_argument("--subset", required=True, metavar="SPEC")
    common(p, engines=["oracle", "analytic"], grid=True, oracle_cap=True)
    p.set_defaults(run=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # SubsetSpecError and UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
