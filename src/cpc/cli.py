"""Command-line front end.

Exit codes: 0 on success, 1 when a verification or predicate fails, 2 on
input errors (bad files, bad flags, a run too large for memory).  All output
is deterministic given the inputs and --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import PauliString, circuit_to_text, decode_circuit, encode_circuit
from .decoding import (
    _check_cnot,
    _correctability,
    _distance,
    _require_w_max,
    _syndrome_classes,
    code_distance,
    decode_table,
    ising_problem,
    single_error_records,
)
from .dynamics import METRICS, ErrorModel, SimConfig, fit_half_life, simulate
from .gf2 import Gf2Matrix
from .logical_ops import logical_cnot_circuit, logical_hadamard_circuit
from .model import (
    CpcCode,
    CpcFormatError,
    GeneralCpcCode,
    InvalidCodeError,
    _bit_rows,
    _expect_section,
    _meaningful_lines,
    # `logicals`, `logical-h` and `logical-cnot` refuse a generalized code only because
    # the code_analysis golden pins their exit 2 on 10-3-3 (ROADMAP items 15 and 16).
    _require_split,
    parse,
    serialize,
)
from .propagation import effective_codes, general_to_classical
from .search import (
    cnot_compatible_predicate,
    search,
    single_error_correcting_predicate,
)
from .stabilizers import (
    CssConversionError,
    css_to_cpc,
    logical_operators,
    stabilizer_to_text,
    stabilizers,
    symplectic_matrix,
)

__all__ = ["main"]


def _read_text(path: str) -> str:
    """The file as UTF-8 text, from one binary read."""
    return Path(path).read_bytes().decode("utf-8")


def _parse_css_file(path: str) -> tuple[Gf2Matrix, Gf2Matrix]:
    """GZ and GX of a CSS file: headers CSS, GZ and GX, each once and in that order."""
    lines = _meaningful_lines(_read_text(path))
    _expect_section(next(lines, None), "CSS")
    _expect_section(next(lines, None), "GZ")
    rows: dict[str, list[str]] = {"GZ": [], "GX": []}
    section = "GZ"
    for lineno, line in lines:
        if line in ("CSS", "GZ", "GX"):
            if section == "GX":
                raise CpcFormatError(f"unexpected section header after GX: {line!r}", lineno)
            _expect_section((lineno, line), "GX")
            section = "GX"
        elif line.strip("01"):
            raise CpcFormatError(f"non-binary row {line!r}", lineno)
        else:
            rows[section].append(line)
    if section == "GZ":
        _expect_section(None, "GX")
    widths = {len(r) for section_rows in rows.values() for r in section_rows}
    if not widths:
        raise CpcFormatError("no GZ or GX rows")
    if len(widths) > 1:
        raise CpcFormatError(f"inconsistent row widths: {sorted(widths)}")
    cols = widths.pop()
    return _bit_rows(rows["GZ"], cols), _bit_rows(rows["GX"], cols)


def _listing(lines: list[str]) -> str:
    """Each line followed by a newline: no lines, no text."""
    return "\n".join(lines) + "\n" if lines else ""


def _serialize_css(g_z: Gf2Matrix, g_x: Gf2Matrix) -> str:
    lines = ["CSS", "GZ", *g_z.to_lines(), "GX", *g_x.to_lines()]
    return _listing(lines)


# --- subcommand handlers -----------------------------------------------------
#
# A handler takes the code main parsed from its .cpc file (None if it reads none)
# and the arguments.  One that produces a listing returns its text, which main
# writes to --out or stdout; one that prints a verdict or refuses, its exit code.


def _cmd_verify(code, args) -> int:
    records = single_error_records(code)
    report = _correctability(code, _syndrome_classes(records))
    if not report.ok:
        print("single-error correcting: no")
        for group in report.collisions:
            print(f"  {group}")
        return 1
    distance = _distance(code, records, args.w_max)
    dist_text = str(distance) if distance is not None else f"> {args.w_max}"
    print(f"single-error correcting: yes, distance: {dist_text}")
    return 0


def _cmd_stabilizers(code, args) -> str:
    lines = [stabilizer_to_text(g, code.qubit_label) for g in stabilizers(code)]
    return _listing(lines)


def _cmd_logicals(code, args) -> str:
    code = _require_split(code, "logicals")
    logical_x, logical_z = logical_operators(code)
    lines = [stabilizer_to_text(g, code.qubit_label) for g in logical_x]
    lines += [stabilizer_to_text(g, code.qubit_label) for g in logical_z]
    return _listing(lines)


def _cmd_distance(code, args) -> int:
    distance = code_distance(code, w_max=args.w_max)
    print(f"distance: {distance if distance is not None else f'> {args.w_max}'}")
    return 0


def _cmd_error_table(code, args) -> str:
    table = decode_table(code)
    _, categories = table.classify([r.sx for r in table.records], [r.sz for r in table.records])
    rows = ["error\tsyndrome\tclass"]
    for rec, category in zip(table.records, categories.tolist()):
        rows.append(f"{rec.label}\t{table.syndrome_text(rec.sx, rec.sz)}\t{category}")
    return _listing(rows)


def _cmd_decode_table(code, args) -> str | int:
    table = decode_table(code)
    if not table.report.ok:
        detail = "; ".join(str(c) for c in table.report.collisions)
        print(f"decode table unavailable: code is not single-error correcting: {detail}",
              file=sys.stderr)
        return 1
    sides = {(0, 0)} | {(r.sx, r.sz) for r in table.records}
    # every text has the same length, so it sorts as the syndrome tuple does
    syndromes, first, second = zip(*sorted((table.syndrome_text(*s), *s) for s in sides))
    corrections, categories = table.classify(first, second)
    rows = ["syndrome\tclass\tcorrection"]
    for syndrome, (cx, cz), category in zip(syndromes, corrections.tolist(), categories.tolist()):
        corr = PauliString(code.k, cx, cz).label(code.qubit_label)
        rows.append(f"{syndrome}\t{category}\t{corr}")
    return _listing(rows)


def _cmd_css_to_cpc(_, args) -> str | int:
    g_z, g_x = _parse_css_file(args.css)
    try:
        result = css_to_cpc(g_z, g_x)
    except CssConversionError as exc:
        print(f"conversion failed: {exc}", file=sys.stderr)
        return 1
    text = serialize(result.code)
    perm = " ".join(str(c) for c in result.permutation)
    return text + f"# column permutation: {perm}\n"


def _cmd_cpc_to_css(code, args) -> str:
    code = _require_split(code, "cpc-to-css")
    g_z, g_x = symplectic_matrix(code)
    return _serialize_css(g_z, g_x)


def _format_classical(cc, title: str, bit_namer) -> list[str]:
    lines = [title]
    for number, members in enumerate(cc.checks, start=1):
        names = " ".join(bit_namer(b) for b in sorted(members))
        lines.append(f"  check {number}: {names}")
    if cc.harmless:
        lines.append(
            "  harmless: " + " ".join(bit_namer(b) for b in sorted(cc.harmless))
        )
    return lines


def _classical_views(code: CpcCode | GeneralCpcCode) -> dict:
    """The code's classical codes keyed by ``--side``, each with its title and bit namer."""
    k, label = code.k, code.qubit_label
    if isinstance(code, CpcCode):
        bit_code, phase_code = effective_codes(code)
        # past the data, bit-code bits are the phase checks and phase-code bits the bit checks
        return {
            "bit": (bit_code, "bit-flip code:", lambda b: label(b if b < k else b + code.n_b)),
            "phase": (phase_code, "phase code:", label),
        }
    # each data qubit's bit state, then each data qubit's phase state, then each check's
    namer = lambda b: f"{label(b)}.bit" if b < k else f"{label(b - k)}.phase"
    return {"general": (general_to_classical(code), "combined code:", namer)}


def _cmd_effective(code, args) -> str:
    views = _classical_views(code).values()
    lines = [line for view in views for line in _format_classical(*view)]
    return _listing(lines)


def _cmd_ising(code, args) -> str:
    views = _classical_views(code)
    if args.side not in views:
        if isinstance(code, CpcCode):
            raise InvalidCodeError("side 'general' needs a generalized code")
        raise InvalidCodeError("generalized codes only support --side general")
    cc = views[args.side][0]
    if not re.fullmatch(r"[01]*", args.syndrome):
        raise ValueError(f"--syndrome must be a string of 0/1 bits, got {args.syndrome!r}")
    syndrome = [int(ch) for ch in args.syndrome]
    if len(syndrome) != len(cc.checks):
        raise ValueError(f"syndrome must have {len(cc.checks)} bits, got {len(syndrome)}")
    problem = ising_problem(
        cc,
        [args.p_bit] * cc.bit_count,
        [args.p_check] * len(cc.checks),
        syndrome,
    )
    lines = []
    for spin, coeff in enumerate(problem.fields):
        lines.append(f"field {spin} {coeff:.10g}")
    for term in problem.terms:
        spins = " ".join(str(s) for s in term.spins)
        lines.append(f"check {spins} {term.coefficient:.10g}")
    return _listing(lines)


def _cmd_simulate(code, args) -> str:
    model = ErrorModel(eps_bit=args.eps_bit, eps_phase=args.eps_phase)
    cfg = SimConfig(
        cycle_rate=args.rate,
        t_max=args.t_max,
        trials=args.trials,
        haar_states=args.haar_states,
        rng_seed=args.seed,
        samples=args.samples,
    )
    result = simulate(code, model, cfg, backend=args.backend)
    return result.to_csv()


def _cmd_fit(_, args) -> int:
    with open(args.csv, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = sorted({"time_s", args.metric} - set(reader.fieldnames or ()))
        if missing:
            raise ValueError(f"{args.csv} has no {' or '.join(missing)} column")
        times, values = [], []
        for row in reader:
            absent = [c for c in ("time_s", args.metric) if row[c] is None]
            if absent:
                raise ValueError(f"{args.csv} line {reader.line_num} has no {absent[0]} value")
            for column, series in (("time_s", times), (args.metric, values)):
                try:
                    series.append(float(row[column]))
                except ValueError:
                    raise ValueError(
                        f"{args.csv} line {reader.line_num}: "
                        f"{column} value {row[column]!r} is not a number"
                    ) from None
    try:
        fit = fit_half_life(np.array(times), np.array(values))
    except RuntimeError as exc:  # no convergence: exit 1, as for a degenerate series
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if fit.degenerate:
        print("degenerate series: no decay to fit")
        return 1
    print(f"lambda_half: {fit.lambda_half:.6g} s")
    print(f"F_inf: {fit.f_inf:.6g}")
    print(f"residual_rms: {fit.residual_rms:.3g}")
    return 0


def _cmd_search(_, args) -> int:
    if args.require:
        match = re.fullmatch(r"cnot:(\d+),(\d+)", args.require)
        if match is None:
            raise ValueError(
                f"--require supports only 'cnot:<control>,<target>', got {args.require!r}"
            )
        c, t = int(match[1]), int(match[2])
        predicate = cnot_compatible_predicate(c, t)
        # before any trial; a negative --data fails the search's dimension check
        if args.data >= 0:
            _check_cnot(c, t, args.data)
        predicate_name = f"cnot-compatible({c},{t})"
    else:
        predicate = single_error_correcting_predicate()
        predicate_name = "single-error-correcting"
    result = search(
        dims=(args.data, args.bit, args.phase),
        predicate=predicate,
        budget=args.budget,
        seed=args.seed,
        constraint="mirror_bp" if args.mirror_bp else None,
        cap=args.cap,
    )
    out_dir = Path(args.out) if args.out else Path("found-codes")
    out_dir.mkdir(parents=True, exist_ok=True)
    for trial, code in result.found:
        (out_dir / f"trial-{trial:06d}.cpc").write_text(
            serialize(code), encoding="utf-8"
        )
    print(
        f"predicate={predicate_name} trials={result.trials} "
        f"successes={result.successes} rate={result.success_rate:.3g} "
        f"written={len(result.found)} dir={out_dir}"
    )
    return 0


def _cmd_logical_h(code, args) -> str:
    code = _require_split(code, "logical-h")
    circuit = logical_hadamard_circuit(code, args.qubit)
    return circuit_to_text(circuit)


def _cmd_logical_cnot(code, args) -> str:
    code = _require_split(code, "logical-cnot")
    circuit = logical_cnot_circuit(code, args.control, args.target)
    return circuit_to_text(circuit)


def _cmd_emit_circuit(code, args) -> str:
    circuit = decode_circuit(code) if args.decode else encode_circuit(code)
    return circuit_to_text(circuit)


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpc",
        description="Build, verify and simulate coherent parity check codes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (or directory for search)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed")
    coded = argparse.ArgumentParser(add_help=False)  # main reads this .cpc file
    coded.add_argument("code")
    bounded = argparse.ArgumentParser(add_help=False, parents=[coded])
    bounded.add_argument("--w-max", type=int, default=4)
    code_out = argparse.ArgumentParser(add_help=False, parents=[coded, common])

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[bounded], help="validate + correctability + distance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stabilizers", parents=[code_out], help="print stabilizer generators")
    p.set_defaults(func=_cmd_stabilizers)

    p = sub.add_parser("logicals", parents=[code_out], help="print logical X/Z operators")
    p.set_defaults(func=_cmd_logicals)

    p = sub.add_parser("distance", parents=[bounded], help="exhaustive code distance")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("error-table", parents=[code_out], help="single-error syndrome table")
    p.set_defaults(func=_cmd_error_table)

    p = sub.add_parser("decode-table", parents=[code_out], help="syndrome -> correction table")
    p.set_defaults(func=_cmd_decode_table)

    p = sub.add_parser("css-to-cpc", parents=[common], help="rewrite a CSS pair as a code")
    p.add_argument("css")
    p.set_defaults(func=_cmd_css_to_cpc)

    p = sub.add_parser("cpc-to-css", parents=[code_out], help="emit the CSS presentation")
    p.set_defaults(func=_cmd_cpc_to_css)

    p = sub.add_parser("effective", parents=[code_out], help="effective classical codes")
    p.set_defaults(func=_cmd_effective)

    p = sub.add_parser("ising", parents=[code_out], help="emit the decode Hamiltonian")
    p.add_argument("--side", choices=["bit", "phase", "general"], default="bit")
    p.add_argument("--syndrome", required=True, help="measured parity bits, e.g. 011")
    p.add_argument("--p-bit", type=float, default=0.1)
    p.add_argument("--p-check", type=float, default=0.1)
    p.set_defaults(func=_cmd_ising)

    p = sub.add_parser("simulate", parents=[coded, seeded], help="Monte Carlo fidelity curves")
    p.add_argument("--eps-bit", type=float, required=True)
    p.add_argument("--eps-phase", type=float, default=0.0)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--haar-states", type=int, default=20)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--backend", choices=["pauli_frame", "statevector"], default="pauli_frame")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="half-life fit of a simulate CSV")
    p.add_argument("csv")
    p.add_argument("--metric", choices=METRICS, default="Frand")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("search", parents=[seeded], help="random code search")
    p.add_argument("--data", type=int, required=True)
    p.add_argument("--bit", type=int, required=True)
    p.add_argument("--phase", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mirror-bp", action="store_true")
    p.add_argument("--require", help="extra predicate, e.g. cnot:0,1")
    p.add_argument("--cap", type=int, default=100)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("logical-h", parents=[code_out], help="encoder realising a logical H")
    p.add_argument("--qubit", type=int, required=True)
    p.set_defaults(func=_cmd_logical_h)

    p = sub.add_parser("logical-cnot", parents=[code_out], help="encoder realising a logical CNOT")
    p.add_argument("--control", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=_cmd_logical_cnot)

    p = sub.add_parser("emit-circuit", parents=[code_out], help="encode/decode circuit text")
    p.add_argument("--decode", action="store_true")
    p.set_defaults(func=_cmd_emit_circuit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "w_max" in args:
            _require_w_max(args.w_max)
        code = parse(_read_text(args.code)) if "code" in args else None
        result = args.func(code, args)
        if isinstance(result, int):
            return result
        if args.out:
            Path(args.out).write_text(result, encoding="utf-8")
        else:
            sys.stdout.write(result)
        return 0
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
