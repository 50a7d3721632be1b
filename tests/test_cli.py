from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import pytest
from conftest import FIXTURE_DIR, fixture_code, run_python

from cpc import cli, decoding
from cpc.circuits import PauliString
from cpc.cli import main
from cpc.decoding import code_distance, decode_table, is_single_error_correcting, single_error_records
from cpc.gf2 import Gf2Matrix, row_space_equal
from cpc.model import parse, parse_css, serialize
from cpc.propagation import effective_codes, general_to_classical
from cpc.search import cnot_compatible_predicate, random_code, search
from cpc.stabilizers import symplectic_matrix


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = _run(capsys, *[])
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_verify_good_fixture(capsys, fixture_dir):
    code, out, _ = _run(capsys, "verify", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    assert out.strip() == "single-error correcting: yes, distance: 3"


def test_verify_flawed_fixture(capsys, fixture_dir):
    code, out, _ = _run(capsys, "verify", str(fixture_dir / "11-3-1.cpc"))
    assert code == 1
    assert "single-error correcting: no" in out
    assert "Z_b1" in out and "Z_p4" in out


def test_verify_general_fixture(capsys, fixture_dir):
    code, out, _ = _run(capsys, "verify", str(fixture_dir / "10-3-3.cpc"))
    assert code == 0 and "distance: 3" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = _run(capsys, "verify", "no-such-file.cpc")
    assert code == 2 and "error" in err


def test_directory_is_input_error(capsys, tmp_path):
    code, out, err = _run(capsys, "verify", str(tmp_path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Is a directory" in err


# each command that reads a file, with the flags it requires
_FILE_COMMANDS = {
    "verify": (), "distance": (), "stabilizers": (), "logicals": (), "error-table": (),
    "decode-table": (), "cpc-to-css": (), "effective": (), "emit-circuit": (),
    "ising": ("--syndrome", "0"),
    "simulate": ("--eps-bit", "0.1", "--t-max", "1"),
    "logical-h": ("--qubit", "0"),
    "logical-cnot": ("--control", "0", "--target", "1"),
    "css-to-cpc": (),
}


@pytest.mark.parametrize("command", list(_FILE_COMMANDS))
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: d / "absent.cpc", "No such file or directory"),
        (lambda d: d, "Is a directory"),
        (lambda d: d / "latin-1.cpc", "'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["missing", "directory", "not-utf-8"],
)
def test_unreadable_file_is_input_error(capsys, tmp_path, command, make, message):
    (tmp_path / "latin-1.cpc").write_bytes("CPC split\n# café\n".encode("latin-1"))
    code, out, err = _run(capsys, command, str(make(tmp_path)), *_FILE_COMMANDS[command])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cpc"
    bad.write_text("CPC split\ndata 1\nbit 1\nphase 0\nB\n2\nP\nC\n", encoding="utf-8")
    code, _, err = _run(capsys, "verify", str(bad))
    assert code == 2


def test_stabilizers_output(capsys, fixture_dir):
    code, out, _ = _run(capsys, "stabilizers", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert "Z d1 d2 b1 p2 p4" in lines


def test_logicals_output(capsys, fixture_dir):
    code, out, _ = _run(capsys, "logicals", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    assert "X d1 b1 b3" in out


def test_distance_command(capsys, fixture_dir):
    code, out, _ = _run(capsys, "distance", str(fixture_dir / "6-3-1.cpc"))
    assert code == 0 and out.strip() == "distance: 1"


def test_error_table_tsv(capsys, fixture_dir):
    code, out, _ = _run(capsys, "error-table", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "error\tsyndrome\tclass"
    assert "X_d1\t10100000\tcorrected" in lines
    assert len(lines) == 1 + 33


def test_decode_table_tsv(capsys, fixture_dir):
    code, out, _ = _run(capsys, "decode-table", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    lines = out.strip().splitlines()
    assert "00110000\tcorrected\tX_d1 X_d2" in lines
    assert any(line.startswith("00000000\tno_error") for line in lines)


def test_verify_builds_the_single_error_records_once(capsys, monkeypatch, fixture_dir):
    calls = []

    def counted(code):
        calls.append(code)
        return single_error_records(code)

    monkeypatch.setattr(decoding, "single_error_records", counted)
    monkeypatch.setattr(cli, "single_error_records", counted)
    assert _run(capsys, "verify", str(fixture_dir / "11-3-3.cpc"))[:2] == (
        0, "single-error correcting: yes, distance: 3\n"
    )
    assert len(calls) == 1


def test_verify_prints_the_library_verdict_and_distance(capsys, fixture_dir):
    for path in sorted(fixture_dir.glob("*.cpc")):
        code = parse(path.read_text(encoding="utf-8"))
        report = is_single_error_correcting(code)
        if report.ok:
            distance = code_distance(code, w_max=3)
            expected = f"single-error correcting: yes, distance: {distance or '> 3'}\n"
        else:
            expected = "single-error correcting: no\n" + "".join(
                f"  {group}\n" for group in report.collisions
            )
        rc, out, _ = _run(capsys, "verify", str(path), "--w-max", "3")
        assert (rc, out) == (0 if report.ok else 1, expected), path.name


def _tuple_formatted_tables(code) -> tuple[str, str]:
    """error-table and decode-table stdout, each syndrome printed from its tuple."""
    bits = lambda syndrome: "".join(str(b) for b in syndrome)
    table = decode_table(code)
    _, categories = table.classify([r.sx for r in table.records], [r.sz for r in table.records])
    rows = ["error\tsyndrome\tclass"] + [
        f"{rec.label}\t{bits(rec.syndrome(table.n_first, table.n_second))}\t{category}"
        for rec, category in zip(table.records, categories.tolist())
    ]
    errors = "\n".join(rows) + "\n"
    if not is_single_error_correcting(code).ok:
        return errors, ""
    sides = {(0, 0)} | {(r.sx, r.sz) for r in table.records}
    widths = (table.n_first, table.n_second)
    as_tuple = lambda sides: tuple(m >> i & 1 for m, w in zip(sides, widths) for i in range(w))
    syndromes, first, second = zip(*sorted((as_tuple(s), *s) for s in sides))
    corrections, categories = table.classify(first, second)
    rows = ["syndrome\tclass\tcorrection"] + [
        f"{bits(syndrome)}\t{category}\t{PauliString(code.k, cx, cz).label(code.qubit_label)}"
        for syndrome, (cx, cz), category in zip(syndromes, corrections.tolist(), categories.tolist())
    ]
    return errors, "\n".join(rows) + "\n"


def test_tables_print_the_tuple_formatted_syndromes(tmp_path, capsys, fixture_dir):
    # the bench's seeded (3, 4, 4) codes, and split codes with no bit checks
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([0, 3])))
    codes = [random_code(3, 4, 4, rng) for _ in range(4)]
    codes += [random_code(k, 0, n_p, rng) for k, n_p in ((2, 2), (0, 2), (1, 0))]
    paths = [fixture_dir / f"{name}.cpc" for name in ("6-3-1", "10-3-3", "11-3-3")]
    for i, code in enumerate(codes):
        paths.append(tmp_path / f"code-{i}.cpc")
        paths[-1].write_text(serialize(code), encoding="utf-8")
    decoded = 0
    for path in paths:
        errors, decodes = _tuple_formatted_tables(parse(path.read_text(encoding="utf-8")))
        assert _run(capsys, "error-table", str(path))[:2] == (0, errors), path.name
        assert _run(capsys, "decode-table", str(path))[:2] == (0 if decodes else 1, decodes)
        decoded += bool(decodes)
    assert decoded == 3  # 10-3-3, 11-3-3 and the code with no data


def test_error_table_of_a_code_with_no_qubits_is_its_header(tmp_path, capsys):
    path = tmp_path / "empty.cpc"
    path.write_text("CPC split\ndata 0\nbit 0\nphase 0\nB\nP\nC\n", encoding="utf-8")
    assert _run(capsys, "error-table", str(path)) == (0, "error\tsyndrome\tclass\n", "")


def test_css_file_with_an_empty_gx_section_converts(tmp_path, capsys, fixture_dir):
    # 6-3-1 has no phase checks, so its CSS form has a GX header and no rows
    css_path = tmp_path / "631.css"
    rc, css, _ = _run(capsys, "cpc-to-css", str(fixture_dir / "6-3-1.cpc"))
    assert rc == 0 and css.startswith("CSS\nGZ\n") and css.endswith("\nGX\n")
    css_path.write_text(css, encoding="utf-8")
    g_z, _ = parse_css(css)
    rc, out, _ = _run(capsys, "css-to-cpc", str(css_path))
    assert rc == 0 and out.endswith("# column permutation: 2 4 5 0 1 3\n")
    code = parse(out)
    assert "phase 0\n" in out and code.n_p == 0
    new_gz, new_gx = symplectic_matrix(code)
    original_order = np.argsort([2, 4, 5, 0, 1, 3])
    assert row_space_equal(Gf2Matrix(new_gz.data[:, original_order]), g_z)
    assert new_gx.rows == 0


def test_decode_table_flawed_exits_one(capsys, fixture_dir):
    collisions = {
        "11-3-1": "syndrome 00000001 shared by: Z_b1, Z_b2, Z_b3, Z_p4",
        "6-3-1": (
            "syndrome 000 shared by: no error, Z_d1, Z_d2, Z_d3, Z_b1, Z_b2, Z_b3; "
            "syndrome 100 shared by: X_b1, Y_b1; syndrome 010 shared by: X_b2, Y_b2; "
            "syndrome 110 shared by: X_d2, Y_d2; syndrome 001 shared by: X_b3, Y_b3; "
            "syndrome 101 shared by: X_d1, Y_d1; syndrome 011 shared by: X_d3, Y_d3"
        ),
    }
    for name, detail in collisions.items():
        err = f"decode table unavailable: code is not single-error correcting: {detail}\n"
        assert _run(capsys, "decode-table", str(fixture_dir / f"{name}.cpc")) == (1, "", err)


SPLIT_FIXTURES = sorted(
    path.stem for path in FIXTURE_DIR.glob("*.cpc")
    if path.read_text(encoding="utf-8").startswith("CPC split")
)


@pytest.mark.parametrize("name", SPLIT_FIXTURES)
def test_cpc_to_css_and_back_keeps_the_stabilizer_group(tmp_path, capsys, fixture_dir, name):
    css_path = tmp_path / f"{name}.css"
    rc, _, _ = _run(capsys, "cpc-to-css", str(fixture_dir / f"{name}.cpc"), "--out", str(css_path))
    assert rc == 0
    cpc_path = tmp_path / f"{name}.cpc"
    assert _run(capsys, "css-to-cpc", str(css_path), "--out", str(cpc_path)) == (0, "", "")
    out = cpc_path.read_text(encoding="utf-8")
    prefix = "# column permutation: "
    last = out.splitlines()[-1]
    assert last.startswith(prefix)
    # permutation[new qubit] = original qubit, so argsort reads the new columns back in order
    original_order = np.argsort([int(c) for c in last[len(prefix):].split()])
    for before, after in zip(symplectic_matrix(fixture_code(name)), symplectic_matrix(parse(out))):
        assert row_space_equal(Gf2Matrix(after.data[:, original_order]), before), name


# SHA-256 of each split fixture's `cpc-to-css` text, as the CLI wrote it
# before the CSS writer moved into cpc.model.
CSS_DIGESTS = {
    "11-3-1": "93409824358c17c6076113ba4c314d5bf8f772f5d0b860d58da5090f698f2cec",
    "11-3-3-cnot": "0f7618b6b02b0832a912cf3ead09fd8ed3fd4cbc9e48ffe735250972790b63de",
    "11-3-3": "aa7e24f9f13a063064e9f420c2796875cb58a3fd8868510bafdbe5e60e701e5e",
    "12-4-3-cnot": "0b3c2781f4cf895e34d73df21228fd42376b754a18152494ab8dcad31d723eaa",
    "12-4-3": "474d038c88b506e0f0c2286dbc9217b5da47d09267dfc777c36891b588582738",
    "13-3-3": "8e4692433a2cda487d54cdf14e42c9523d01fea8fc07345a4384d1180b4be172",
    "6-3-1": "ddc8e975ddbdec2657d8a6735fd93bd416f5d924994139daf7d0aa1b72793eff",
}


@pytest.mark.parametrize("name", SPLIT_FIXTURES)
def test_cpc_to_css_text_is_pinned(capsys, fixture_dir, name):
    rc, out, err = _run(capsys, "cpc-to-css", str(fixture_dir / f"{name}.cpc"))
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CSS_DIGESTS[name]


def test_css_to_cpc_steane(capsys, fixture_dir):
    code, out, _ = _run(capsys, "css-to-cpc", str(fixture_dir / "steane.css"))
    assert code == 0
    assert "data 1" in out and "# column permutation:" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("CSS\n1010\nGZ\n1111\n", "line 2: expected section header 'GZ', got '1010'"),
        ("CSS\nGZ\n10a\n", "line 3: non-binary row '10a'"),
        ("CSS\nGZ\n10\n101\nGX\n", "inconsistent row widths: [2, 3]"),
        ("", "expected section header 'CSS', file ended"),
        ("# only a comment\nCSS\nGZ\n\nGX\n", "no GZ or GX rows"),
        # the headers come first, once each, in the order CSS, GZ, GX
        ("GZ\n1100\nGX\nCSS\n0011\n", "line 1: expected section header 'CSS', got 'GZ'"),
        ("CSS\nGZ\n1100\nGZ\n0110\nGX\n", "line 4: expected section header 'GX', got 'GZ'"),
        ("CSS\nGX\n0011\nGZ\n1100\n", "line 2: expected section header 'GZ', got 'GX'"),
        ("CSS\nGZ\n1100\nGX\n0011\nGX\n", "line 6: unexpected section header after GX: 'GX'"),
        ("CSS\nGZ\n1100\n", "expected section header 'GX', file ended"),
    ],
)
def test_css_to_cpc_rejects_malformed_css(tmp_path, capsys, text, message):
    css_path = tmp_path / "bad.css"
    css_path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "css-to-cpc", str(css_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "fixture, side, syndrome",
    [("6-3-1", "bit", "011"), ("11-3-3", "phase", "0110"), ("10-3-3", "general", "0110010")],
    ids=["bit", "phase", "general"],
)
def test_ising_output(capsys, fixture_dir, fixture, side, syndrome):
    code, out, err = _run(
        capsys, "ising", str(fixture_dir / f"{fixture}.cpc"), "--side", side,
        "--syndrome", syndrome, "--p-bit", "0.1", "--p-check", "0.05",
    )
    assert code == 0 and err == ""
    source = fixture_code(fixture)
    if side == "general":
        cc = general_to_classical(source)
    else:
        bit_code, phase_code = effective_codes(source)
        cc = bit_code if side == "bit" else phase_code
    lines = out.strip().splitlines()
    fields = [l.split() for l in lines if l.startswith("field ")]
    checks = [l.split() for l in lines if l.startswith("check ")]
    assert len(fields) + len(checks) == len(lines)
    # one field per classical bit, log(0.1/0.9) each
    assert [f[1] for f in fields] == [str(i) for i in range(cc.bit_count)]
    assert all(float(f[2]) == pytest.approx(-2.19722, abs=1e-5) for f in fields)
    # one check line per classical check, on its member spins; a fired check
    # flips the coefficient log(0.05/0.95) to positive
    assert len(checks) == len(cc.checks) == len(syndrome)
    for line, members, fired in zip(checks, cc.checks, syndrome):
        assert line[1:-1] == [str(b) for b in sorted(members)]
        assert float(line[-1]) == pytest.approx((-1) ** int(fired) * -2.94444, abs=1e-5)


def test_ising_syndrome_length_check(capsys, fixture_dir):
    code, _, err = _run(
        capsys, "ising", str(fixture_dir / "6-3-1.cpc"), "--syndrome", "0110"
    )
    assert code == 2


@pytest.mark.parametrize(
    "fixture, side, message",
    [
        ("11-3-3", "general", "side 'general' needs a generalized code"),
        ("10-3-3", "bit", "generalized codes only support --side general"),
    ],
)
def test_ising_side_must_match_the_code(capsys, fixture_dir, fixture, side, message):
    path = str(fixture_dir / f"{fixture}.cpc")
    code, out, err = _run(capsys, "ising", path, "--side", side, "--syndrome", "0")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_css_to_cpc_refuses_an_anticommuting_pair(tmp_path, capsys):
    css_path = tmp_path / "anti.css"
    css_path.write_text("CSS\nGZ\n11\nGX\n10\n", encoding="utf-8")
    out_path = tmp_path / "anti.cpc"
    code, out, err = _run(capsys, "css-to-cpc", str(css_path), "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == "conversion failed: Z and X generators do not commute\n"
    assert not out_path.exists()


# Every subcommand that writes a listing, with a small input.
_LISTINGS = [
    ("stabilizers", "{code}"),
    ("logicals", "{code}"),
    ("error-table", "{code}"),
    ("decode-table", "{code}"),
    ("css-to-cpc", "{css}"),
    ("cpc-to-css", "{code}"),
    ("effective", "{code}"),
    ("ising", "{code}", "--syndrome", "0110"),
    ("simulate", "{code}", "--eps-bit", "0.05", "--t-max", "1", "--trials", "2", "--samples", "3"),
    ("logical-h", "{code}", "--qubit", "1"),
    ("logical-cnot", "{code}", "--control", "0", "--target", "2"),
    ("emit-circuit", "{code}", "--decode"),
]


@pytest.mark.parametrize("argv", _LISTINGS, ids=[a[0] for a in _LISTINGS])
def test_a_listing_goes_to_out_or_stdout(tmp_path, capsys, fixture_dir, argv):
    argv = [
        a.format(code=fixture_dir / "11-3-3.cpc", css=fixture_dir / "steane.css") for a in argv
    ]
    code, listing, err = _run(capsys, *argv)
    assert code == 0 and err == "" and listing
    out_path = tmp_path / "listing.txt"
    code, out, err = _run(capsys, *argv, "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_bytes() == listing.encode("utf-8")
    # an --out that cannot be written is an input error, and nothing reaches stdout
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "command, text",
    [
        ("stabilizers", "CPC split\ndata 2\nbit 0\nphase 0\nB\nP\nC\n"),  # no checks
        ("logicals", "CPC split\ndata 0\nbit 1\nphase 1\nB\nP\nC\n1\n"),  # k = 0
    ],
)
def test_an_empty_listing_prints_nothing(tmp_path, capsys, command, text):
    path = tmp_path / "code.cpc"
    path.write_text(text, encoding="utf-8")
    assert _run(capsys, command, str(path)) == (0, "", "")
    out_path = tmp_path / "listing.txt"
    assert _run(capsys, command, str(path), "--out", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == b""


def test_simulate_and_fit_round_trip(tmp_path, capsys, fixture_dir):
    csv_path = tmp_path / "series.csv"
    code, _, _ = _run(
        capsys,
        "simulate",
        str(fixture_dir / "6-3-1.cpc"),
        "--eps-bit", "2.0",
        "--rate", "10",
        "--t-max", "4",
        "--trials", "40",
        "--haar-states", "4",
        "--samples", "8",
        "--seed", "3",
        "--out", str(csv_path),
    )
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["time_s"] == "0"
    assert float(rows[0]["Frand"]) == 1.0
    assert set(rows[0]) == {
        "time_s", "F0", "F0_err", "Fplus", "Fplus_err", "Frand", "Frand_err"
    }
    code, out, _ = _run(capsys, "fit", str(csv_path), "--metric", "F0")
    assert code == 0
    assert "lambda_half:" in out


@pytest.mark.parametrize(
    "header, metric, missing",
    [("t,F0,Frand", "Frand", "time_s"), ("time_s,F0,Fplus", "Frand", "Frand")],
)
def test_fit_rejects_csv_without_needed_column(tmp_path, capsys, header, metric, missing):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(f"{header}\n0,1,1\n1,0.5,0.5\n", encoding="utf-8")
    code, out, err = _run(capsys, "fit", str(csv_path), "--metric", metric)
    assert code == 2
    assert out == ""
    assert err == f"error: {csv_path} has no {missing} column\n"


@pytest.mark.parametrize(
    "rows, line, missing",
    [
        (["time_s,Frand", "0,1", "1", "2,0.5"], 3, "Frand"),
        (["Frand,time_s", "1,0", "0.8,1", "0.5"], 4, "time_s"),
    ],
)
def test_fit_rejects_csv_with_a_short_row(tmp_path, capsys, rows, line, missing):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "fit", str(csv_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {csv_path} line {line} has no {missing} value\n"


@pytest.mark.parametrize(
    "rows, line, column, field",
    [
        (["time_s,Frand", "0,", "1,0.5", "2,0.4", "3,0.3"], 2, "Frand", ""),
        (["time_s,Frand", "0,1", "1,0.5", "abc,0.4", "3,0.3"], 4, "time_s", "abc"),
    ],
    ids=["empty field", "not a number"],
)
def test_fit_names_the_line_and_column_of_a_bad_field(tmp_path, capsys, rows, line, column, field):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "fit", str(csv_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {csv_path} line {line}: {column} value {field!r} is not a number\n"


# Only a half-life fit needs scipy, for its LAPACK SVD, and importing scipy is
# most of a cold start; run in a fresh interpreter, since this one may have
# loaded it.  The fit is its own trust-region loop: scipy.optimize never loads.
_COLD_START = """
import json, math, sys
import numpy as np
from cpc import cli, dynamics
fixtures = sys.argv[1]
codes = []
for argv in (
    ["verify", fixtures + "/11-3-3.cpc"],
    ["distance", fixtures + "/10-3-3.cpc"],
    ["decode-table", fixtures + "/11-3-3.cpc"],
    ["search", "--data", "3", "--bit", "4", "--phase", "4", "--budget", "50", "--seed", "0"],
    ["simulate", fixtures + "/6-3-1.cpc", "--eps-bit", "0.5", "--rate", "10",
     "--t-max", "3", "--trials", "2", "--haar-states", "2", "--samples", "4"],
):
    codes.append(cli.main(argv))
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
times = np.linspace(0.0, 200.0, 40)
fit = dynamics.fit_half_life(times, 0.25 + 0.75 * np.exp(-math.log(2.0) * times / 50.0))
print(json.dumps({
    "codes": codes,
    "before": before,
    "lambda_half": fit.lambda_half,
    "flapack": any(m in sys.modules for m in ("scipy.linalg._flapack", "scipy.linalg._flapack_64")),
    "linalg": "scipy.linalg" in sys.modules,
    "optimize": "scipy.optimize" in sys.modules,
}))
"""


def test_only_a_fit_imports_scipy(tmp_path, fixture_dir):
    proc = run_python("-c", _COLD_START, str(fixture_dir), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["before"] == []
    assert report["lambda_half"] == pytest.approx(50.0, rel=1e-6)
    # a fit loads scipy's compiled LAPACK module, not the scipy.linalg package
    assert report["flapack"]
    assert not report["linalg"]
    assert not report["optimize"]


def test_fit_of_a_constant_series_is_degenerate(tmp_path, capsys):
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text("time_s,Frand\n0,0.5\n1,0.5\n2,0.5\n3,0.5\n", encoding="utf-8")
    code, out, err = _run(capsys, "fit", str(csv_path))
    assert code == 1
    assert out == "degenerate series: no decay to fit\n"
    assert err == ""


def test_fit_that_does_not_converge_exits_1(tmp_path, capsys, monkeypatch):
    from cpc import dynamics

    csv_path = tmp_path / "series.csv"
    rows = ["time_s,Frand", "0,1", "10,0.8", "20,0.62", "30,0.5", "40,0.43"]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = _run(capsys, "fit", str(csv_path))
    assert code == 0 and out.startswith("lambda_half: ")
    monkeypatch.setattr(dynamics, "FIT_MAX_NFEV", 3)
    code, out, err = _run(capsys, "fit", str(csv_path))
    assert code == 1
    assert out == ""
    assert err == (
        "error: Optimal parameters not found: "
        "The maximum number of function evaluations is exceeded.\n"
    )


def test_fit_rejects_non_finite_csv(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    rows = ["time_s,Frand", "0,1", "1,0.8", "2,nan", "3,0.5", "4,0.4"]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "fit", str(csv_path))
    assert code == 2
    assert out == ""
    assert err == "error: times and values must be finite\n"


# simulate CSV of the command below, captured before the Pauli-frame kernel
# was vectorized; csv.writer ends rows with CRLF
_PINNED_SIMULATE_CSV = "\r\n".join([
    "time_s,F0,F0_err,Fplus,Fplus_err,Frand,Frand_err",
    "0,1,0,1,0,1,0",
    "2.5,0.8,0.13333333,0.8,0.13333333,0.32964036,0.11336119",
    "5,0.8,0.13333333,0.8,0.13333333,0.19921046,0.090771262",
    "7.5,0.7,0.15275252,0.7,0.15275252,0.20829336,0.089201019",
    "10,0.4,0.16329932,0.7,0.15275252,0.1990163,0.091098444",
    "12.5,0.5,0.16666667,0.5,0.16666667,0.12463305,0.035210584",
    "15,0.7,0.15275252,0.6,0.16329932,0.2039528,0.091282931",
    "17.5,0.5,0.16666667,0.6,0.16329932,0.19199403,0.091804547",
    "20,0.4,0.16329932,0.6,0.16329932,0.062993554,0.012244375",
]) + "\r\n"

_SIMULATE_ARGS = (
    "--eps-bit", "0.3", "--eps-phase", "0.1", "--rate", "10", "--t-max", "20",
    "--trials", "10", "--haar-states", "3", "--samples", "8", "--seed", "5",
)


def test_simulate_csv_bytes_are_pinned(tmp_path, capsys, fixture_dir):
    code, out, _ = _run(capsys, "simulate", str(fixture_dir / "11-3-3.cpc"), *_SIMULATE_ARGS)
    assert code == 0
    assert out == _PINNED_SIMULATE_CSV
    csv_path = tmp_path / "curve.csv"
    code, _, _ = _run(
        capsys, "simulate", str(fixture_dir / "11-3-3.cpc"), *_SIMULATE_ARGS,
        "--out", str(csv_path),
    )
    assert code == 0
    assert csv_path.read_bytes() == _PINNED_SIMULATE_CSV.encode("utf-8")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--t-max", "-5"),
        ("--t-max", "1e300"),
        ("--haar-states", "0"),
        ("--samples", "0"),
        ("--rate", "nan"),
        ("--eps-bit", "nan"),
    ],
)
def test_simulate_rejects_out_of_domain_input(capsys, fixture_dir, flag, value):
    args = {"--eps-bit": "0.1", "--t-max": "5", flag: value}
    argv = ["simulate", str(fixture_dir / "6-3-1.cpc"), "--trials", "2"]
    for name, val in args.items():
        argv += [name, val]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag.lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--t-max", "1e18", "--rate", "1", "--trials", "1"],  # ~10**17 cycle indices: 676 PiB
        ["--t-max", "1", "--haar-states", str(10**16)],  # the Haar Gaussians: 1.11 EiB
    ],
    ids=["cycles", "haar-states"],
)
def test_simulate_too_large_for_memory_is_input_error(capsys, fixture_dir, argv):
    # sizes far beyond any address space, which numpy refuses without allocating
    code, out, err = _run(
        capsys, "simulate", str(fixture_dir / "11-3-3.cpc"), "--eps-bit", "0.1", *argv
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate ")


@pytest.mark.parametrize("backend", ["pauli_frame", "statevector"])
@pytest.mark.parametrize(
    "text",
    ["bit 0\nphase 0\nB\nP\nC\n", "bit 1\nphase 1\nB\nP\nC\n1\n"],
    ids=["no-checks", "two-checks"],
)
def test_simulate_refuses_a_code_with_no_data_qubit(tmp_path, capsys, text, backend):
    path = tmp_path / "no-data.cpc"
    path.write_text("CPC split\ndata 0\n" + text, encoding="utf-8")
    code, out, err = _run(
        capsys, "simulate", str(path), "--eps-bit", "1", "--eps-phase", "1", "--t-max", "2",
        "--trials", "2", "--samples", "2", "--haar-states", "1", "--backend", backend,
    )
    assert (code, out) == (2, "")
    assert err == "error: simulate needs a code with at least one data qubit, got data 0\n"


def test_search_command_writes_codes(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    code, out, _ = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "4", "--phase", "4",
        "--budget", "3000", "--seed", "2", "--out", str(out_dir),
    )
    assert code == 0
    assert "successes=" in out
    written = sorted(out_dir.glob("*.cpc"))
    assert written, "expected at least one found code"
    # determinism: same invocation reproduces the same files
    first = written[0].read_text(encoding="utf-8")
    code, _, _ = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "4", "--phase", "4",
        "--budget", "3000", "--seed", "2", "--out", str(out_dir),
    )
    assert code == 0
    assert written[0].read_text(encoding="utf-8") == first


def test_search_cnot_command_writes_the_library_hits(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    code, out, _ = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "5", "--phase", "5", "--mirror-bp",
        "--require", "cnot:0,1", "--budget", "4000", "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    assert out == (
        "predicate=cnot-compatible(0,1) trials=4000 successes=15 rate=0.00375 "
        f"written=15 dir={out_dir}\n"
    )
    result = search(
        (3, 5, 5), cnot_compatible_predicate(0, 1), 4000, seed=1, constraint="mirror_bp"
    )
    written = sorted(out_dir.glob("*.cpc"))
    assert [p.name for p in written] == [f"trial-{t:06d}.cpc" for t, _ in result.found]
    assert written[0].name == "trial-000135.cpc"
    for path, (_, found) in zip(written, result.found):
        assert path.read_text(encoding="utf-8") == serialize(found)
        code, out, _ = _run(capsys, "verify", str(path))
        assert code == 0 and out.startswith("single-error correcting: yes"), path.name


def test_search_rejects_negative_seed(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "4", "--phase", "4",
        "--budget", "10", "--seed", "-1", "--out", str(tmp_path / "hits"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: expected non-negative integer\n"


def test_emit_circuit(capsys, fixture_dir):
    code, out, _ = _run(capsys, "emit-circuit", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "qubits 11"
    assert len(lines) == 1 + 22
    assert lines[1].startswith("CNOT ")


def test_logical_h_command(capsys, fixture_dir):
    code, out, _ = _run(
        capsys, "logical-h", str(fixture_dir / "11-3-3.cpc"), "--qubit", "0"
    )
    assert code == 0
    assert "H 0" in out and "CCZX" in out and "CZ " in out


def test_logical_cnot_command(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        "logical-cnot", str(fixture_dir / "11-3-3.cpc"),
        "--control", "0", "--target", "1",
    )
    assert code == 0
    assert out.splitlines()[1] == "CNOT 0 1"


def test_logical_cnot_rejects_index_off_the_data(capsys, fixture_dir):
    code, out, err = _run(
        capsys,
        "logical-cnot", str(fixture_dir / "11-3-3.cpc"),
        "--control", "0", "--target", "5",
    )
    assert code == 2 and out == ""
    assert "data indices must lie in 0..2" in err


def test_logical_cnot_still_refuses_a_generalized_code(capsys, fixture_dir):
    # the library rewrites 10-3-3; the command keeps the exit its golden record pins
    code, out, err = _run(
        capsys,
        "logical-cnot", str(fixture_dir / "10-3-3.cpc"),
        "--control", "0", "--target", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: logical-cnot requires a split code\n"


@pytest.mark.parametrize(
    "command", [("logical-h", "--qubit", "0"), ("logical-cnot", "--control", "0", "--target", "1")]
)
def test_logical_gates_refuse_a_code_with_no_data_qubits(tmp_path, capsys, command):
    path = tmp_path / "no-data.cpc"
    path.write_text("CPC split\ndata 0\nbit 1\nphase 1\nB\nP\nC\n1\n", encoding="utf-8")
    code, out, err = _run(capsys, command[0], str(path), *command[1:])
    assert code == 2 and out == ""
    assert err == "error: the code has no data qubits\n"


def test_logical_h_on_general_code_is_input_error(capsys, fixture_dir):
    code, _, err = _run(
        capsys, "logical-h", str(fixture_dir / "10-3-3.cpc"), "--qubit", "0"
    )
    assert code == 2


def test_effective_listing_split(capsys, fixture_dir):
    code, out, _ = _run(capsys, "effective", str(fixture_dir / "11-3-3.cpc"))
    assert code == 0
    assert "bit-flip code:" in out and "phase code:" in out
    assert "  check 1: d1 d2 p2 p4" in out
    assert "harmless: p4" in out


def test_effective_listing_general(capsys, fixture_dir):
    code, out, _ = _run(capsys, "effective", str(fixture_dir / "10-3-3.cpc"))
    assert code == 0
    assert "combined code:" in out and "c7.phase" in out


@pytest.mark.parametrize("command", ["verify", "distance"])
@pytest.mark.parametrize("w_max", ["0", "-1"])
def test_distance_search_range_must_be_positive(capsys, fixture_dir, command, w_max):
    code, out, err = _run(capsys, command, str(fixture_dir / "11-3-3.cpc"), "--w-max", w_max)
    assert code == 2
    assert "> " not in out
    assert err.startswith("error: ") and "w_max must be at least 1" in err


@pytest.mark.parametrize("command", ["verify", "distance"])
def test_w_max_is_rejected_before_any_work(capsys, fixture_dir, tmp_path, command):
    # 11-3-1 is not single-error correcting and the second path does not
    # exist: neither the certificate nor a missing-file error may come first.
    for path in (fixture_dir / "11-3-1.cpc", tmp_path / "missing.cpc"):
        code, out, err = _run(capsys, command, str(path), "--w-max", "0")
        assert code == 2
        assert out == ""
        assert err == "error: w_max must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "require, message",
    [
        ("cnot:1,1", "control and target must differ"),
        ("cnot:0,7", "data indices must lie in 0..2"),
    ],
)
def test_search_rejects_bad_cnot_indices(tmp_path, capsys, require, message):
    out_dir = tmp_path / "hits"
    code, out, err = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "4", "--phase", "4",
        "--budget", "10", "--require", require, "--out", str(out_dir),
    )
    assert code == 2
    assert out == "" and not out_dir.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("require, data", [("cnot:0,9", "3"), ("cnot:3,0", "3"), ("cnot:0,1", "0")])
def test_search_rejects_out_of_range_cnot_before_any_trial(tmp_path, capsys, require, data):
    out_dir = tmp_path / "hits"
    code, out, err = _run(
        capsys,
        "search",
        "--data", data, "--bit", "4", "--phase", "4",
        "--budget", "0", "--require", require, "--out", str(out_dir),
    )
    assert code == 2
    assert out == "" and not out_dir.exists()
    if data == "0":
        assert err == "error: the code has no data qubits\n"
    else:
        assert err == f"error: data indices must lie in 0..{int(data) - 1}\n"


def test_search_rejects_negative_cap(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    code, out, err = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "4", "--phase", "4",
        "--budget", "3000", "--seed", "2", "--cap", "-1", "--out", str(out_dir),
    )
    assert code == 2
    assert out == "" and not out_dir.exists()
    assert err.startswith("error: ") and "cap must be non-negative" in err


def test_ising_rejects_non_binary_syndrome(capsys, fixture_dir):
    code, out, err = _run(
        capsys, "ising", str(fixture_dir / "6-3-1.cpc"), "--syndrome", "0a1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --syndrome must be a string of 0/1 bits")


@pytest.mark.parametrize("require", ["cnot:0", "cnot:a,b", "cnot:0,1,2", "swap:0,1"])
def test_search_rejects_malformed_require(tmp_path, capsys, require):
    code, out, err = _run(
        capsys,
        "search",
        "--data", "3", "--bit", "4", "--phase", "4",
        "--budget", "10", "--require", require, "--out", str(tmp_path / "hits"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --require supports only 'cnot:<control>,<target>'")
    assert repr(require) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{fixture}", "--seed", "1"],
        ["distance", "{fixture}", "--threads", "2"],
        ["simulate", "{fixture}", "--eps-bit", "0.1", "--t-max", "1", "--threads", "2"],
        ["verify", "{fixture}", "--out", "result.txt"],
        ["distance", "{fixture}", "--out", "result.txt"],
        ["fit", "{fixture}", "--out", "result.txt"],
        ["search", "--data", "3", "--bit", "4", "--phase", "4", "--budget", "1", "--threads", "2"],
    ],
)
def test_seed_and_threads_only_where_read(capsys, fixture_dir, argv):
    # --seed belongs to simulate and search, no command takes --threads (the
    # search runs serially), and --out belongs to the commands that write to it
    argv = [a.format(fixture=fixture_dir / "6-3-1.cpc") for a in argv]
    code, _, err = _run(capsys, *argv)
    assert code == 2 and "unrecognized arguments" in err


def test_verify_refuses_c_not_strictly_upper_triangular(tmp_path, capsys):
    path = tmp_path / "low-c.cpc"
    path.write_text("CPC general\ndata 1\nchecks 2\nB\n10\nP\n01\nC\n01\n11\n", encoding="utf-8")
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: mcs not strictly upper triangular: entry (1,0) is 1; "
        "mcs not strictly upper triangular: entry (1,1) is 1\n"
    )


def test_malformed_code_file_exits_two_with_its_line(tmp_path, capsys):
    path = tmp_path / "bad.cpc"
    path.write_text("CPC split\ndata 1\nbit two\n", encoding="utf-8")
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 3: bad count in 'bit two'\n"
