"""Properties of the one CSV table layout shared by grids, lattices, hyper grids and A fields.

Rows may come in any order on read; a repeated or missing site, and a
lattice site that is not one of the integers 0..M-1, is a ParseError
(exit code 3 on the command line), never silently misplaced data.  The
one bulk parse of the data rows is checked against the per-line reader it
replaced, kept here as the reference, and a file that reads cleanly must
stream from disk without its lines ever being listed.
"""

import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plmkit import fields, hyper
from plmkit.cli import main
from plmkit.errors import ParseError
from plmkit.fields import FieldGrid, LatticeField, read_grid, read_lattice, write_grid, write_lattice
from plmkit.hyper import read_amatrix_field, read_hyper_grid, write_amatrix_field, write_hyper_grid


@st.composite
def tables(draw, kinds=("grid", "lattice", "hyper", "afield")):
    """(kind, dims, seed) of a small random table file."""
    kind = draw(st.sampled_from(kinds))
    n = 2 if kind in ("grid", "lattice") else draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.lists(st.integers(1, 5 if n == 2 else 3), min_size=n, max_size=n)))
    return kind, dims, draw(st.integers(0, 2**32 - 1))


def write_table(kind, dims, seed, path):
    """Write a random table; returns the sampled values as read back."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    origin = tuple(float(c) for c in rng.uniform(-1.0, 1.0, n))
    spacing = tuple(float(h) for h in rng.uniform(0.05, 1.0, n))
    if kind == "grid":
        values = rng.standard_normal(dims + (int(rng.integers(1, 5)),))
        write_grid(FieldGrid(origin=origin, spacing=spacing, values=values), path)
    elif kind == "lattice":
        values = rng.standard_normal(dims + (int(rng.integers(3, 5)),))
        write_lattice(LatticeField(values=values), path)
    elif kind == "hyper":
        values = rng.standard_normal(dims + (n + 2,))
        write_hyper_grid(FieldGrid(origin=origin, spacing=spacing, values=values), path)
    else:
        values = rng.standard_normal(dims + (n, n))
        write_amatrix_field(origin, spacing, values, path)
    return values


def read_table(kind, path):
    """(values, origin, spacing) of a table file; a lattice has no origin or spacing."""
    if kind == "grid":
        g = read_grid(path)
        return g.values, g.origin, g.spacing
    if kind == "lattice":
        return read_lattice(path).values, (), ()
    if kind == "hyper":
        g = read_hyper_grid(path)
        return g.values, g.origin, g.spacing
    origin, spacing, values = read_amatrix_field(path)
    return values, origin, spacing


def edit(path, change):
    """Rewrite the body lines of a table file through ``change(body)``."""
    with open(path) as fh:
        header, *body = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([header] + change(body)) + "\n")


@settings(max_examples=60, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_shuffled_rows_read_back_identically(table, rnd):
    kind, dims, seed = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        values = write_table(kind, dims, seed, path)
        ordered = read_table(kind, path)
        edit(path, lambda body: rnd.sample(body, len(body)))
        shuffled = read_table(kind, path)
    assert np.array_equal(ordered[0], values)
    assert np.array_equal(shuffled[0], values)
    assert shuffled[1:] == ordered[1:]


@settings(max_examples=60, deadline=None)
@given(tables(), st.data())
def test_row_overwritten_by_another_is_rejected(table, data):
    kind, dims, seed = table
    rows = int(np.prod(dims))
    assume(rows >= 2)
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(0, rows - 2))
    j += j >= i

    def overwrite(body):
        body[i] = body[j]
        return body

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_table(kind, dims, seed, path)
        edit(path, overwrite)
        with pytest.raises(ParseError):
            read_table(kind, path)


@settings(max_examples=60, deadline=None)
@given(tables(kinds=("lattice",)), st.data())
def test_lattice_site_off_the_integers_is_rejected(table, data):
    _, dims, seed = table
    i = data.draw(st.integers(0, int(np.prod(dims)) - 1))
    axis = data.draw(st.sampled_from((0, 1)))
    site = data.draw(st.sampled_from(("1.5", "-1", str(dims[axis]), str(dims[axis] + 3))))

    def move(body):
        cells = body[i].split(",")
        cells[axis] = site
        body[i] = ",".join(cells)
        return body

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_table("lattice", dims, seed, path)
        edit(path, move)
        with pytest.raises(ParseError):
            read_lattice(path)


@settings(max_examples=20, deadline=None)
@given(tables(kinds=("grid",)), st.data())
def test_verify_on_duplicated_site_is_io_error(table, data):
    _, dims, seed = table
    rows = int(np.prod(dims))
    assume(rows >= 2)
    i = data.draw(st.integers(1, rows - 1))
    with tempfile.TemporaryDirectory() as tmp:
        f_path, dup_path = os.path.join(tmp, "f.csv"), os.path.join(tmp, "dup.csv")
        write_table("grid", dims, seed, f_path)
        write_table("grid", dims, seed, dup_path)
        edit(dup_path, lambda body: body[:i] + [body[i - 1]] + body[i + 1 :])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["verify", "--nu", dup_path, "--f", f_path, "--suite", "smooth-asymptotic"])
    assert code == 3
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("error: ")


def test_grid_rows_in_x_outer_order(tmp_path):
    xs, ys = np.array([0.0, 0.5, 1.0]), np.array([-1.0, 1.0])
    vals = np.arange(12.0).reshape(3, 2, 2)
    lines = ["x,y,v1,v2"] + [
        ",".join(repr(float(c)) for c in (x, y, *vals[i, j])) for i, x in enumerate(xs) for j, y in enumerate(ys)
    ]
    path = tmp_path / "g.csv"
    path.write_text("\n".join(lines) + "\n")
    g = read_grid(path)
    assert np.array_equal(g.values, vals)
    assert g.origin == (0.0, -1.0) and g.spacing == (0.5, 2.0)


def test_duplicate_site_error_names_both_lines(tmp_path):
    path = tmp_path / "lat.csv"
    path.write_text("n1,n2,v1,v2,v3\n0,0,1,2,3\n\n1,0,1,2,3\n0,0,4,5,6\n")
    with pytest.raises(ParseError) as err:
        read_lattice(path)
    assert "rows for a" in str(err.value)
    path.write_text("n1,n2,v1,v2,v3\n0,0,1,2,3\n\n1,0,1,2,3\n0,1,1,2,3\n0,0,4,5,6\n")
    with pytest.raises(ParseError) as err:
        read_lattice(path)
    assert err.value.line == 6
    assert "first on line 2" in str(err.value)


def test_header_only_and_non_finite_coordinates(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("x,y,v1\n\n")
    with pytest.raises(ParseError):
        read_grid(path)
    path.write_text("x,y,v1\n0,0,1\nnan,0,1\n")
    with pytest.raises(ParseError) as err:
        read_grid(path)
    assert err.value.line == 3


# --- reference: the per-line reader the bulk parse replaced ---------------


def _line_of_ref(lines, row):
    return [ln for ln, raw in enumerate(lines[1:], start=2) if raw.strip()][row]


def _read_table_loop(path, columns, lattice=False):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=0)
    header = [c.strip() for c in lines[0].split(",")]
    want, n = columns(header)
    if header != want:
        raise ParseError(f"expected columns {','.join(want)}, got {','.join(header)}", line=1)
    width, last = len(want), len(lines)
    rows = []
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != width:
            short = len(cells) < width
            raise ParseError(f"missing column {want[len(cells)]}" if short else
                             f"expected {width} columns, got {len(cells)}", line=ln)
        try:
            rows.extend(map(float, cells))
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", line=ln) from None
    if not rows:
        raise ParseError("no data rows", line=last)
    rows = np.array(rows).reshape(-1, width)
    sites = rows[:, :n]
    bad = ~np.isfinite(sites).all(axis=1)
    if bad.any():
        raise ParseError("non-finite coordinate", line=_line_of_ref(lines, np.argmax(bad)))
    axes = [np.unique(sites[:, a]) for a in range(n)]
    for name, u in zip(want, axes):
        if lattice:
            if not np.array_equal(u, np.arange(len(u))):
                raise ParseError(f"{name} must take the integer values 0..M-1", line=last)
        elif len(u) > 1:
            du = np.diff(u)
            if np.max(np.abs(du - du[0])) > 1e-12 * max(abs(du[0]), 1e-300):
                raise ParseError(f"non-uniform spacing along {name}", line=last)
    dims = tuple(len(u) for u in axes)
    size = int(np.prod(dims))
    if size != len(rows):
        raise ParseError(f"{len(rows)} rows for a {'x'.join(map(str, dims))} grid: a site is missing or repeated",
                         line=last)
    flat = np.ravel_multi_index([np.searchsorted(u, sites[:, a]) for a, u in enumerate(axes)], dims)
    count = np.bincount(flat, minlength=size)
    if count.max() > 1:
        first, again = np.flatnonzero(flat == np.argmax(count))[:2]
        site = ",".join(repr(float(c)) for c in sites[again])
        raise ParseError(f"site ({site}) appears twice, first on line {_line_of_ref(lines, first)}",
                         line=_line_of_ref(lines, again))
    values = np.empty((size, width - n))
    values[flat] = rows[:, n:]
    origin = tuple(float(u[0]) for u in axes)
    spacing = tuple(float(u[1] - u[0]) if len(u) > 1 else 1.0 for u in axes)
    return origin, spacing, values.reshape(dims + (width - n,))


def read_table_ref(kind, path):
    """``read_table`` through the reference reader."""
    with mock.patch.object(fields, "_read_table", _read_table_loop), \
            mock.patch.object(hyper, "_read_table", _read_table_loop):
        return read_table(kind, path)


def as_bytes(table):
    values, origin, spacing = table
    return values.shape, values.tobytes(), np.array(origin).tobytes(), np.array(spacing).tobytes()


def outcome(read, kind, path):
    """The table as bytes, or the ParseError's line and message up to its first colon."""
    try:
        return as_bytes(read(kind, path))
    except ParseError as exc:
        return exc.line, str(exc).partition(":")[0]


# Finite extremes the writer never produces: signed zeros, subnormals, +-1e308.
_EXTREMES = ("0", "-0", "-0.0", "+0.0", "5e-324", "-4.9e-324", "1e-310", "-2.5e-320", "1e308", "-1e308",
             "1.7976931348623157e+308", "-1.7976931348623157E308")
_PADS = ("", "", " ", "  ", "\t")  # most cells unpadded
_BLANKS = ("", " ", "\t", "  \t ")


def restyle(path, rnd, lines):
    """Write ``lines`` back to ``path`` as a hand-made file might hold them:
    shuffled, with blank and whitespace-only lines between, cells padded
    with spaces and CRLF or LF line ends."""
    header, *body = lines
    rnd.shuffle(body)
    body = [",".join(rnd.choice(_PADS) + c + rnd.choice(_PADS) for c in line.split(",")) for line in body]
    for _ in range(rnd.randint(0, 4)):
        body.insert(rnd.randint(0, len(body)), rnd.choice(_BLANKS))
    eol = rnd.choice(("\n", "\r\n"))
    with open(path, "w", newline="") as fh:
        fh.write(eol.join([header] + body) + eol)


@settings(max_examples=80, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_bulk_parse_reads_what_the_line_loop_reads(table, rnd):
    kind, dims, seed = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_table(kind, dims, seed, path)
        with open(path) as fh:
            header, *body = fh.read().splitlines()
        n = len(dims)
        rows = [line.split(",") for line in body]
        for _ in range(rnd.randint(0, 6)):
            cells = rnd.choice(rows)
            cells[rnd.randrange(n, len(cells))] = rnd.choice(_EXTREMES)
        restyle(path, rnd, [header] + [",".join(cells) for cells in rows])
        got, want = read_table(kind, path), read_table_ref(kind, path)
    assert as_bytes(got) == as_bytes(want)


def _drop_cell(cells, rnd):
    del cells[rnd.randrange(len(cells))]


def _add_cell(cells, rnd):
    cells.insert(rnd.randint(0, len(cells)), "0.5")


def _bad_cell(cells, rnd):
    cells[rnd.randrange(len(cells))] = rnd.choice(("zap", "#1", "", " "))


@settings(max_examples=80, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_malformed_row_is_found_on_the_line_the_line_loop_names(table, rnd):
    kind, dims, seed = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_table(kind, dims, seed, path)
        with open(path) as fh:
            header, *body = fh.read().splitlines()
        rows = [line.split(",") for line in body]
        for cells in rnd.sample(rows, min(len(rows), rnd.randint(1, 3))):
            rnd.choice((_drop_cell, _add_cell, _bad_cell))(cells, rnd)
        restyle(path, rnd, [header] + [",".join(cells) for cells in rows])
        got, want = outcome(read_table, kind, path), outcome(read_table_ref, kind, path)
    assert isinstance(got[0], int)
    assert got == want


def unlisted(read, kind, path):
    """``read(kind, path)`` with the whole-text decode that listing the lines needs made to fail."""
    with mock.patch.object(fields, "_text", side_effect=AssertionError("the file's lines were listed")):
        return read(kind, path)


@settings(max_examples=60, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_written_table_streams_without_listing_its_lines(table, rnd):
    kind, dims, seed = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_table(kind, dims, seed, path)
        with open(path) as fh:
            header, *body = fh.read().splitlines()
        body = [",".join(rnd.choice(_PADS) + c + rnd.choice(_PADS) for c in line.split(",")) for line in body]
        eol = rnd.choice(("\n", "\r\n"))
        with open(path, "w", newline="") as fh:
            fh.write(eol.join([header] + body) + eol)
        got, want = unlisted(read_table, kind, path), read_table_ref(kind, path)
    assert as_bytes(got) == as_bytes(want)


# Every line boundary of str.splitlines.
_EOLS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@settings(max_examples=60, deadline=None)
@given(tables(), st.randoms(use_true_random=False), st.integers(1, 40))
def test_lines_split_as_by_splitlines_across_blocks(table, rnd, block):
    kind, dims, seed = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_table(kind, dims, seed, path)
        with open(path) as fh:
            header, *body = fh.read().splitlines()
        for _ in range(rnd.randint(0, 4)):
            body.insert(rnd.randint(0, len(body)), rnd.choice(_BLANKS))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + rnd.choice(_EOLS) for line in [header] + body))
        with mock.patch.object(fields, "_BLOCK", block):
            got = unlisted(read_table, kind, path)
        want = read_table_ref(kind, path)
    assert as_bytes(got) == as_bytes(want)


@pytest.mark.parametrize("seed", range(4))
def test_signed_zero_sites_collapse_as_the_line_loop_collapses_them(tmp_path, seed):
    rnd = np.random.default_rng(seed)
    path = tmp_path / "g.csv"
    write_grid(FieldGrid(origin=(0.0, 0.0), spacing=(0.5, 0.25), values=rnd.standard_normal((30, 20, 1))), path)
    header, *body = path.read_text().splitlines()
    body = [",".join(rnd.choice(["0", "-0", "0.0", "-0.0"]) if c == "0.0" else c for c in line.split(","))
            for line in body]
    path.write_text("\n".join([header] + body) + "\n")
    assert as_bytes(read_table("grid", path)) == as_bytes(read_table_ref("grid", path))


def test_read_peak_memory_is_a_few_times_the_values(tmp_path):
    path = tmp_path / "g.csv"
    rng = np.random.default_rng(3)
    write_grid(FieldGrid(origin=(-1.0, -1.0), spacing=(0.005, 0.005), values=rng.standard_normal((401, 401, 4))), path)
    tracemalloc.start()
    try:
        values = read_grid(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * values.nbytes


@pytest.mark.parametrize("text", ["x,y,v1\n", "x,y,v1", "x,y,v1\r\n \n\t\n\n"])
def test_header_only_is_no_data_rows_without_a_warning(tmp_path, text):
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            read_grid(path)
    assert str(err.value) == "no data rows"
    assert err.value.line == len(text.splitlines())
    assert err.value.path == path


def test_table_read_imports_no_numpy_ma(tmp_path):
    path = tmp_path / "g.csv"
    write_grid(FieldGrid(origin=(0.0, 0.0), spacing=(0.1, 0.1), values=np.ones((4, 3, 2))), path)
    src = Path(__file__).resolve().parent.parent / "src"
    # numpy before 2.0 imports numpy.ma with numpy itself; the read must add it nowhere
    code = ("import sys, plmkit; before = set(sys.modules); plmkit.read_grid(sys.argv[1]); "
            "assert 'numpy.ma' in before or 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code, str(path)], check=True, env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "2_5e-1_0"])
def test_number_float_accepts_but_the_table_parser_rejects(tmp_path, cell):
    path = tmp_path / "g.csv"
    path.write_text(f"x,y,v1\n0,0,1\n\n1,0,{cell}\n", encoding="utf-8")
    assert read_table_ref("grid", path)[0].shape == (2, 1, 1)
    with pytest.raises(ParseError) as err:
        read_grid(path)
    assert err.value.line == 4
    assert str(err.value) == f"bad number: {cell!r} in column v1"


@pytest.mark.parametrize("kind", ["grid", "lattice", "hyper", "afield"])
@pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
def test_non_finite_value_is_a_parse_error_on_its_line(tmp_path, kind, cell):
    path = tmp_path / "t.csv"
    write_table(kind, (3, 2), 4, path)
    with open(path) as fh:
        header, *body = fh.read().splitlines()
    cells = body[3].split(",")
    cells[-1] = cell
    body[3] = ",".join(cells)
    path.write_text("\n".join([header, ""] + body) + "\n")
    with pytest.raises(ParseError) as err:
        read_table(kind, path)
    assert err.value.line == 6
    assert str(err.value).startswith(f"non-finite value {header.split(',')[-1]}: ")


def test_reconstruct_from_a_non_finite_value_is_io_error(tmp_path):
    path = tmp_path / "nu.csv"
    write_grid(FieldGrid(origin=(0.0, 0.0), spacing=(0.1, 0.1), values=np.ones((5, 5, 4))), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["reconstruct", "--nu", str(path), "--out", str(tmp_path / "f.csv")])
    assert code == 3
    assert err.getvalue().startswith(f"error: {path}:8: non-finite value v4")


@pytest.mark.parametrize("kind", ["grid", "lattice", "hyper", "afield"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_byte_that_is_not_utf8_is_a_parse_error_on_its_line(tmp_path, kind, newline):
    path = tmp_path / "t.csv"
    write_table(kind, (3, 2), 7, path)
    lines = path.read_bytes().decode().splitlines()
    data = newline.join(lines[:4] + [lines[4][:3] + "\xff" + lines[4][3:]] + lines[5:]).encode("latin-1")
    path.write_bytes(data)
    with pytest.raises(ParseError, match="not UTF-8 text: byte 0xff") as err:
        read_table(kind, path)
    assert err.value.line == 5
    assert err.value.path == path


def test_every_table_parse_error_names_its_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,v1\n0,0,1\n")
    for bad in ("", "x,z,v1\n0,0,1\n", "x,y,v1\n0,zap,1\n", "x,y,v1\n0,0,1\n0,0,1\n"):
        path.write_text(bad)
        with pytest.raises(ParseError) as err:
            read_grid(path)
        assert err.value.path == path


def test_reconstruct_from_a_file_that_is_not_utf8_is_io_error(tmp_path):
    path = tmp_path / "latin.csv"
    write_grid(FieldGrid(origin=(0.0, 0.0), spacing=(0.1, 0.1), values=np.ones((5, 5, 4))), path)
    data = path.read_bytes().split(b"\n")
    data[2] = data[2] + b"\xff"
    path.write_bytes(b"\n".join(data))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["reconstruct", "--nu", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert err.getvalue() == f"error: {path}:3: not UTF-8 text: byte 0xff\n"
