"""Properties of the one CSV table layout shared by grids, lattices, hyper grids and A fields.

Rows may come in any order on read; a repeated or missing site, and a
lattice site that is not one of the integers 0..M-1, is a ParseError
(exit code 3 on the command line), never silently misplaced data.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plmkit.cli import main
from plmkit.errors import ParseError
from plmkit.fields import FieldGrid, LatticeField, read_grid, read_lattice, write_grid, write_lattice
from plmkit.hyper import HyperGrid, read_amatrix_field, read_hyper_grid, write_amatrix_field, write_hyper_grid


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
        write_hyper_grid(HyperGrid(origin=origin, spacing=spacing, values=values), path)
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
