"""Sampled fields: uniform grids, integer lattices, jets and CSV tables.

``FieldGrid`` is the one uniform-grid type: a d-component field over an
n-parameter box (n = 2 for a surface, up to 4 for a hypersurface), whose
``axes`` give the site coordinates.  ``LatticeField`` is a field over the
integer sites (n1, n2), each index counted from 0: it is its values, and
the shifts T1, T2 of the lattice relations are slices of them.

``JetGrid`` is the one jet type, for a surface (n = 2 parameters) and a
hypersurface (n up to 4) alike: a field with its partials at a batch of
parameter points.  Its arrays are axis-major: ``d1[a]`` is the partial
along x_{a+1}, ``d2`` holds each second partial once (the pairs a <= c in
row-major order: xx, xy, yy when n = 2) and the optional ``d3[a]`` is the
pure third partial along x_{a+1}; the n = 2 views ``d_x`` ... ``xs``,
``ys`` raise on other jets.  ``jet_grid`` computes the central-difference jets of a
``FieldGrid`` at 2nd or 4th accuracy order, over the whole interior or
some of its rows, with one n-axis stencil engine.

Every vector field the package makes is stored component-major: a field of
shape (..., d) is the view of a (d, ...) array, so each component
``a[..., c]`` is one C-contiguous plane.  The shapes are the usual (..., d)
ones; only the strides differ.  Elementwise numpy keeps the layout in its
results, so the kernels of ``multilinear``, which read one component at a
time, read unit-stride memory all the way down.  The jet slots and the
values a CSV table is read into are allocated this way, by
``multilinear._planar``, as are the closed-form fields of the fixtures and
the lattices that are evolved, integrated and lifted.

Every sampled field is stored in one CSV layout: a header naming the
coordinate columns and then the value columns, and one row per site.
The writer varies the first axis fastest and writes repr-precision
floats, so write-then-read is bitwise lossless; integer lattice sites
are written as integers.  The reader streams the data rows from the
file into one numpy parse (blank and whitespace-only lines are skipped; a
cell is an ASCII decimal or scientific number, ``nan`` or ``inf``, with
no quoting, comments or digit separators), so a read holds the values and
not the file's text.  It rejects any non-finite cell, places each row by
its coordinates, so rows may come in any order, and rejects a file unless
every site of a uniform box appears exactly once (lattice sites must be
the integers 0..M-1).  Each rejection, a byte that is not UTF-8 included,
is a ``ParseError`` that names the file and the line; the lines are read
as a list only then, to name it.
"""

from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, product
from typing import Optional

import numpy as np

from .errors import BoundaryError, DomainError, ParseError
from .multilinear import _planar

__all__ = [
    "FieldGrid",
    "JetGrid",
    "LatticeField",
    "jet_grid",
    "grid_on_sites",
    "read_grid",
    "write_grid",
    "read_lattice",
    "write_lattice",
]


@dataclass(frozen=True)
class FieldGrid:
    """Uniform sampling of a d-component field over an n-parameter box.

    values[i1, ..., in] is the sample at the site (origin[a] + i_a *
    spacing[a]) for a = 0..n-1; ``axes`` holds those coordinates.
    """

    origin: tuple
    spacing: tuple
    values: np.ndarray  # (N1, ..., Nn, d)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        n = v.ndim - 1
        if n < 1 or len(self.origin) != n or len(self.spacing) != n:
            raise DomainError(f"FieldGrid values must be (N1, ..., Nn, d), n = len(origin) = len(spacing): {v.shape}")
        if not all(h > 0 for h in self.spacing):
            raise DomainError("grid spacing must be strictly positive")
        if not np.all(np.isfinite(v)):
            raise DomainError("grid contains non-finite samples")

    @property
    def n(self):
        return self.values.ndim - 1

    @property
    def dims(self):
        return self.values.shape[:-1]

    @property
    def ncomp(self):
        return self.values.shape[-1]

    @property
    def axes(self):
        """The site coordinates along each axis, one array per axis."""
        return tuple(o + h * np.arange(N, dtype=float) for o, h, N in zip(self.origin, self.spacing, self.dims))


# The n = 2 slots in the paper's notation: name -> (jet array, slot).
_NAMED = {"d_x": ("d1", 0), "d_y": ("d1", 1), "d_xx": ("d2", 0), "d_xy": ("d2", 1), "d_yy": ("d2", 2),
          "d_xxx": ("d3", 0), "d_yyy": ("d3", 1)}


@dataclass
class JetGrid:
    """A field and its partials at a batch of parameter points, for any n.

    ``value`` has shape (..., d); ``d1`` (n, ..., d), with ``d1[a]`` the
    partial along x_{a+1}; ``d2`` (n(n+1)/2, ..., d), each second partial
    once, for the pairs a <= c in row-major order (``partial2`` looks one
    up); ``d3`` (n, ..., d), the pure third partials, or None; ``axes``,
    one coordinate array per parameter axis, or None.  For n = 2 the slots
    are also the read-only views ``d_x, d_y, d_xx, d_xy, d_yy, d_xxx,
    d_yyy`` and the axes ``xs, ys``; on other jets these raise.  ``jets[index]`` indexes the leading
    batch axes with ints and slices and returns views.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: Optional[np.ndarray] = None
    axes: Optional[tuple] = None

    def __post_init__(self):
        arrays = (self.value, self.d1, self.d2, self.d3)
        self.value, self.d1, self.d2, self.d3 = (None if a is None else np.asarray(a, dtype=float) for a in arrays)
        n = self.d1.shape[0] if self.d1.ndim else 0
        batch = self.value.shape
        if (n < 1 or self.value.ndim < 1 or self.d1.shape != (n,) + batch
                or self.d2.shape != (n * (n + 1) // 2,) + batch
                or (self.d3 is not None and self.d3.shape != (n,) + batch)
                or (self.axes is not None and len(self.axes) != n)):
            raise DomainError("inconsistent jet shapes")
        if not all(np.isfinite(a).all() for a in (self.value, self.d1, self.d2, self.d3) if a is not None):
            raise DomainError("jet contains non-finite entries")

    @property
    def n(self):
        return self.d1.shape[0]

    @property
    def shape(self):
        """The batch shape."""
        return self.value.shape[:-1]

    @property
    def order(self):
        return 2 if self.d3 is None else 3

    def partial2(self, a, c):
        """The second partial along x_{a+1} and x_{c+1} (0-based, either order)."""
        a, c = min(a, c), max(a, c)
        return self.d2[a * self.n - a * (a - 1) // 2 + c - a]

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)

        def take(arr):
            return None if arr is None else arr[(slice(None),) + index]

        axes = self.axes
        if axes is not None:
            axes = tuple(ax[i] for ax, i in zip(axes, index)) + tuple(axes[len(index):])
        return JetGrid(self.value[index], take(self.d1), take(self.d2), take(self.d3), axes)


def _surface_view(name, array, k):
    """Read-only view ``name`` of slot k of ``array``; on n != 2 jets that slot means another thing."""

    def view(jet):
        if jet.n != 2:
            raise DomainError(f"{name} is a view of surface (n = 2) jets; this jet has n = {jet.n}")
        return None if getattr(jet, array) is None else getattr(jet, array)[k]

    return property(view)


for _name, (_array, _k) in {**_NAMED, "xs": ("axes", 0), "ys": ("axes", 1)}.items():
    setattr(JetGrid, _name, _surface_view(_name, _array, _k))


# Central-difference coefficients, offsets symmetric around 0.
# (accuracy order, derivative order) -> (offsets, weights, h power)
_STENCILS = {
    (2, 1): ([-1, 1], [-0.5, 0.5], 1),
    (2, 2): ([-1, 0, 1], [1.0, -2.0, 1.0], 2),
    (2, 3): ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5], 3),
    (4, 1): ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12], 1),
    (4, 2): ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12], 2),
    (4, 3): (
        [-3, -2, -1, 1, 2, 3],
        [1 / 8, -8 / 8, 13 / 8, -13 / 8, 8 / 8, -1 / 8],
        3,
    ),
}


def _margin(stencil, order):
    """Widest one-sided reach of any stencil used at this request."""
    if order not in (2, 3):
        raise DomainError("order must be 2 or 3")
    if stencil not in (2, 4):
        raise DomainError("stencil must be 2 or 4")
    m = 1 if stencil == 2 else 2
    return m + 1 if order >= 3 else m


def _check_fits(dims, m):
    if any(N < 2 * m + 1 for N in dims):
        raise BoundaryError(f"grid dims {tuple(dims)} smaller than stencil width {2 * m + 1}")


def _interior(v, m):
    """Samples of v (N1, ..., Nn, d) at least m sites from every edge."""
    return v[tuple(slice(m, N - m) for N in v.shape[:-1])]


def _difference(v, spacing, m, stencil, parts, out=None):
    """Central difference of v over its m-interior, into ``out`` when given.

    ``parts`` lists (axis, derivative order) pairs; more than one pair
    gives the tensor-product stencil of a mixed partial, summed with the
    first pair's offsets outermost.
    """
    taps = [list(zip(*_STENCILS[(stencil, p)][:2])) for _, p in parts]
    out = _planar(_interior(v, m).shape) if out is None else out
    for k, combo in enumerate(product(*taps)):
        shift = [0] * (v.ndim - 1)
        w = 1.0
        for (axis, _), (off, wt) in zip(parts, combo):
            shift[axis] = off
            w *= wt
        window = v[tuple(slice(m + s, N - m + s) for s, N in zip(shift, v.shape))]
        if k == 0:
            np.multiply(w, window, out=out)
        else:
            out += w * window
    h = 1.0
    for axis, p in parts:
        h *= spacing[axis] ** _STENCILS[(stencil, p)][2]
    out /= h
    return out


def _row_window(grid, m, rows):
    """The samples of a FieldGrid that stencils of margin m read for ``rows``,
    a unit-step slice of its m-interior indices along the first axis, and the
    slice's (start, stop); the window itself must hold an interior."""
    _check_fits(grid.dims, m)
    start, stop, _ = (rows or slice(None)).indices(grid.dims[0] - 2 * m)
    v = grid.values[start : stop + 2 * m]
    _check_fits(v.shape[:-1], m)
    return v, start, stop


def _jets(v, spacing, m, order, stencil):
    """(value, d1, d2, d3) of a sampled field v (N1, ..., Nn, d) over its
    m-interior, each partial computed into its slot; d3 is None below order 3."""
    n = v.ndim - 1
    value = _interior(v, m)

    def slots(partials):
        out = _planar((len(partials),) + value.shape)
        for k, parts in enumerate(partials):
            _difference(v, spacing, m, stencil, parts, out=out[k])
        return out

    # JetGrid rejects what overflows or divides by an underflowed spacing;
    # the error state is per thread
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d1 = slots([((a, 1),) for a in range(n)])
        d2 = slots([((a, 2),) if a == c else ((a, 1), (c, 1)) for a in range(n) for c in range(a, n)])
        d3 = slots([((a, 3),) for a in range(n)]) if order >= 3 else None
    return value, d1, d2, d3


def jet_grid(grid, order: int = 2, stencil: int = 2, rows: slice = None) -> JetGrid:
    """Jets at every interior point of a FieldGrid, vectorized.

    The interior margin is the widest stencil reach; derivatives are
    never one-sided.  ``rows``, a unit-step slice of the interior indices
    along the first axis, limits the jets to those rows: only their
    stencil window is read, and the arrays equal the same rows of the full
    jets bit for bit.
    """
    m = _margin(stencil, order)
    v, start, stop = _row_window(grid, m, rows)
    first, *rest = grid.axes
    axes = (first[m + start : m + stop],) + tuple(c[m : len(c) - m] for c in rest)
    return JetGrid(*_jets(v, grid.spacing, m, order, stencil), axes)


def grid_on_sites(jets: JetGrid, values) -> FieldGrid:
    """FieldGrid of ``values`` (N1, ..., Nn, d) on the sites of ``jets``; a single site spans 1."""
    origin = tuple(float(c[0]) for c in jets.axes)
    spacing = tuple(float(c[1] - c[0]) if len(c) > 1 else 1.0 for c in jets.axes)
    return FieldGrid(origin=origin, spacing=spacing, values=values)


@dataclass(frozen=True)
class LatticeField:
    """Map from integer lattice sites to 3- or 4-component vectors:
    values[n1, n2] is the sample at the site (n1, n2)."""

    values: np.ndarray  # (M1, M2, d)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 3:
            raise DomainError("LatticeField values must have shape (M1, M2, d)")
        if v.shape[2] not in (3, 4):
            raise DomainError("LatticeField supports d in {3, 4}")
        if not np.all(np.isfinite(v)):
            raise DomainError("lattice contains non-finite entries")

    @property
    def extent(self):
        return self.values.shape[:2]

    @property
    def ncomp(self):
        return self.values.shape[2]


def _names(prefix, k):
    return [f"{prefix}{i + 1}" for i in range(k)]


def _numbered_axes(values, lo, hi):
    """Column rule for a header x1..xn followed by ``values(n)``, n in lo..hi."""

    def columns(header):
        n = 0
        while n < len(header) and header[n] == f"x{n + 1}":
            n += 1
        n = min(max(n, lo), hi)
        return _names("x", n) + values(n), n

    return columns


def _write_table(fh, names, coords, values):
    """Write a header and one CSV row per site to the text stream ``fh``,
    first axis fastest.

    ``coords[a]`` holds the coordinates along axis a: an integer array is
    written as integers, any other as repr floats.  ``values`` has shape
    (N1, ..., Nn, k).  Each first-axis line is converted with one
    ``tolist`` call.
    """
    cells = [[repr(c) for c in axis.tolist()] for axis in coords]
    fh.write(",".join(names) + "\n")
    for outer in product(*(range(N) for N in reversed(values.shape[1:-1]))):
        site = outer[::-1]
        rest = "".join(f",{cells[a + 1][k]}" for a, k in enumerate(site))
        line = values[(slice(None),) + site].tolist()
        fh.writelines(f"{x}{rest},{','.join(map(repr, row))}\n" for x, row in zip(cells[0], line))


def _line_of(lines, row):
    """File line number of data row ``row``; blank lines hold no row."""
    return [ln for ln, raw in enumerate(lines[1:], start=2) if raw.strip()][row]


def _parse(body, **kw):
    """The lines ``body``, any iterable of strings, parsed as rows of
    comma-separated numbers, or None where a cell is not a number or a
    row's width differs from the first.

    The one number parser of every table: ASCII decimal or scientific
    notation, ``nan`` and ``inf``, with spaces around a cell allowed; no
    quoting, no comments, no digit separators.
    """
    try:
        return np.loadtxt(body, delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=float, **kw)
    except ValueError:
        return None


def _parsed(rows, count, width):
    """Whether ``_parse`` gave ``count`` rows of ``width`` numbers."""
    return rows is not None and rows.shape == (count, width)


def _first_bad(body, width):
    """Index of the first line of ``body`` that does not parse as ``width``
    numbers, given that one does: bisection, at most len(body) lines parsed."""
    lo, hi = 0, len(body)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parsed(_parse(body[lo:mid]), mid - lo, width):
            lo = mid
        else:
            hi = mid
    return lo


def _row_error(raw, want, ln):
    """The ParseError of a data line that does not parse as one row of ``want``."""
    width, cells = len(want), raw.split(",")
    if len(cells) != width:
        return ParseError(f"missing column {want[len(cells)]}" if len(cells) < width else
                          f"expected {width} columns, got {len(cells)}", line=ln)
    k = next(k for k in range(width) if not _parsed(_parse([raw], usecols=[k]), 1, 1))
    return ParseError(f"bad number: {cells[k]!r} in column {want[k]}", line=ln)


def _text(data):
    """The bytes ``data`` decoded as UTF-8, or a ParseError at the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}", line=line) from None


def _lines(path):
    """Every line of the file at ``path``, split by ``str.splitlines``: read
    only to name the line of a ParseError."""
    with open(path, "rb") as fh:
        return _text(fh.read()).splitlines()


_BLOCK = 1 << 16  # characters a table read takes from the file at a time, rounded up to a line end


def _block(fh):
    """The next block of whole lines of the text stream ``fh``, or "" at its end."""
    block = fh.read(_BLOCK)
    return block and block + fh.readline()


def _unique(x):
    """``np.unique`` of a finite 1-d array: sort, then keep the first of each
    run of equal values (its rule, without the numpy.ma import it makes)."""
    s = np.sort(x)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _read_table(path, columns, lattice=False):
    """Read a CSV table into (origin, spacing, values).

    ``columns(header)`` returns the expected header cells and the number
    n of coordinate columns; the remaining k columns are values.  The
    lines, split as by ``str.splitlines``, stream from the open file a
    block at a time, and the non-blank ones after the header go into one
    parse: the file's text is never held whole.  Each row is placed by its
    coordinates, and every site of a uniform n-box must appear exactly
    once; with ``lattice`` the coordinates must be the integers 0..M-1.
    ``values`` has shape (N1, ..., Nn, k).  Only a ParseError reads the
    file as a list of lines, to name its line; a byte that is not UTF-8 is
    named before any other fault, as if the text were decoded first.
    Every ParseError carries ``path``.
    """
    listed = cache(partial(_lines, path))
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                blocks = iter(partial(_block, fh), "")
                return _table(chain.from_iterable(map(str.splitlines, blocks)), columns, lattice, listed)
        except (ParseError, UnicodeDecodeError):
            listed()  # raises the ParseError of a byte that is not UTF-8, if the file has one
            raise
    except ParseError as exc:
        exc.path = path
        raise


def _table(lines, columns, lattice, listed):
    """``_read_table`` of the file's lines, streamed by the iterator ``lines``
    and listed whole by ``listed()``, which only an error calls."""
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file", line=0)
    header = [c.strip() for c in header.split(",")]
    want, n = columns(header)
    if header != want:
        raise ParseError(f"expected columns {','.join(want)}, got {','.join(header)}", line=1)
    width = len(want)
    body = filter(str.strip, lines)
    line = next(body, None)  # np.loadtxt warns on no rows
    if line is None:
        raise ParseError("no data rows", line=len(listed()))
    rows = _parse(chain((line,), body))
    if rows is None or rows.shape[1] != width:
        body = list(filter(str.strip, listed()[1:]))
        row = _first_bad(body, width)
        raise _row_error(body[row], want, _line_of(listed(), row))
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        kind = "coordinate" if col < n else "value"
        raise ParseError(f"non-finite {kind} {want[col]}: {float(rows[row, col])!r}",
                         line=_line_of(listed(), row))
    sites = rows[:, :n]
    axes = [_unique(sites[:, a]) for a in range(n)]
    for name, u in zip(want, axes):
        if lattice:
            if not np.array_equal(u, np.arange(len(u))):
                raise ParseError(f"{name} must take the integer values 0..M-1", line=len(listed()))
        elif len(u) > 1:
            du = np.diff(u)
            if np.max(np.abs(du - du[0])) > 1e-12 * max(abs(du[0]), 1e-300):
                raise ParseError(f"non-uniform spacing along {name}", line=len(listed()))
    dims = tuple(len(u) for u in axes)
    size = int(np.prod(dims))
    if size != len(rows):
        raise ParseError(f"{len(rows)} rows for a {'x'.join(map(str, dims))} grid: a site is missing or repeated",
                         line=len(listed()))
    flat = np.ravel_multi_index([np.searchsorted(u, sites[:, a]) for a, u in enumerate(axes)], dims)
    count = np.bincount(flat, minlength=size)
    if count.max() > 1:
        first, again = np.flatnonzero(flat == np.argmax(count))[:2]
        site = ",".join(repr(float(c)) for c in sites[again])
        raise ParseError(f"site ({site}) appears twice, first on line {_line_of(listed(), first)}",
                         line=_line_of(listed(), again))
    values = _planar((size, width - n))
    values[flat] = rows[:, n:]
    origin = tuple(float(u[0]) for u in axes)
    spacing = tuple(float(u[1] - u[0]) if len(u) > 1 else 1.0 for u in axes)
    return origin, spacing, values.reshape(dims + (width - n,))


def write_grid(grid: FieldGrid, path):
    """Grid CSV of a 2-axis grid: columns x,y,v1..vd."""
    if grid.n != 2:
        raise DomainError(f"write_grid writes 2-axis grids, got {grid.n} axes")
    with open(path, "w") as fh:
        _write_table(fh, ["x", "y"] + _names("v", grid.ncomp), grid.axes, grid.values)


def read_grid(path) -> FieldGrid:
    """Parse a grid CSV, validating uniform spacing to 1e-12 relative."""
    origin, spacing, values = _read_table(path, lambda h: (["x", "y"] + _names("v", max(len(h) - 2, 1)), 2))
    return FieldGrid(origin=origin, spacing=spacing, values=values)


def write_lattice(lat: LatticeField, path):
    """Lattice CSV: columns n1,n2,v1..vd; integer sites."""
    coords = [np.arange(m) for m in lat.extent]
    with open(path, "w") as fh:
        _write_table(fh, ["n1", "n2"] + _names("v", lat.ncomp), coords, lat.values)


def read_lattice(path) -> LatticeField:
    """Parse a lattice CSV with 3 or 4 value columns over sites [0,M1)x[0,M2)."""
    _, _, values = _read_table(path, lambda h: (["n1", "n2"] + _names("v", min(max(len(h) - 2, 3), 4)), 2),
                               lattice=True)
    return LatticeField(values=values)
