"""Sampled fields: uniform grids, integer lattices, jets and CSV tables.

``FieldGrid`` holds a d-component field over a uniform 2-D parameter box,
``LatticeField`` a field over integer sites with shift operators, and
``jet_at`` / ``jet_grid`` extract central-difference jets (derivatives up
to third order) at 2nd or 4th accuracy order.  The same n-axis stencil
engine computes the hypersurface jets of :mod:`plmkit.hyper`.

Every sampled field is stored in one CSV layout: a header naming the
coordinate columns and then the value columns, and one row per site.
The writer varies the first axis fastest and writes repr-precision
floats, so write-then-read is bitwise lossless; integer lattice sites
are written as integers.  The reader places each row by its
coordinates, so rows may come in any order, and rejects a file unless
every site of a uniform box appears exactly once (lattice sites must be
the integers 0..M-1).
"""

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np

from .errors import BoundaryError, DomainError, ParseError

__all__ = [
    "FieldGrid",
    "JetRecord",
    "JetGrid",
    "LatticeField",
    "jet_at",
    "jet_grid",
    "grid_on_sites",
    "shift",
    "read_grid",
    "write_grid",
    "read_lattice",
    "write_lattice",
]


@dataclass(frozen=True)
class FieldGrid:
    """Uniform rectangular sampling of a vector field.

    values[i, j] is the sample at (x0 + i*hx, y0 + j*hy).
    """

    origin: tuple
    spacing: tuple
    values: np.ndarray  # (Nx, Ny, d)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 3:
            raise DomainError("FieldGrid values must have shape (Nx, Ny, d)")
        if not (self.spacing[0] > 0 and self.spacing[1] > 0):
            raise DomainError("grid spacing must be strictly positive")
        if not np.all(np.isfinite(v)):
            raise DomainError("grid contains non-finite samples")

    @property
    def dims(self):
        return self.values.shape[:2]

    @property
    def ncomp(self):
        return self.values.shape[2]

    def xs(self):
        return self.origin[0] + self.spacing[0] * np.arange(self.dims[0], dtype=float)

    def ys(self):
        return self.origin[1] + self.spacing[1] * np.arange(self.dims[1], dtype=float)


@dataclass
class JetRecord:
    """A vector with its partial derivatives at one parameter point."""

    value: np.ndarray
    d_x: np.ndarray
    d_y: np.ndarray
    d_xx: np.ndarray
    d_xy: np.ndarray
    d_yy: np.ndarray
    d_xxx: Optional[np.ndarray] = None
    d_yyy: Optional[np.ndarray] = None

    @property
    def order(self):
        return 3 if self.d_xxx is not None else 2


@dataclass
class JetGrid:
    """Per-point jets over (a sub-box of) a grid; batched JetRecord.

    Each derivative array has shape (nx, ny, d); ``xs``/``ys`` give the
    parameter coordinates of the covered points.
    """

    xs: np.ndarray
    ys: np.ndarray
    value: np.ndarray
    d_x: np.ndarray
    d_y: np.ndarray
    d_xx: np.ndarray
    d_xy: np.ndarray
    d_yy: np.ndarray
    d_xxx: Optional[np.ndarray] = None
    d_yyy: Optional[np.ndarray] = None

    @property
    def order(self):
        return 3 if self.d_xxx is not None else 2

    @property
    def shape(self):
        return self.value.shape[:2]

    def rows(self, sl):
        """The jets at the x-indices ``sl``, as views."""
        derivs = ("value", "d_x", "d_y", "d_xx", "d_xy", "d_yy", "d_xxx", "d_yyy")
        sliced = {k: getattr(self, k)[sl] for k in derivs if getattr(self, k) is not None}
        return replace(self, xs=self.xs[sl], **sliced)

    def at(self, i, j):
        """JetRecord at interior index (i, j)."""
        return JetRecord(
            value=self.value[i, j],
            d_x=self.d_x[i, j],
            d_y=self.d_y[i, j],
            d_xx=self.d_xx[i, j],
            d_xy=self.d_xy[i, j],
            d_yy=self.d_yy[i, j],
            d_xxx=None if self.d_xxx is None else self.d_xxx[i, j],
            d_yyy=None if self.d_yyy is None else self.d_yyy[i, j],
        )


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


def _difference(v, spacing, m, stencil, parts):
    """Central difference of v over its m-interior.

    ``parts`` lists (axis, derivative order) pairs; more than one pair
    gives the tensor-product stencil of a mixed partial, summed with the
    first pair's offsets outermost.
    """
    taps = [list(zip(*_STENCILS[(stencil, p)][:2])) for _, p in parts]
    out = None
    for combo in product(*taps):
        shift = [0] * (v.ndim - 1)
        w = 1.0
        for (axis, _), (off, wt) in zip(parts, combo):
            shift[axis] = off
            w *= wt
        term = w * v[tuple(slice(m + s, N - m + s) for s, N in zip(shift, v.shape))]
        out = term if out is None else out + term
    h = 1.0
    for axis, p in parts:
        h *= spacing[axis] ** _STENCILS[(stencil, p)][2]
    return out / h


def _jets(v, spacing, m, order, stencil):
    """Jet arrays of a 2-D sampled field over its m-interior."""
    _check_fits(v.shape[:2], m)

    def d(*parts):
        return _difference(v, spacing, m, stencil, parts)

    jets = dict(value=_interior(v, m), d_x=d((0, 1)), d_y=d((1, 1)), d_xx=d((0, 2)), d_xy=d((0, 1), (1, 1)),
                d_yy=d((1, 2)))
    if order >= 3:
        jets.update(d_xxx=d((0, 3)), d_yyy=d((1, 3)))
    return jets


def jet_at(grid: FieldGrid, i: int, j: int, order: int = 2, stencil: int = 2) -> JetRecord:
    """Finite-difference jet at interior grid index (i, j).

    ``order`` is the highest derivative (2 or 3); ``stencil`` the design
    accuracy order (2 or 4).  Only the stencil window around (i, j) is
    evaluated.  Raises :class:`BoundaryError` when the stencil does not
    fit.
    """
    m = _margin(stencil, order)
    nx, ny = grid.dims
    if not (m <= i < nx - m and m <= j < ny - m):
        raise BoundaryError(f"point ({i}, {j}) too close to the boundary for stencil {stencil}, order {order}")
    window = grid.values[i - m : i + m + 1, j - m : j + m + 1]
    return JetRecord(**{k: a[0, 0] for k, a in _jets(window, grid.spacing, m, order, stencil).items()})


def jet_grid(grid: FieldGrid, order: int = 2, stencil: int = 2, rows: slice = None) -> JetGrid:
    """Jets at every interior point, vectorized.

    The interior margin is the widest stencil reach; derivatives are
    never one-sided.  ``rows``, a unit-step slice of the interior
    x-indices, limits the jets to those rows: only their stencil window is
    read, and the arrays equal the same rows of the full jets bit for bit.
    """
    m = _margin(stencil, order)
    nx, ny = grid.dims
    _check_fits(grid.dims, m)
    start, stop, _ = (rows or slice(None)).indices(nx - 2 * m)
    jets = _jets(grid.values[start : stop + 2 * m], grid.spacing, m, order, stencil)
    return JetGrid(xs=grid.xs()[m + start : m + stop], ys=grid.ys()[m : ny - m], **jets)


def grid_on_sites(jets: JetGrid, values) -> FieldGrid:
    """FieldGrid of ``values`` (nx, ny, d) on the sites of ``jets``; a single site spans 1."""
    hx = float(jets.xs[1] - jets.xs[0]) if len(jets.xs) > 1 else 1.0
    hy = float(jets.ys[1] - jets.ys[0]) if len(jets.ys) > 1 else 1.0
    return FieldGrid(origin=(float(jets.xs[0]), float(jets.ys[0])), spacing=(hx, hy), values=values)


@dataclass(frozen=True)
class LatticeField:
    """Map from integer lattice sites to 3- or 4-component vectors.

    values[n1, n2] is the sample at site (base[0] + n1, base[1] + n2);
    ``base`` tracks the window origin so shifted views stay aligned.
    """

    values: np.ndarray  # (M1, M2, d)
    base: tuple = (0, 0)

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


def shift(lat: LatticeField, direction: int, steps: int) -> LatticeField:
    """View of the lattice advanced ``steps`` sites along axis 1 or 2.

    The value of the result at window index (n1, n2) equals the original
    at the shifted site; the window shrinks by |steps| along ``direction``.
    T1 and T2 commute.
    """
    if direction not in (1, 2):
        raise DomainError("direction must be 1 or 2")
    ax = direction - 1
    n = lat.extent[ax]
    if abs(steps) >= n:
        raise BoundaryError(f"shift by {steps} leaves the lattice extent {lat.extent}")
    sl = [slice(None), slice(None), slice(None)]
    if steps >= 0:
        sl[ax] = slice(steps, n)
    else:
        sl[ax] = slice(0, n + steps)
    base = list(lat.base)
    base[ax] += max(steps, 0)
    return LatticeField(values=lat.values[tuple(sl)], base=tuple(base))


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


def _write_table(path, names, coords, values):
    """Write one CSV row per site, first axis fastest.

    ``coords[a]`` holds the coordinates along axis a: an integer array is
    written as integers, any other as repr floats.  ``values`` has shape
    (N1, ..., Nn, k).  Each first-axis line is converted with one
    ``tolist`` call.
    """
    cells = [[repr(c) for c in axis.tolist()] for axis in coords]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for outer in product(*(range(N) for N in reversed(values.shape[1:-1]))):
            site = outer[::-1]
            rest = "".join(f",{cells[a + 1][k]}" for a, k in enumerate(site))
            line = values[(slice(None),) + site].tolist()
            fh.writelines(f"{x}{rest},{','.join(map(repr, row))}\n" for x, row in zip(cells[0], line))


def _line_of(lines, row):
    """File line number of data row ``row``; blank lines hold no row."""
    return [ln for ln, raw in enumerate(lines[1:], start=2) if raw.strip()][row]


def _read_table(path, columns, lattice=False):
    """Read a CSV table into (origin, spacing, values).

    ``columns(header)`` returns the expected header cells and the number
    n of coordinate columns; the remaining k columns are values.  Each
    row is placed by its coordinates, and every site of a uniform n-box
    must appear exactly once; with ``lattice`` the coordinates must be
    the integers 0..M-1.  ``values`` has shape (N1, ..., Nn, k).
    """
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
        raise ParseError("non-finite coordinate", line=_line_of(lines, np.argmax(bad)))
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
        raise ParseError(f"site ({site}) appears twice, first on line {_line_of(lines, first)}",
                         line=_line_of(lines, again))
    values = np.empty((size, width - n))
    values[flat] = rows[:, n:]
    origin = tuple(float(u[0]) for u in axes)
    spacing = tuple(float(u[1] - u[0]) if len(u) > 1 else 1.0 for u in axes)
    return origin, spacing, values.reshape(dims + (width - n,))


def write_grid(grid: FieldGrid, path):
    """Grid CSV: columns x,y,v1..vd."""
    _write_table(path, ["x", "y"] + _names("v", grid.ncomp), [grid.xs(), grid.ys()], grid.values)


def read_grid(path) -> FieldGrid:
    """Parse a grid CSV, validating uniform spacing to 1e-12 relative."""
    origin, spacing, values = _read_table(path, lambda h: (["x", "y"] + _names("v", max(len(h) - 2, 1)), 2))
    return FieldGrid(origin=origin, spacing=spacing, values=values)


def write_lattice(lat: LatticeField, path):
    """Lattice CSV: columns n1,n2,v1..vd; integer sites."""
    coords = [np.arange(m) for m in lat.extent]
    _write_table(path, ["n1", "n2"] + _names("v", lat.ncomp), coords, lat.values)


def read_lattice(path) -> LatticeField:
    """Parse a lattice CSV with 3 or 4 value columns over sites [0,M1)x[0,M2)."""
    _, _, values = _read_table(path, lambda h: (["n1", "n2"] + _names("v", min(max(len(h) - 2, 3), 4)), 2),
                               lattice=True)
    return LatticeField(values=values)
