"""Fixture surfaces with known ground truth, shared by tests and the CLI.

Each scenario bundles sampled grids or lattices, closed-form jets where
they exist (so convention errors are separable from finite-difference
truncation), and a dictionary of expected invariant values.  A closed-form
fixture stores its jets, and the hypar its affine pair, as a ``ClosedForm``,
a function of the site coordinates, and evaluates them where they are asked
for: ``verify``'s row tiles evaluate their own rows, and the whole-grid
fields of the ``Scenario`` are computed on each access, so a scenario holds
no whole-grid array.  A lattice fixture holds its affine pair alone; its
homogeneous lift is computed on access too.  Generated scenarios are seeded
and reproducible.
"""

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .affine import AffineSurfacePair, _lifted_conormal, _lifted_surface
from .discrete import MoutardCoeff, discrete_affine_integrate, moutard_evolve
from .errors import DomainError
from .fields import _NAMED, FieldGrid, JetGrid, LatticeField, _grid_rows, grid_on_sites
from .hyper import AMatrix
from .multilinear import _planar, _planes
from .smooth import ChartKind

__all__ = ["ClosedForm", "Scenario", "scenario", "list_scenarios"]


@dataclass(frozen=True)
class ClosedForm:
    """A fixture's (f, nu) pair in closed form, on the sites ``axes``.

    ``pair(xs, ys)`` returns the pair on the sites xs x ys: two JetGrids,
    or the two value arrays of an affine pair, whose function returns the
    conormal's alone when called with ``conormal=True``; ``h`` is the
    spacing the axes were sampled with.  Every component is elementwise in
    the site coordinates, so the pair on some rows equals those rows of the
    whole-grid pair bit for bit.
    """

    pair: Callable
    axes: tuple
    h: float

    @property
    def shape(self):
        return tuple(len(c) for c in self.axes)

    def rows(self, rows=slice(None)):
        """The pair on ``rows`` of the first axis; an overflow is a DomainError."""
        return self._on(rows)

    def grids(self, rows=slice(None)):
        """The pair of value arrays on ``rows`` as FieldGrids of spacing ``h``."""
        return tuple(self._grid(rows, values) for values in self.rows(rows))

    def conormal(self, rows=slice(None)):
        """An affine pair's conormal alone on ``rows``, as a FieldGrid of spacing ``h``."""
        return self._grid(rows, self._on(rows, conormal=True))

    def _on(self, rows, **only):
        xs, ys = self.axes
        # JetGrid and FieldGrid reject the non-finite entries; the error state is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            return self.pair(xs[rows], ys, **only)

    def _grid(self, rows, values):
        xs, ys = self.axes
        return FieldGrid(origin=(xs[rows][0], ys[0]), spacing=(self.h, self.h), values=values)


class _Derived:
    """A Scenario field: the value given to the constructor or, when none is
    given, ``make`` of the scenario's fields ``sources`` (a closed form, or
    the affine lattice pair; None while one of them is None), computed on
    each access."""

    def __init__(self, make, *sources):
        self.make, self.sources = make, sources

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, scn, owner=None):
        if scn is None:
            return None  # the field's default
        given, found = scn.__dict__[self.key], [getattr(scn, source) for source in self.sources]
        if given is not None or any(v is None for v in found):
            return given
        # every field made here rejects non-finite entries: an overflow is that error, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return self.make(*found)

    def __set__(self, scn, value):
        scn.__dict__[self.key] = value


def _values_grid(jets):
    return grid_on_sites(jets, jets.value)


@dataclass
class Scenario:
    """Bundle of sampled fields, jets and expected values.

    A smooth pair comes as jets (``f_jets``, ``nu_jets``), as sampled
    grids (``f_grid``, ``nu_grid``) or both; an n = 2 hypersurface pair as
    ``hyper_f_jet``, ``hyper_nu_jet`` and ``hyper_nu_grid``; an affine
    pair as ``f3_grid`` and ``nu3_grid``; a lattice pair as ``f3_lattice``
    and ``nu3_lattice``, the affine gauge.  A closed-form fixture gives
    ``closed``, ``hyper_closed`` or ``affine_closed`` instead, and each of
    these fields that is not given is then computed from it on every
    access: bind it once.  So are the projective lattices ``f_lattice`` and
    ``nu_lattice``, when not given, from the affine lattice pair: its
    homogeneous lift, which a lattice fixture does not store (``verify``'s
    tiles lift their own rows).  ``jet_pair`` and ``affine_pair`` read the
    pairs by rows without building the whole grid, and ``value_grids`` gives
    both value grids of one evaluation.
    """

    name: str
    chart: Optional[ChartKind] = None
    f_grid: Optional[FieldGrid] = _Derived(lambda c: _values_grid(c.rows()[0]), "closed")
    nu_grid: Optional[FieldGrid] = _Derived(lambda c: _values_grid(c.rows()[1]), "closed")
    f_jets: Optional[JetGrid] = _Derived(lambda c: c.rows()[0], "closed")
    nu_jets: Optional[JetGrid] = _Derived(lambda c: c.rows()[1], "closed")
    f3_grid: Optional[FieldGrid] = _Derived(lambda c: c.grids()[0], "affine_closed")
    nu3_grid: Optional[FieldGrid] = _Derived(lambda c: c.grids()[1], "affine_closed")
    f_lattice: Optional[LatticeField] = _Derived(lambda f3, nu3: LatticeField(values=_lifted_surface(f3.values)),
                                                 "f3_lattice", "nu3_lattice")
    nu_lattice: Optional[LatticeField] = _Derived(
        lambda f3, nu3: LatticeField(values=_lifted_conormal(f3.values, nu3.values)), "f3_lattice", "nu3_lattice")
    f3_lattice: Optional[LatticeField] = None
    nu3_lattice: Optional[LatticeField] = None
    hyper_f_jet: Optional[JetGrid] = _Derived(lambda c: c.rows()[0], "hyper_closed")
    hyper_nu_jet: Optional[JetGrid] = _Derived(lambda c: c.rows()[1], "hyper_closed")
    hyper_nu_grid: Optional[FieldGrid] = _Derived(lambda c: FieldGrid(
        origin=tuple(a[0] for a in c.axes), spacing=(c.h, c.h), values=c.rows()[1].value), "hyper_closed")
    amatrix: Optional[AMatrix] = None
    closed: Optional[ClosedForm] = None
    hyper_closed: Optional[ClosedForm] = None
    affine_closed: Optional[ClosedForm] = None
    ground_truth: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def jet_pair(self, hyper=False):
        """The (f, nu) jets by rows: ``(rows, shapes)``, or None without jets.

        ``rows(r)`` gives the pair on rows ``r`` of the batch: views of
        given JetGrids, else the closed form evaluated on those rows only.
        ``shapes`` are the batch shapes of f and nu.
        """
        names = ("hyper_f_jet", "hyper_nu_jet") if hyper else ("f_jets", "nu_jets")
        f, nu = (self.__dict__["_" + name] for name in names)  # given, not derived
        if f is not None:
            return (lambda rows: (f[rows], nu[rows])), (f.shape, nu.shape)
        closed = self.hyper_closed if hyper else self.closed
        return None if closed is None else (closed.rows, (closed.shape, closed.shape))

    def value_grids(self, affine=False):
        """``(f_grid, nu_grid)``, or with ``affine`` ``(f3_grid, nu3_grid)``,
        from one evaluation of the closed form when both derive from it."""
        names = ("f3_grid", "nu3_grid") if affine else ("f_grid", "nu_grid")
        closed = self.affine_closed if affine else self.closed
        if closed is None or any(self.__dict__["_" + name] is not None for name in names):
            return tuple(getattr(self, name) for name in names)
        return closed.grids() if affine else tuple(_values_grid(jets) for jets in closed.rows())

    def affine_pair(self):
        """The affine pair by rows: ``(rows, dims)``, or None without one.

        ``rows(r)`` gives the AffineSurfacePair on rows ``r`` (a unit-step
        slice) of the grid: views of given grids, else the closed form
        evaluated on those rows only.  ``dims`` are the whole grid's.
        """
        f, nu = self.__dict__["_f3_grid"], self.__dict__["_nu3_grid"]
        if f is None:
            closed = self.affine_closed
            return None if closed is None else ((lambda r: AffineSurfacePair(*closed.grids(r))), closed.shape)
        AffineSurfacePair(f=f, nu=nu)  # a pair that does not match is refused here
        return (lambda r: AffineSurfacePair(*(_grid_rows(g, r) for g in (f, nu)))), f.dims

    def affine_conormal(self):
        """The affine pair's conormal by rows, as ``affine_pair`` gives the
        pair: ``(rows, dims)``, or None without a pair.  ``rows(r)`` is a
        FieldGrid: a view of the given grid, else the closed form's conormal
        alone evaluated on those rows; a given pair is checked as there."""
        found = self.affine_pair()
        if found is None:
            return None
        nu = self.__dict__["_nu3_grid"]
        return ((lambda r: _grid_rows(nu, r)) if nu is not None else self.affine_closed.conormal), found[1]


def _axes(x0, x1, y0, y1, h):
    if not (h > 0 and math.isfinite(h)):
        raise DomainError(f"grid spacing h must be finite and positive, got {h}")
    box = f"grid box [{x0}, {x1}] x [{y0}, {y1}]"
    if not all(map(math.isfinite, (x0, x1, y0, y1))) or x1 < x0 or y1 < y0:
        raise DomainError(f"{box} needs finite endpoints with x0 <= x1 and y0 <= y1")
    steps = [(x1 - x0) / h, (y1 - y0) / h]
    # or more sites than numpy's index type holds
    if not all(map(math.isfinite, steps)) or math.prod(int(round(n)) + 1 for n in steps) > np.iinfo(np.intp).max:
        raise DomainError(f"{box} holds too many steps of h = {h}")
    xs, ys = (a + h * np.arange(int(round(n)) + 1) for a, n in zip((x0, y0), steps))
    return xs, ys


def _stack(shape, comps):
    """Components (arrays or plain numbers) broadcast over ``shape``, stacked last, one plane each."""
    return _planes([np.broadcast_to(np.asarray(c, dtype=float), shape) for c in comps])


def _slot_array(count, shape, given):
    """A jet slot array (count, *shape) holding the given (slot, components),
    zero elsewhere: stored as (count, 1, 1, d) and broadcast when every given
    component is a plain number."""
    constant = all(np.ndim(comp) == 0 for _, comps in given for comp in comps)
    stored = _planar((count,) + ((1, 1) if constant else shape[:2]) + shape[2:], np.zeros)
    for k, comps in given:
        for c, comp in enumerate(comps):
            stored[k, ..., c] = comp
    return np.broadcast_to(stored, (count,) + shape) if constant else stored


def _closed_jets(xs, ys, order, value, **partials):
    """JetGrid of a polynomial field from its closed-form partials.

    ``value`` and each partial, named in the paper's notation (``d_x`` ...
    ``d_yyy``), is a list of components over the (xs, ys) grid; each
    component is written into its slot of the jet arrays once, and a
    partial that is not given is zero.  A slot array (``d1``, ``d2`` or
    ``d3``) whose given components are all plain numbers, or that no
    partial is given for, is constant over the grid: it is stored as one
    row of sites, shape (k, 1, 1, d), and the jets see it through
    ``np.broadcast_to`` (read-only, with zero batch strides).  Each
    component is written the way a computer-algebra printer writes the
    derivative (``-1 / 12 * X**3 + X * Y``, not Horner form), so the arrays
    equal the symbolic oracle of the tests bit for bit.
    """
    shape = (len(xs), len(ys), len(value))
    given = {"d1": [], "d2": [], "d3": []}
    for name, comps in partials.items():
        array, k = _NAMED[name]
        given[array].append((k, comps))
    return JetGrid(value=_stack(shape[:2], value), d1=_slot_array(2, shape, given["d1"]),
                   d2=_slot_array(3, shape, given["d2"]),
                   d3=_slot_array(2, shape, given["d3"]) if order >= 3 else None, axes=(xs, ys))


def _hypar_jets(xs, ys):
    """f = (u, v, uv, -1) and nu = (-v, -u, 1, -uv) on the sites xs x ys."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fj = _closed_jets(xs, ys, 3, value=[X, Y, X * Y, -1], d_x=[1, 0, Y, 0], d_y=[0, 1, X, 0], d_xy=[0, 0, 1, 0])
    nj = _closed_jets(xs, ys, 3, value=[-Y, -X, 1, -X * Y], d_x=[0, -1, 0, -Y], d_y=[-1, 0, 0, -X],
                      d_xy=[0, 0, 0, -1])
    return fj, nj


def _hypar_affine(xs, ys, conormal=False):
    """The affine gauge bf = (u, v, uv), bnu = (-v, -u, 1) on the sites xs x ys,
    as value arrays; with ``conormal``, bnu alone."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nu = _stack(X.shape, [-Y, -X, 1])
    return nu if conormal else (_stack(X.shape, [X, Y, X * Y]), nu)


def _hypar(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.05):
    """Bilinear saddle in asymptotic parameters; every invariant is exact.

    f = (u, v, uv, -1), nu = (-v, -u, 1, -uv).
    """
    axes = _axes(x0, x1, y0, y1, h)
    return Scenario(
        name="hypar",
        chart=ChartKind.ASYMPTOTIC,
        closed=ClosedForm(_hypar_jets, axes, h),
        affine_closed=ClosedForm(_hypar_affine, axes, h),
        ground_truth={
            "det_mixed": 1.0,
            "F2_coeff": -2.0,
            "F3_coeff": 0.0,
            "blaschke_F": -1.0,
            "cubics": 0.0,
        },
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _cubic_graph_jets(xs, ys):
    """f = (u, v - u^2/4, uv - u^3/12, -1) and its conormal on the sites xs x ys."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fj = _closed_jets(
        xs, ys, 3,
        value=[X, -1 / 4 * X**2 + Y, -1 / 12 * X**3 + X * Y, -1], d_x=[1, -1 / 2 * X, -1 / 4 * X**2 + Y, 0],
        d_y=[0, 1, X, 0], d_xx=[0, -1 / 2, -1 / 2 * X, 0], d_xy=[0, 0, 1, 0], d_xxx=[0, 0, -1 / 2, 0],
    )
    nj = _closed_jets(
        xs, ys, 3,
        value=[(1 / 4) * X**2 + Y, X, -1, (1 / 12) * X**3 + X * Y], d_x=[(1 / 2) * X, 1, 0, (1 / 4) * X**2 + Y],
        d_y=[1, 0, 0, X], d_xx=[1 / 2, 0, 0, (1 / 2) * X], d_xy=[0, 0, 0, 1], d_xxx=[0, 0, 0, 1 / 2],
    )
    return fj, nj


def _cubic_graph(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.05):
    """Cubic saddle z = xy + x^3/6 in asymptotic parameters.

    The parametrization f = (u, v - u^2/4, uv - u^3/12, -1) keeps the
    mixed determinant equal to 1, so the conormal [f, f_u, f_v] =
    (u^2/4 + v, u, -1, u^3/12 + uv) is polynomial and the cubic form
    coefficient along u is nonzero (1/2).
    """
    return Scenario(
        name="cubic-graph",
        chart=ChartKind.ASYMPTOTIC,
        closed=ClosedForm(_cubic_graph_jets, _axes(x0, x1, y0, y1, h), h),
        ground_truth={"det_mixed": 1.0, "det_xx": 0.25, "F3_abs": 0.5},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _conj_paraboloid_jets(xs, ys):
    """f = (x, -y, (x^2 + y^2)/2, -1) and nu = (-x, y, 1, -(x^2 + y^2)/2) on the sites xs x ys."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fj = _closed_jets(xs, ys, 2, value=[X, -Y, (1 / 2) * X**2 + (1 / 2) * Y**2, -1], d_x=[1, 0, X, 0],
                      d_y=[0, -1, Y, 0], d_xx=[0, 0, 1, 0], d_yy=[0, 0, 1, 0])
    nj = _closed_jets(xs, ys, 2, value=[-X, Y, 1, -1 / 2 * X**2 - 1 / 2 * Y**2], d_x=[-1, 0, 0, -X],
                      d_y=[0, 1, 0, -Y], d_xx=[0, 0, 0, -1], d_yy=[0, 0, 0, -1])
    return fj, nj


def _conj_paraboloid(x0=0.2, x1=1.2, y0=0.2, y1=1.2, h=0.05):
    """Elliptic paraboloid, reflected so the conjugate-chart relations hold.

    f = (x, -y, (x^2 + y^2)/2, -1) with nu = (-x, y, 1, -(x^2 + y^2)/2);
    the y reflection flips the orientation from the asymptotic-type
    pairing to the conjugate one.
    """
    return Scenario(
        name="conj-paraboloid",
        chart=ChartKind.CONJUGATE,
        closed=ClosedForm(_conj_paraboloid_jets, _axes(x0, x1, y0, y1, h), h),
        ground_truth={"det_conj_xx": 1.0},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _ell_paraboloid_jets(xs, ys):
    """f = (x, y, R, -1) and nu = (-x, -y, 1, -R), R = (x^2 + y^2)/2, on the sites xs x ys."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    R = (X**2 + Y**2) / 2
    fj = _closed_jets(xs, ys, 2, value=[X, Y, R, -1], d_x=[1, 0, X, 0], d_y=[0, 1, Y, 0], d_xx=[0, 0, 1, 0],
                      d_yy=[0, 0, 1, 0])
    nj = _closed_jets(xs, ys, 2, value=[-X, -Y, 1, -R], d_x=[-1, 0, 0, -X], d_y=[0, -1, 0, -Y],
                      d_xx=[0, 0, 0, -1], d_yy=[0, 0, 0, -1])
    return fj, nj


def _ell_paraboloid(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.1):
    """Elliptic paraboloid as an n = 2 hypersurface pair with A = I."""
    return Scenario(
        name="ell-paraboloid",
        hyper_closed=ClosedForm(_ell_paraboloid_jets, _axes(x0, x1, y0, y1, h), h),
        amatrix=AMatrix(np.eye(2)),
        ground_truth={"A": [[1.0, 0.0], [0.0, 1.0]]},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _check_lattice_size(size):
    # the Omega3 identities pair three consecutive sites along each axis
    if size < 3:
        raise DomainError(f"lattice size must be at least 3, got {size}")
    if size * size > np.iinfo(np.intp).max:
        raise DomainError(f"a lattice of size {size} holds more sites than numpy can index")


def _hypar_lattice(h=0.1, size=8):
    """Discrete bilinear saddle: the affine conormal is linear in the sites."""
    _check_lattice_size(size)
    # at h = 0 the conormal is constant and the surface a single point
    if not (h != 0 and math.isfinite(h)):
        raise DomainError(f"lattice spacing h must be finite and nonzero, got {h}")
    n1, n2 = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    bn = _stack(n1.shape, [-n2 * h, -n1 * h, 1])
    nu3 = LatticeField(values=bn)
    return Scenario(
        name="hypar-lattice",
        f3_lattice=discrete_affine_integrate(nu3, np.zeros(3)),
        nu3_lattice=nu3,
        ground_truth={"Omega2": -h * h, "F2d": h * h, "volume": h**4},
        meta={"h": h, "size": size},
    )


# The range of moutard-random's plaquette coefficient, and the scale of the
# seeded perturbation of its boundary strips.
_MOUTARD_HMIN, _MOUTARD_HMAX = 0.9, 1.1
_MOUTARD_AMP = 0.01


def _moutard_random(seed=42, size=32, h=0.1):
    """Random Moutard-evolved conormal lattice plus its integrated surface.

    The boundary strips are the bilinear-saddle strips of spacing h with a
    seeded perturbation of scale ``_MOUTARD_AMP``; the plaquette coefficient
    is uniform in [``_MOUTARD_HMIN``, ``_MOUTARD_HMAX``].  All identities
    hold by construction, none in closed form.
    """
    _check_lattice_size(size)
    rng = np.random.default_rng(seed)
    H = MoutardCoeff(rng.uniform(_MOUTARD_HMIN, _MOUTARD_HMAX, size=(size - 1, size - 1)))
    n = np.arange(size, dtype=float)
    row = np.stack([np.zeros(size), -n * h, np.ones(size)], axis=-1) + _MOUTARD_AMP * rng.standard_normal((size, 3))
    col = np.stack([-n * h, np.zeros(size), np.ones(size)], axis=-1) + _MOUTARD_AMP * rng.standard_normal((size, 3))
    col[0] = row[0]
    nu3 = moutard_evolve(row, col, H)
    return Scenario(
        name="moutard-random",
        f3_lattice=discrete_affine_integrate(nu3, np.zeros(3)),
        nu3_lattice=nu3,
        ground_truth={},
        meta={"seed": seed, "size": size, "hmin": _MOUTARD_HMIN, "hmax": _MOUTARD_HMAX, "h": h, "amp": _MOUTARD_AMP},
    )


_REGISTRY = {
    "hypar": _hypar,
    "cubic-graph": _cubic_graph,
    "conj-paraboloid": _conj_paraboloid,
    "ell-paraboloid": _ell_paraboloid,
    "hypar-lattice": _hypar_lattice,
    "moutard-random": _moutard_random,
}


def list_scenarios():
    return sorted(_REGISTRY)


def scenario(name, **params) -> Scenario:
    """Build a named scenario; unknown names and parameters list what is available."""
    if name not in _REGISTRY:
        raise DomainError(f"unknown scenario {name!r}; available: {', '.join(list_scenarios())}")
    build = _REGISTRY[name]
    accepted = list(inspect.signature(build).parameters)
    rejected = sorted(set(params) - set(accepted))
    if rejected:
        raise DomainError(
            f"scenario {name!r} does not take {', '.join(rejected)}; it takes {', '.join(accepted)}"
        )
    # every field the builders make rejects non-finite entries; an overflow
    # on the way there is that error, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return build(**params)
