"""Fixture surfaces with known ground truth, shared by tests and the CLI.

Each scenario bundles sampled grids, analytic jets where closed forms
exist (so convention errors are separable from finite-difference
truncation), and a dictionary of expected invariant values.  Generated
scenarios are seeded and reproducible.
"""

import inspect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discrete import (
    DiscreteSurfacePair,
    MoutardCoeff,
    discrete_affine_integrate,
    lift_to_projective,
    moutard_evolve,
)
from .errors import DomainError
from .fields import _NAMED, FieldGrid, JetGrid, LatticeField, grid_on_sites
from .hyper import AMatrix
from .smooth import ChartKind

__all__ = ["Scenario", "scenario", "list_scenarios"]


@dataclass
class Scenario:
    """Bundle of sampled fields, analytic jets and expected values."""

    name: str
    chart: Optional[ChartKind] = None
    f_grid: Optional[FieldGrid] = None
    nu_grid: Optional[FieldGrid] = None
    f_jets: Optional[JetGrid] = None
    nu_jets: Optional[JetGrid] = None
    f3_grid: Optional[FieldGrid] = None
    nu3_grid: Optional[FieldGrid] = None
    f_lattice: Optional[LatticeField] = None
    nu_lattice: Optional[LatticeField] = None
    f3_lattice: Optional[LatticeField] = None
    nu3_lattice: Optional[LatticeField] = None
    hyper_f_jet: Optional[JetGrid] = None
    hyper_nu_jet: Optional[JetGrid] = None
    hyper_nu_grid: Optional[FieldGrid] = None
    amatrix: Optional[AMatrix] = None
    ground_truth: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _axes(x0, x1, y0, y1, h):
    if not (h > 0 and math.isfinite(h)):
        raise DomainError(f"grid spacing h must be finite and positive, got {h}")
    box = f"grid box [{x0}, {x1}] x [{y0}, {y1}]"
    if not all(map(math.isfinite, (x0, x1, y0, y1))) or x1 < x0 or y1 < y0:
        raise DomainError(f"{box} needs finite endpoints with x0 <= x1 and y0 <= y1")
    steps = [(x1 - x0) / h, (y1 - y0) / h]
    if not all(map(math.isfinite, steps)):
        raise DomainError(f"{box} holds too many steps of h = {h}")
    xs, ys = (a + h * np.arange(int(round(n)) + 1) for a, n in zip((x0, y0), steps))
    return xs, ys


def _stack(shape, comps):
    """Components (arrays or plain numbers) broadcast over ``shape``, stacked last."""
    return np.stack([np.broadcast_to(np.asarray(c, dtype=float), shape) for c in comps], axis=-1)


def _closed_jets(xs, ys, order, value, **partials):
    """JetGrid of a polynomial field from its closed-form partials.

    ``value`` and each partial, named in the paper's notation (``d_x`` ...
    ``d_yyy``), is a list of components over the (xs, ys) grid; each
    component is written into its slot of the jet arrays once, and a
    partial that is not given is zero.  Each component is written the way
    a computer-algebra printer writes the derivative (``-1 / 12 * X**3 +
    X * Y``, not Horner form), so the arrays equal the symbolic oracle of
    the tests bit for bit.
    """
    shape = (len(xs), len(ys), len(value))
    arrays = dict(d1=np.zeros((2,) + shape), d2=np.zeros((3,) + shape),
                  d3=np.zeros((2,) + shape) if order >= 3 else None)
    for name, comps in partials.items():
        array, k = _NAMED[name]
        for c, comp in enumerate(comps):
            arrays[array][k, ..., c] = comp
    return JetGrid(value=_stack(shape[:2], value), axes=(xs, ys), **arrays)


def _smooth_pair(name, chart, fj, nj, **rest):
    """Scenario of a smooth pair whose sampled grids are the values of its jets."""
    return Scenario(name=name, chart=chart, f_grid=grid_on_sites(fj, fj.value), nu_grid=grid_on_sites(nj, nj.value),
                    f_jets=fj, nu_jets=nj, **rest)


def _hypar(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.05):
    """Bilinear saddle in asymptotic parameters; every invariant is exact.

    f = (u, v, uv, -1), nu = (-v, -u, 1, -uv).
    """
    xs, ys = _axes(x0, x1, y0, y1, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fj = _closed_jets(xs, ys, 3, value=[X, Y, X * Y, -1], d_x=[1, 0, Y, 0], d_y=[0, 1, X, 0], d_xy=[0, 0, 1, 0])
    nj = _closed_jets(xs, ys, 3, value=[-Y, -X, 1, -X * Y], d_x=[0, -1, 0, -Y], d_y=[-1, 0, 0, -X],
                      d_xy=[0, 0, 0, -1])
    return _smooth_pair(
        "hypar", ChartKind.ASYMPTOTIC, fj, nj,
        f3_grid=FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=_stack(X.shape, [X, Y, X * Y])),
        nu3_grid=FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=_stack(X.shape, [-Y, -X, 1])),
        ground_truth={
            "det_mixed": 1.0,
            "F2_coeff": -2.0,
            "F3_coeff": 0.0,
            "blaschke_F": -1.0,
            "cubics": 0.0,
        },
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _cubic_graph(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.05):
    """Cubic saddle z = xy + x^3/6 in asymptotic parameters.

    The parametrization f = (u, v - u^2/4, uv - u^3/12, -1) keeps the
    mixed determinant equal to 1, so the conormal [f, f_u, f_v] =
    (u^2/4 + v, u, -1, u^3/12 + uv) is polynomial and the cubic form
    coefficient along u is nonzero (1/2).
    """
    xs, ys = _axes(x0, x1, y0, y1, h)
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
    return _smooth_pair(
        "cubic-graph", ChartKind.ASYMPTOTIC, fj, nj,
        ground_truth={"det_mixed": 1.0, "det_xx": 0.25, "F3_abs": 0.5},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _conj_paraboloid(x0=0.2, x1=1.2, y0=0.2, y1=1.2, h=0.05):
    """Elliptic paraboloid, reflected so the conjugate-chart relations hold.

    f = (x, -y, (x^2 + y^2)/2, -1) with nu = (-x, y, 1, -(x^2 + y^2)/2);
    the y reflection flips the orientation from the asymptotic-type
    pairing to the conjugate one.
    """
    xs, ys = _axes(x0, x1, y0, y1, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fj = _closed_jets(xs, ys, 2, value=[X, -Y, (1 / 2) * X**2 + (1 / 2) * Y**2, -1], d_x=[1, 0, X, 0],
                      d_y=[0, -1, Y, 0], d_xx=[0, 0, 1, 0], d_yy=[0, 0, 1, 0])
    nj = _closed_jets(xs, ys, 2, value=[-X, Y, 1, -1 / 2 * X**2 - 1 / 2 * Y**2], d_x=[-1, 0, 0, -X],
                      d_y=[0, 1, 0, -Y], d_xx=[0, 0, 0, -1], d_yy=[0, 0, 0, -1])
    return _smooth_pair(
        "conj-paraboloid", ChartKind.CONJUGATE, fj, nj,
        ground_truth={"det_conj_xx": 1.0},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _ell_paraboloid(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.1):
    """Elliptic paraboloid as an n = 2 hypersurface pair with A = I."""
    xs, ys = _axes(x0, x1, y0, y1, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    R = (X**2 + Y**2) / 2
    fj = _closed_jets(xs, ys, 2, value=[X, Y, R, -1], d_x=[1, 0, X, 0], d_y=[0, 1, Y, 0], d_xx=[0, 0, 1, 0],
                      d_yy=[0, 0, 1, 0])
    nj = _closed_jets(xs, ys, 2, value=[-X, -Y, 1, -R], d_x=[-1, 0, 0, -X], d_y=[0, -1, 0, -Y],
                      d_xx=[0, 0, 0, -1], d_yy=[0, 0, 0, -1])
    return Scenario(
        name="ell-paraboloid",
        hyper_f_jet=fj,
        hyper_nu_jet=nj,
        hyper_nu_grid=FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=nj.value),
        amatrix=AMatrix(np.eye(2)),
        ground_truth={"A": [[1.0, 0.0], [0.0, 1.0]]},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _check_lattice_size(size):
    # the Omega3 identities pair three consecutive sites along each axis
    if size < 3:
        raise DomainError(f"lattice size must be at least 3, got {size}")


def _hypar_lattice(h=0.1, size=8):
    """Discrete bilinear saddle: the affine conormal is linear in the sites."""
    _check_lattice_size(size)
    # at h = 0 the conormal is constant and the surface a single point
    if not (h != 0 and math.isfinite(h)):
        raise DomainError(f"lattice spacing h must be finite and nonzero, got {h}")
    n1, n2 = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    bn = np.stack([-n2 * h, -n1 * h, np.ones_like(n1, dtype=float)], axis=-1)
    nu3 = LatticeField(values=bn)
    f3 = discrete_affine_integrate(nu3, np.zeros(3))
    pair3 = DiscreteSurfacePair(nu=nu3, f=f3, gauge="affine")
    lifted = lift_to_projective(pair3)
    return Scenario(
        name="hypar-lattice",
        f3_lattice=f3,
        nu3_lattice=nu3,
        f_lattice=lifted.f,
        nu_lattice=lifted.nu,
        ground_truth={"Omega2": -h * h, "F2d": h * h, "volume": h**4},
        meta={"h": h, "size": size},
    )


def _moutard_random(seed=42, size=32, hmin=0.9, hmax=1.1, h=0.1, amp=0.01):
    """Random Moutard-evolved conormal lattice plus its integrated surface.

    The boundary strips are the bilinear-saddle strips with a small seeded
    perturbation; the plaquette coefficient is uniform in [hmin, hmax].
    All identities hold by construction, none in closed form.
    """
    _check_lattice_size(size)
    rng = np.random.default_rng(seed)
    H = MoutardCoeff(rng.uniform(hmin, hmax, size=(size - 1, size - 1)))
    n = np.arange(size, dtype=float)
    row = np.stack([np.zeros(size), -n * h, np.ones(size)], axis=-1) + amp * rng.standard_normal((size, 3))
    col = np.stack([-n * h, np.zeros(size), np.ones(size)], axis=-1) + amp * rng.standard_normal((size, 3))
    col[0] = row[0]
    nu3 = moutard_evolve(row, col, H)
    f3 = discrete_affine_integrate(nu3, np.zeros(3))
    pair3 = DiscreteSurfacePair(nu=nu3, f=f3, gauge="affine")
    lifted = lift_to_projective(pair3)
    return Scenario(
        name="moutard-random",
        f3_lattice=f3,
        nu3_lattice=nu3,
        f_lattice=lifted.f,
        nu_lattice=lifted.nu,
        ground_truth={},
        meta={"seed": seed, "size": size, "hmin": hmin, "hmax": hmax, "h": h, "amp": amp},
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
    return build(**params)
