"""Fixture surfaces with known ground truth, shared by tests and the CLI.

Each scenario bundles sampled grids, analytic jets where closed forms
exist (so convention errors are separable from finite-difference
truncation), and a dictionary of expected invariant values.  Generated
scenarios are seeded and reproducible.
"""

import inspect
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import sympy as sp

from .discrete import (
    DiscreteSurfacePair,
    MoutardCoeff,
    discrete_affine_integrate,
    lift_to_projective,
    moutard_evolve,
)
from .errors import DomainError
from .fields import FieldGrid, JetGrid, LatticeField
from .hyper import AMatrix, HyperGrid, HyperJet
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
    hyper_f_jet: Optional[HyperJet] = None
    hyper_nu_jet: Optional[HyperJet] = None
    hyper_nu_grid: Optional[HyperGrid] = None
    amatrix: Optional[AMatrix] = None
    ground_truth: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _axes(x0, x1, y0, y1, h):
    xs = x0 + h * np.arange(int(round((x1 - x0) / h)) + 1)
    ys = y0 + h * np.arange(int(round((y1 - y0) / h)) + 1)
    return xs, ys


def _sym_jets(fexpr, u, v, xs, ys, order=3):
    """Evaluate a sympy vector expression and its partials on a grid."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    shape = X.shape

    def ev(expr):
        comps = []
        for e in expr:
            fn = sp.lambdify((u, v), e, "numpy")
            val = np.asarray(fn(X, Y), dtype=float)
            comps.append(np.broadcast_to(val, shape))
        return np.stack(comps, axis=-1)

    d = {
        "value": fexpr,
        "d_x": [sp.diff(e, u) for e in fexpr],
        "d_y": [sp.diff(e, v) for e in fexpr],
        "d_xx": [sp.diff(e, u, 2) for e in fexpr],
        "d_xy": [sp.diff(e, u, v) for e in fexpr],
        "d_yy": [sp.diff(e, v, 2) for e in fexpr],
    }
    if order >= 3:
        d["d_xxx"] = [sp.diff(e, u, 3) for e in fexpr]
        d["d_yyy"] = [sp.diff(e, v, 3) for e in fexpr]
    arrays = {k: ev(e) for k, e in d.items()}
    return JetGrid(xs=xs, ys=ys, **arrays)


def _grid_from_jets(jets: JetGrid) -> FieldGrid:
    hx = float(jets.xs[1] - jets.xs[0]) if len(jets.xs) > 1 else 1.0
    hy = float(jets.ys[1] - jets.ys[0]) if len(jets.ys) > 1 else 1.0
    return FieldGrid(origin=(float(jets.xs[0]), float(jets.ys[0])), spacing=(hx, hy), values=jets.value)


def _sym_cross4(rows):
    """[a, b, c] in dimension 4 with the package sign convention."""
    M = sp.Matrix([list(r) for r in rows])
    comps = []
    sign = 1
    for i in range(4):
        keep = [c for c in range(4) if c != i]
        comps.append(sign * M[:, keep].det())
        sign = -sign
    return comps


def _hypar(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.05):
    """Bilinear saddle in asymptotic parameters; every invariant is exact."""
    u, v = sp.symbols("u v")
    f = [u, v, u * v, sp.Integer(-1)]
    nu = [-v, -u, sp.Integer(1), -u * v]
    xs, ys = _axes(x0, x1, y0, y1, h)
    fj = _sym_jets(f, u, v, xs, ys)
    nj = _sym_jets(nu, u, v, xs, ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f3 = FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=np.stack([X, Y, X * Y], axis=-1))
    nu3 = FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=np.stack([-Y, -X, np.ones_like(X)], axis=-1))
    return Scenario(
        name="hypar",
        chart=ChartKind.ASYMPTOTIC,
        f_grid=_grid_from_jets(fj),
        nu_grid=_grid_from_jets(nj),
        f_jets=fj,
        nu_jets=nj,
        f3_grid=f3,
        nu3_grid=nu3,
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
    mixed determinant equal to 1, so the conormal [f, f_u, f_v] is
    polynomial and the cubic form coefficient along u is nonzero (1/2).
    """
    u, v = sp.symbols("u v")
    f = [u, v - u**2 / 4, u * v - u**3 / 12, sp.Integer(-1)]
    fu = [sp.diff(e, u) for e in f]
    fv = [sp.diff(e, v) for e in f]
    nu = [sp.expand(e) for e in _sym_cross4([f, fu, fv])]
    xs, ys = _axes(x0, x1, y0, y1, h)
    fj = _sym_jets(f, u, v, xs, ys)
    nj = _sym_jets(nu, u, v, xs, ys)
    return Scenario(
        name="cubic-graph",
        chart=ChartKind.ASYMPTOTIC,
        f_grid=_grid_from_jets(fj),
        nu_grid=_grid_from_jets(nj),
        f_jets=fj,
        nu_jets=nj,
        ground_truth={"det_mixed": 1.0, "det_xx": 0.25, "F3_abs": 0.5},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _conj_paraboloid(x0=0.2, x1=1.2, y0=0.2, y1=1.2, h=0.05):
    """Elliptic paraboloid, reflected so the conjugate-chart relations hold.

    f = (x, -y, (x^2 + y^2)/2, -1) with nu = (-x, y, 1, -(x^2 + y^2)/2);
    the y reflection flips the orientation from the asymptotic-type
    pairing to the conjugate one.
    """
    u, v = sp.symbols("u v")
    r = (u**2 + v**2) / 2
    f = [u, -v, r, sp.Integer(-1)]
    nu = [-u, v, sp.Integer(1), -r]
    xs, ys = _axes(x0, x1, y0, y1, h)
    fj = _sym_jets(f, u, v, xs, ys, order=2)
    nj = _sym_jets(nu, u, v, xs, ys, order=2)
    return Scenario(
        name="conj-paraboloid",
        chart=ChartKind.CONJUGATE,
        f_grid=_grid_from_jets(fj),
        nu_grid=_grid_from_jets(nj),
        f_jets=fj,
        nu_jets=nj,
        ground_truth={"det_conj_xx": 1.0},
        meta={"h": h, "box": [x0, x1, y0, y1]},
    )


def _ell_paraboloid(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, h=0.1):
    """Elliptic paraboloid as an n = 2 hypersurface pair with A = I."""
    xs, ys = _axes(x0, x1, y0, y1, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    R = (X**2 + Y**2) / 2
    one = np.ones_like(X)
    zero = np.zeros_like(X)
    fval = np.stack([X, Y, R, -one], axis=-1)
    fd1 = np.stack(
        [np.stack([one, zero, X, zero], axis=-1), np.stack([zero, one, Y, zero], axis=-1)], axis=-2
    )
    e3 = np.stack([zero, zero, one, zero], axis=-1)
    z4 = np.zeros_like(fval)
    fd2 = np.stack([np.stack([e3, z4], axis=-2), np.stack([z4, e3], axis=-2)], axis=-3)
    nval = np.stack([-X, -Y, one, -R], axis=-1)
    nd1 = np.stack(
        [np.stack([-one, zero, zero, -X], axis=-1), np.stack([zero, -one, zero, -Y], axis=-1)], axis=-2
    )
    e4 = np.stack([zero, zero, zero, -one], axis=-1)
    nd2 = np.stack([np.stack([e4, z4], axis=-2), np.stack([z4, e4], axis=-2)], axis=-3)
    return Scenario(
        name="ell-paraboloid",
        hyper_f_jet=HyperJet(value=fval, d1=fd1, d2=fd2),
        hyper_nu_jet=HyperJet(value=nval, d1=nd1, d2=nd2),
        hyper_nu_grid=HyperGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=nval),
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
