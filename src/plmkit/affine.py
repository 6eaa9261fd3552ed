"""Classical affine gauge of the surface/conormal correspondence.

Fixing the last homogeneous component of the surface at -1 reduces the
projective relations to the classical Lelieuvre system for the affine
position bf and conormal bnu in R^3:

    bf_x = bnu x bnu_x,    bf_y = -(bnu x bnu_y),

whose closure condition is bnu_xy parallel to bnu.  The module integrates
this system over a sampled grid, lifts affine pairs back to homogeneous
coordinates, and computes the affine invariant forms (the Blaschke
coefficient F and the two cubic coefficients) together with every
cross-identity tying them to the dual surface.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ChartMismatchError, ClosureError, DomainError
from .fields import FieldGrid, _check_fits, _interior, _margin, _partials
from .multilinear import (
    _degeneracy_bound, _dot, _norm, _norm_product, _planar, _planes, _rejection_gap, _scalar_gap, det_n, pair,
)
from .report import AFFINE_TOL, InvariantReport, _check_row_blocks

__all__ = [
    "AffineSurfacePair",
    "AffineForms",
    "classical_lelieuvre_integrate",
    "closure_residual",
    "lift_affine",
    "affine_forms",
]


@dataclass(frozen=True)
class AffineSurfacePair:
    """Affine position field bf and affine conormal field bnu (both d=3)
    over one 2-axis grid."""

    f: FieldGrid
    nu: FieldGrid

    def __post_init__(self):
        if self.f.n != 2 or self.nu.n != 2:
            raise DomainError(f"affine pair needs 2-axis grids, got {self.f.n} and {self.nu.n} axes")
        if self.f.ncomp != 3 or self.nu.ncomp != 3:
            raise DomainError("affine pair needs 3-component fields")
        if self.f.dims != self.nu.dims:
            raise DomainError(f"grid mismatch: {self.f.dims} vs {self.nu.dims}")
        if self.f.origin != self.nu.origin or self.f.spacing != self.nu.spacing:
            raise DomainError("affine pair must share origin and spacing")


@dataclass
class AffineForms:
    """Blaschke coefficient and the two affine cubic coefficients."""

    F: np.ndarray
    A_cubic: np.ndarray
    B_cubic: np.ndarray


def _cross(a, b):
    """a x b of two 3-vector fields as ``np.cross`` computes it, each component
    a_i b_j - a_j b_i in its plane of one component-major output."""
    out = _planar(a.shape)
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[..., i], b[..., j], out=out[..., c])
        out[..., c] -= a[..., j] * b[..., i]
    return out


def _lelieuvre_sum(v, f0):
    """Sum the Lelieuvre edge increments of the (M1, M2, 3) conormal v.

    Increments are v x T1 v along axis 1 and -(v x T2 v) along axis 2,
    accumulated from f0 along the canonical path (axis 1 first).  Shared
    by the sampled-grid and the lattice integrators.  The increments along
    axis 2 are one array, negated and summed into the result in place.
    """
    f = _planar(v.shape[:2] + (3,))
    f[0, 0] = np.asarray(f0, dtype=float)
    f[1:, 0] = f[0, 0] + np.cumsum(_cross(v[:-1, 0], v[1:, 0]), axis=0)  # only the first column along axis 1
    # one array for the three components: made and freed per component, the
    # increments held two planes fewer, but then the build freed no array
    # large enough to raise glibc's dynamic mmap and trim thresholds, and a
    # later pass over the verify units of a 300^2 lattice took 14k minor page
    # faults (4 with this array)
    d2 = _cross(v[:, :-1], v[:, 1:])
    np.negative(d2, out=d2)
    np.cumsum(d2, axis=1, out=f[:, 1:])
    del d2
    f[:, 1:] += f[:, :1]
    return f


def _check_closure(blocks, tolerance, what, cell):
    """The closure check of both integrators: ClosureError at the worst cell
    of the residual field whose row blocks ``blocks`` yields (see
    ``_check_row_blocks``) unless every cell is within ``tolerance`` (a NaN
    cell fails)."""
    _check_row_blocks(blocks, tolerance,
                      lambda site, r: ClosureError(f"{what} (residual {r:.3e}) at {cell} {site}", site=site))


def _lifted_surface(bf):
    """The homogeneous surface f = (bf, -1) of an affine one."""
    return _planes([*np.moveaxis(bf, -1, 0), np.broadcast_to(-1.0, bf.shape[:-1])])


def _lifted_conormal(bf, bn):
    """The homogeneous conormal nu = (bnu, <bf, bnu>) of an affine pair."""
    return _planes([*np.moveaxis(bn, -1, 0), _dot(bf, bn)])


def _homogeneous_lift(bf, bn):
    """Affine (bf, bnu) to homogeneous f = (bf, -1), nu = (bnu, <bf, bnu>)."""
    return _lifted_surface(bf), _lifted_conormal(bf, bn)


def closure_residual(nu: FieldGrid, stencil: int = 2):
    """Pointwise defect of bnu_xy from the bnu direction (interior only).

    The integrability condition of the affine Lelieuvre system is
    bnu_xy = U4 bnu with scalar U4; the residual is the relative norm of
    the component of bnu_xy orthogonal to bnu, on the sites of the order-2
    jets.  Only bnu_xy is differenced, with the stencil of the jets' d_xy.
    The residual on some rows is this call on their window, as in
    ``jet_grid``.
    """
    m = _margin(stencil, 2)
    _check_fits(nu.dims, m)
    (nu_xy,) = _partials(nu.values, nu.spacing, m, stencil, ["d_xy"])
    return _rejection_gap(nu_xy, _interior(nu.values, m), floor=1e-12)


def classical_lelieuvre_integrate(nu: FieldGrid, f0, stencil: int = 2) -> FieldGrid:
    """Integrate bf_x = bnu x bnu_x, bf_y = -(bnu x bnu_y) from a corner.

    Edge increments use the symmetric product nu(p) x nu(q) of adjacent
    samples, which equals the trapezoid rule for this system because
    nu x nu = 0; accumulation follows the canonical path (x first, then
    y).  The closure condition bnu_xy parallel to bnu is checked first and
    a violation reports the worst interior cell.  This is the system of the
    indefinite-metric (hyperbolic) branch, the only one implemented.
    """
    if nu.ncomp != 3:
        raise DomainError("classical integration needs a 3-component conormal")
    res, _ = closure_residual(nu, stencil=stencil)
    _check_closure([res], AFFINE_TOL, "closure condition violated", "interior cell")
    return FieldGrid(origin=nu.origin, spacing=nu.spacing, values=_lelieuvre_sum(nu.values, f0))


def lift_affine(pairg: AffineSurfacePair):
    """Homogeneous lift: f = (bf, -1), nu = (bnu, <bf, bnu>).

    The lifted pair satisfies the full projective relations, so every
    homogeneous-coordinate report applies to it downstream.
    """
    f4, nu4 = _homogeneous_lift(pairg.f.values, pairg.nu.values)
    mk = lambda vals: FieldGrid(origin=pairg.f.origin, spacing=pairg.f.spacing, values=vals)
    return mk(f4), mk(nu4)


def _jet_order(dims, stencil: int = 2):
    """The jet order of ``affine_forms`` on a grid of ``dims``: 3 where the
    order-3 stencil fits every axis, else 2 (and no cubic squared relations)."""
    return 3 if min(dims) >= 2 * _margin(stencil, 3) + 1 else 2


def affine_forms(pairg: AffineSurfacePair, stencil: int = 2, report=None):
    """Affine form coefficients plus the report of their identities.

    F = det|bnu, bnu_x, bnu_y|, A_cubic = det|bnu, bnu_x, bnu_xx|,
    B_cubic = det|bnu, bnu_y, bnu_yy| (no radicals are needed on the
    conormal side).  The report checks the pairing expressions of F and
    the cubics on the dual surface, the squared-determinant relations on
    the surface side (their radicand signs are fixed; the wrong sign
    means the data is not in this chart), and the lifted determinant
    factorization det|nu, nu_x, nu_y, nu_xy| = F^2, every identity on the
    sites of the jets of order ``_jet_order(dims, stencil)``.

    The suite on some rows of its sites is this call on the pair's window
    of those rows, as in ``jet_grid``: only that window is read and
    lifted.  It runs in phases: the conormal's partials and F, A, B; the
    pairings; the surface determinants; the lift.  Each phase differences
    only the partials it reads, each the bits of its slot of the jets, and
    each partial and determinant is dropped after its last read.  Every
    surface partial is made, so that a non-finite one raises its
    DomainError, before a cubic radicand's sign is judged.  The records go
    to ``report`` when one is given (an InvariantReport, or a ResidualTile
    to keep the fields of one tile).
    """
    order = _jet_order(pairg.f.dims, stencil)
    rep = InvariantReport(metadata={"stencil": stencil, "jet_order": order}) if report is None else report
    m, m2 = _margin(stencil, order), _margin(stencil, 2)
    _check_fits(pairg.f.dims, m)
    surface = partial(_partials, pairg.f.values, pairg.f.spacing, m, stencil)
    v = pairg.nu.values
    nu = _interior(v, m)
    nu_x, nu_y, nu_xx, nu_yy = _partials(v, pairg.nu.spacing, m, stencil, ["d_x", "d_y", "d_xx", "d_yy"])
    F = _det3(nu, nu_x, nu_y)
    A = _det3(nu, nu_x, nu_xx)
    B = _det3(nu, nu_y, nu_yy)
    del nu_xx, nu_yy

    # bf_xx = bnu x bnu_xx and bf_yy = -(bnu x bnu_yy), so <bf_xx, bnu_x> = -A and <bf_yy, bnu_y> = B
    f_x, f_xx, f_yy = surface(["d_x", "d_xx", "d_yy"])
    for name, a, b, rhs in (("blaschke_pairing", f_x, nu_y, F), ("cubic_pairing_x", f_xx, nu_x, -A),
                            ("cubic_pairing_y", f_yy, nu_y, B)):
        rep.add(name, _scalar_gap(pair(a, b), rhs, _norm(a) * _norm(b) + np.abs(rhs)), AFFINE_TOL)
    del nu_x, nu_y

    f_y, f_xy = surface(["d_y", "d_xy"])
    dfmix = _det3(f_x, f_y, f_xy)
    del f_xy
    rep.add("blaschke_squared", _scalar_gap(dfmix, F**2, np.abs(dfmix) + F**2 + 1e-12), AFFINE_TOL)
    del dfmix
    if order >= 3:
        (f_xxx,) = surface(["d_xxx"])
        dfx = _det3(f_x, f_xx, f_xxx)
        wrong_x = np.any(dfx < -_degeneracy_bound(_norm_product(f_x, f_xx, f_xxx)))
        del f_x, f_xx, f_xxx
        (f_yyy,) = surface(["d_yyy"])
        dfy = _det3(f_y, f_yy, f_yyy)
        wrong_y = np.any(dfy > _degeneracy_bound(_norm_product(f_y, f_yy, f_yyy)))
        del f_y, f_yy, f_yyy
        if wrong_x:
            raise ChartMismatchError("det|bf_x, bf_xx, bf_xxx| < 0: wrong-sign radicand for the x cubic")
        if wrong_y:
            raise ChartMismatchError("det|bf_y, bf_yy, bf_yyy| > 0: wrong-sign radicand for the y cubic")
        rep.add("cubic_squared_x", _scalar_gap(dfx, A**2, np.abs(dfx) + A**2 + 1e-12), AFFINE_TOL)
        del dfx
        rep.add("cubic_squared_y", _scalar_gap(dfy, -(B**2), np.abs(dfy) + B**2 + 1e-12), AFFINE_TOL)
        del dfy
    else:
        del f_x, f_y, f_xx, f_yy

    # lifted factorization: the homogeneous mixed determinant is F^2.  The
    # lift is pointwise, so only the window of order-2 stencils on the sites is lifted
    window = tuple(slice(m - m2, N - m + m2) for N in pairg.f.dims)
    nu4 = _lifted_conormal(pairg.f.values[window], pairg.nu.values[window])
    if not np.isfinite(nu4).all():  # <bf, bnu> overflowed
        raise DomainError("grid contains non-finite samples")
    nu4_x, nu4_y, nu4_xy = _partials(nu4, pairg.f.spacing, m2, stencil, ["d_x", "d_y", "d_xy"])
    d4 = np.asarray(det_n([_interior(nu4, m2), nu4_x, nu4_y, nu4_xy]), dtype=float)
    del nu4, nu4_x, nu4_y, nu4_xy
    rep.add("lift_mixed_det_is_F_squared", _scalar_gap(d4, F**2, np.abs(d4) + F**2 + 1e-12), AFFINE_TOL)
    return AffineForms(F=F, A_cubic=A, B_cubic=B), rep


def _det3(a, b, c):
    """det|a, b, c| of three 3-vector fields, in floats."""
    return np.asarray(det_n([a, b, c]), dtype=float)
