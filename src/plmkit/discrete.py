"""Surface/conormal correspondence on the integer lattice and its affine gauge.

The defining relations couple a projective lattice surface f and its
conormal nu through shifts instead of derivatives:

    f ^ T1 f = *(nu ^ T1 nu),    f ^ T2 f = -*(nu ^ T2 nu).

In the affine gauge (last component of f frozen at -1) these become the
difference form of the classical Lelieuvre formula,

    bf1 - bf = bnu x T1 bnu,     bf2 - bf = -(bnu x T2 bnu),

whose closure condition is the Moutard equation
nu12 + nu = H (nu1 + nu2).  The module evolves Moutard data, integrates
the affine difference system, lifts to homogeneous coordinates, recovers
the projective normalization by a scale recursion, and reports every
lattice identity as a residual.

A lattice is its values: T1 and T2 are slices of them, and a pair's gauge
is the component count of its fields (3 affine, 4 projective).  The
surface point [nu, T1 nu, T2 nu] up to scale is the numerator that
``discrete_scale_propagate`` computes at every site.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine import _check_closure, _homogeneous_lift, _lelieuvre_sum
from .errors import (
    BoundaryError,
    DegeneratePointError,
    DomainError,
    EvolutionOverflowError,
    GaugeObstructionError,
    NotCompatibleError,
)
from .fields import LatticeField
from .multilinear import (
    _bivector_gap, _dot, _norm, _norm_product, _pairing_gap, _planar, _rejection_gap, _scalar_gap, _Span, cross_n,
    det_n, pair, star_of_wedge, wedge2,
)
from .report import LATTICE_TOL, SCALE_TOL, SPAN_TOL, InvariantReport, _check_residual, _row_blocks

__all__ = [
    "MoutardCoeff",
    "DiscreteSurfacePair",
    "DiscreteForms",
    "DiscreteCompat",
    "moutard_evolve",
    "moutard_residual",
    "discrete_affine_integrate",
    "lift_to_projective",
    "discrete_scale_propagate",
    "discrete_residual",
    "discrete_det_invariance",
    "discrete_forms",
    "discrete_compat_coeffs",
    "affine_sphere_check",
]


@dataclass(frozen=True)
class MoutardCoeff:
    """Plaquette coefficient H of nu12 + nu = H (nu1 + nu2)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise DomainError("Moutard coefficient contains non-finite entries")


@dataclass(frozen=True)
class DiscreteSurfacePair:
    """A lattice surface together with its conormal lattice.

    The component count the two share fixes the gauge: 3 is 'affine'
    (f4 = -1 semantics), 4 is 'projective' (homogeneous fields,
    <f, nu> = 0).
    """

    nu: LatticeField
    f: LatticeField

    def __post_init__(self):
        if self.nu.ncomp != self.f.ncomp:
            raise DomainError(f"component count mismatch: {self.nu.ncomp}-component conormal, "
                              f"{self.f.ncomp}-component surface")
        if self.nu.extent != self.f.extent:
            raise DomainError(f"extent mismatch: {self.nu.extent} vs {self.f.extent}")

    @property
    def gauge(self):
        return "affine" if self.nu.ncomp == 3 else "projective"

    @property
    def extent(self):
        return self.nu.extent


@dataclass
class DiscreteForms:
    """Lattice analogs of the quadratic/cubic invariant forms.

    The Omega fields come from the affine gauge pairings; the F fields are
    sqrt|det| of the homogeneous four-point determinants, with the sign of
    each determinant reported separately.
    """

    Omega2: Optional[np.ndarray]
    Omega3: Optional[np.ndarray]
    Omega3tilde: Optional[np.ndarray]
    F2d: np.ndarray
    F3d: np.ndarray
    F3dtilde: np.ndarray
    F2d_sign: np.ndarray
    F3d_sign: np.ndarray
    F3dtilde_sign: np.ndarray


@dataclass
class DiscreteCompat:
    """Per-site coefficients of the lattice compatibility system.

    nu11 = A1 nu12 + B1 nu1 + C1 nu  and  nu22 = A2 nu12 + B2 nu2 + C2 nu.
    The *_pairing_residual fields compare A and C against their pairing
    expressions on the dual surface when it is supplied.
    """

    A1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    C2: np.ndarray
    a1_pairing_residual: Optional[np.ndarray] = None
    c1_pairing_residual: Optional[np.ndarray] = None
    a2_pairing_residual: Optional[np.ndarray] = None
    c2_pairing_residual: Optional[np.ndarray] = None


def moutard_evolve(initial_row, initial_col, H) -> LatticeField:
    """Fill the rectangle from two boundary strips by the Moutard rule.

    initial_row is nu(n1, 0) for n1 = 0..M1-1, initial_col is nu(0, n2)
    for n2 = 0..M2-1 (they must be finite and share the corner value); the
    interior is nu(n1+1, n2+1) = H (nu(n1+1, n2) + nu(n1, n2+1)) - nu(n1, n2).
    H is a scalar or an array of shape at least (M1-1, M2-1), indexed by
    the plaquette's lower corner (n1, n2).

    The lattice is filled one anti-diagonal n1 + n2 = k at a time, in
    increasing k: every site on diagonal k depends only on diagonals k-1
    and k-2.  Each site gets the same arithmetic as a site-by-site fill.
    A non-finite value raises EvolutionOverflowError at the first
    non-finite interior site in (n2 outer, n1 inner) order.
    """
    row = np.asarray(initial_row, dtype=float)
    col = np.asarray(initial_col, dtype=float)
    if row.ndim != 2 or col.ndim != 2 or row.shape[1] != col.shape[1]:
        raise DomainError("initial strips must be (M, d) arrays with equal d")
    for name, strip in (("initial_row", row), ("initial_col", col)):
        if not len(strip):
            raise DomainError(f"{name} is empty: a strip holds at least the corner")
        bad = ~np.isfinite(strip).all(axis=-1)
        if bad.any():
            raise DomainError(f"non-finite value in {name} at index {int(np.argmax(bad))}")
    if not np.max(np.abs(row[0] - col[0])) <= 1e-12 * max(np.max(np.abs(row[0])), 1e-300):
        raise DomainError("initial strips disagree at the shared corner")
    if not isinstance(H, MoutardCoeff):
        H = MoutardCoeff(np.asarray(H, dtype=float))
    m1, m2 = row.shape[0], col.shape[0]
    hv = H.values
    if not (hv.ndim == 0 or (hv.ndim == 2 and hv.shape[0] >= m1 - 1 and hv.shape[1] >= m2 - 1)):
        raise DomainError(
            f"Moutard coefficient of shape {hv.shape} does not cover the {m1 - 1}x{m2 - 1} plaquettes"
        )
    h = hv[: m1 - 1, : m2 - 1] if hv.ndim else np.broadcast_to(hv, (m1 - 1, m2 - 1))
    v = _planar((m1, m2, row.shape[1]))
    v[:, 0] = row
    v[0, :] = col
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, m1 + m2 - 1):
            i = np.arange(max(1, k - m2 + 1), min(m1, k))
            j = k - i
            v[i, j] = h[i - 1, j - 1, None] * (v[i, j - 1] + v[i - 1, j]) - v[i - 1, j - 1]
    # transposed, so the flat argmax follows the (n2 outer, n1 inner) order
    bad = ~np.isfinite(v[1:, 1:]).all(axis=-1).T
    if bad.any():
        n2, n1 = np.unravel_index(int(np.argmax(bad)), bad.shape)
        site = (int(n1) + 1, int(n2) + 1)
        raise EvolutionOverflowError(f"non-finite value at site {site}", site=site)
    return LatticeField(values=v)


def moutard_residual(nu: LatticeField):
    """Relative size of the defect of nu12 + nu from the nu1 + nu2 line.

    Vanishes exactly when some plaquette coefficient H exists; this is the
    closure condition of the affine difference system.
    """
    v = nu.values
    return _rejection_gap(v[1:, 1:] + v[:-1, :-1], v[1:, :-1] + v[:-1, 1:])[0]


# Plaquettes per row block of the integrator's closure check, which holds the
# temporaries of one block at a time, not of the whole lattice: as many as the
# sites of a verify tile (``cli.TILE_SITES``).
_CLOSURE_BLOCK_SITES = 16384


def discrete_affine_integrate(nu: LatticeField, f0) -> LatticeField:
    """Integrate the affine difference system from the corner value f0.

    Increments are D1 = bnu x T1 bnu along axis 1 and D2 = -(bnu x T2 bnu)
    along axis 2, accumulated along the canonical path (axis 1 first).
    Requires the Moutard closure condition; when it fails the plaquette
    sums depend on the path and the worst cell is reported.  The condition
    is checked in row blocks of about ``_CLOSURE_BLOCK_SITES`` plaquettes,
    with the error of one check over the whole lattice.
    """
    if nu.ncomp != 3:
        raise DomainError("affine integration needs a 3-component conormal")
    v = nu.values
    blocks = (moutard_residual(LatticeField(values=v[r.start : r.stop + 1]))
              for r in _row_blocks((len(v) - 1, nu.extent[1] - 1), _CLOSURE_BLOCK_SITES))
    _check_closure(blocks, LATTICE_TOL, "Moutard closure violated", "plaquette")
    return LatticeField(values=_lelieuvre_sum(v, f0))


def lift_to_projective(pairn: DiscreteSurfacePair) -> DiscreteSurfacePair:
    """Homogeneous lift of an affine pair: f = (bf, -1), nu = (bnu, <bf, bnu>)."""
    if pairn.gauge != "affine":
        raise DomainError("lift_to_projective expects an affine pair")
    f4, nu4 = _homogeneous_lift(pairn.f.values, pairn.nu.values)
    return DiscreteSurfacePair(nu=LatticeField(values=nu4), f=LatticeField(values=f4))


def _span_residual(basis, rhs):
    """Coefficients of rhs in the pointwise span of the basis, and its
    relative distance from it."""
    return _Span(basis, "rank-deficient basis in lattice span test").fit(rhs)


def _lattice_compat(nu: LatticeField, tolerance):
    """Coefficients (A, B, C) of nu11 = A nu12 + B nu1 + C nu at the row
    sites and of nu22 = A nu12 + B nu2 + C nu at the column sites.

    Raises NotCompatibleError at the worst site of the first system whose
    span residual is above ``tolerance`` or not finite.
    """
    v = nu.values
    if min(nu.extent) < 3:
        raise BoundaryError("the lattice compatibility system needs at least a 3x3 lattice")
    fits = [_span_residual([v[1:-1, 1:], v[1:-1, :-1], v[:-2, :-1]], v[2:, :-1]),
            _span_residual([v[1:, 1:-1], v[:-1, 1:-1], v[:-1, :-2]], v[:-1, 2:])]
    for name, (_, resid) in zip(("nu11", "nu22"), fits):
        _check_residual(resid, tolerance, lambda site, r: NotCompatibleError(
            f"lattice fails the compatibility span test of {name} at site {site} (residual {r:.3e})"))
    return [coeff for coeff, _ in fits]


def discrete_scale_propagate(nu: LatticeField, s0: float) -> LatticeField:
    """Normalized surface lattice f = [nu, T1 nu, T2 nu] / s.

    The scalar s = <T1 f, T2 nu> obeys the two-step recursions

        s(n) s(n + e1) =  det|nu2, nu1, nu11, nu12|(n),
        s(n) s(n + e2) = -det|nu1, nu2, nu22, nu12|(n),

    which follow from the shifted pairing laws of the defining system.
    s is propagated along the first column and then along rows; the
    unused recursion is re-checked on the result and any disagreement is
    a gauge obstruction.  The conormal must pass the compatibility span
    test first (incompatible data admits no normalization at all).
    """
    if nu.ncomp != 4:
        raise DomainError("scale propagation needs a 4-component conormal")
    if s0 == 0:
        raise DomainError("s0 must be nonzero")
    _lattice_compat(nu, SCALE_TOL)
    v = nu.values
    w1, w2 = nu.extent[0] - 1, nu.extent[1] - 1
    mvec = cross_n([v[:-1, :-1], v[1:, :-1], v[:-1, 1:]])  # (w1, w2, 4)
    # row recursion dets at (n1, n2); the nu11 column needs n1+2 in range
    rowdet = np.asarray(
        det_n([v[:-2, 1 : w2 + 1], v[1:-1, :w2], v[2:, :w2], v[1:-1, 1 : w2 + 1]]), dtype=float
    )
    coldet = -np.asarray(
        det_n([v[1 : w1 + 1, :-2], v[:w1, 1:-1], v[:w1, 2:], v[1 : w1 + 1, 1:-1]]), dtype=float
    )
    s = np.empty((w1, w2))
    s[0, 0] = float(s0)
    for i in range(w1 - 1):
        if abs(s[i, 0]) < 1e-300 or abs(rowdet[i, 0]) < 1e-300:
            raise DegeneratePointError(f"vanishing determinant in row recursion at site ({i}, 0)")
        s[i + 1, 0] = rowdet[i, 0] / s[i, 0]
    for j in range(w2 - 1):
        if np.any(np.abs(s[:, j]) < 1e-300) or np.any(np.abs(coldet[:, j]) < 1e-300):
            raise DegeneratePointError(f"vanishing determinant in column recursion at column {j}")
        s[:, j + 1] = coldet[:, j] / s[:, j]
    # cross-check: the row recursion must also hold away from column 0
    lhs = s[:-1, :] * s[1:, :]
    rhs = rowdet[: w1 - 1, :]
    gap = np.abs(_scalar_gap(lhs, rhs, np.abs(lhs) + np.abs(rhs)))
    _check_residual(gap, SCALE_TOL, lambda site, r: GaugeObstructionError(
        f"row and column scale propagation disagree at site {site} (residual {r:.3e})"))
    return LatticeField(values=mvec / s[..., None])


def _proj_windows(pairn):
    fv, nv = pairn.f.values, pairn.nu.values
    f = fv[:-1, :-1]
    f1 = fv[1:, :-1]
    f2 = fv[:-1, 1:]
    f12 = fv[1:, 1:]
    n = nv[:-1, :-1]
    n1 = nv[1:, :-1]
    n2 = nv[:-1, 1:]
    n12 = nv[1:, 1:]
    return f, f1, f2, f12, n, n1, n2, n12


def discrete_residual(pairn: DiscreteSurfacePair, report=None) -> InvariantReport:
    """Residuals of the defining lattice relations and their pairing laws.

    Like every suite, it adds its records to ``report`` when one is given
    (an InvariantReport, or a ResidualTile to keep the fields unreduced)
    and to a new InvariantReport otherwise, and returns that report.  An
    affine pair is lifted to homogeneous coordinates here.
    """
    if pairn.gauge != "projective":
        pairn = lift_to_projective(pairn)
    f, f1, f2, f12, n, n1, n2, n12 = _proj_windows(pairn)
    rep = InvariantReport(metadata={"gauge": "projective", "extent": list(pairn.extent)}) if report is None else report
    rep.add("bivector_1", _bivector_gap(wedge2(f, f1), star_of_wedge([n, n1])), LATTICE_TOL)
    rep.add("bivector_2", _bivector_gap(wedge2(f, f2), -star_of_wedge([n, n2])), LATTICE_TOL)
    for name, a, b in (("<f,nu>", f, n), ("<f1,nu>", f1, n), ("<f2,nu>", f2, n), ("<f,nu1>", f, n1),
                       ("<f,nu2>", f, n2)):
        rep.add(name, _pairing_gap(a, b), LATTICE_TOL)
    for name, a, b, c, d in (
        ("<f1,nu2>-<f2,nu1>", f1, n2, f2, n1),
        ("<f,nu12>-<f12,nu>", f, n12, f12, n),
    ):
        # scale by the factor norms: both pairings can cancel to near zero
        rep.add(name, _scalar_gap(pair(a, b), pair(c, d), _norm(a) * _norm(b) + _norm(c) * _norm(d)), LATTICE_TOL)
    return rep


def discrete_det_invariance(pairn: DiscreteSurfacePair, report=None) -> InvariantReport:
    """Equality of the four-point volume on both sides of the map.

    Projective: det|f, f1, f2, f12| = det|nu, nu1, nu2, nu12|.  In the
    affine gauge additionally the factorized form
    det|bf1-bf, bf2-bf, bf12-bf| = det|bnu, bnu1, bnu12| det|bnu, bnu1, bnu2|,
    and the projective form on the homogeneous lift of the affine pair, made
    here once the affine temporaries are gone.  Adds to ``report`` when one
    is given (as ``discrete_residual`` does).
    """
    rep = InvariantReport(metadata={"gauge": pairn.gauge}) if report is None else report
    if pairn.gauge == "affine":
        bf, bn = pairn.f.values, pairn.nu.values
        e1 = bf[1:, :-1] - bf[:-1, :-1]
        e2 = bf[:-1, 1:] - bf[:-1, :-1]
        e12 = bf[1:, 1:] - bf[:-1, :-1]
        dl = det_n([e1, e2, e12])
        dr = det_n([bn[:-1, :-1], bn[1:, :-1], bn[1:, 1:]]) * det_n([bn[:-1, :-1], bn[1:, :-1], bn[:-1, 1:]])
        # both dets can cancel below their factor scale; normalize by it
        scale = np.maximum(
            _norm_product(e1, e2, e12),
            _norm(bn[:-1, :-1]) ** 2 * _norm(bn[1:, :-1]) ** 2 * _norm(bn[1:, 1:]) * _norm(bn[:-1, 1:]),
        )
        gap = _scalar_gap(dl, dr, np.maximum(np.maximum(np.abs(dl), np.abs(dr)), scale))
        del e1, e2, e12, dl, dr, scale
        rep.add("affine_volume_factorization", gap, LATTICE_TOL)
        pairn = lift_to_projective(pairn)
    f, f1, f2, f12, n, n1, n2, n12 = _proj_windows(pairn)
    df = np.asarray(det_n([f, f1, f2, f12]), dtype=float)
    dn = np.asarray(det_n([n, n1, n2, n12]), dtype=float)
    scale = np.maximum(
        _norm_product(f, f1, f2, f12),
        _norm_product(n, n1, n2, n12),
    )
    rep.add("volume_invariance", _scalar_gap(df, dn, np.maximum(np.maximum(np.abs(df), np.abs(dn)), scale)),
            LATTICE_TOL)
    return rep


def _omega_identities(pairn: DiscreteSurfacePair, report, rows=None):
    """Add the three Omega determinant identities of ``discrete_forms`` for
    an affine pair to ``report``.

    Each field is anchored at the base site of its stencil and kept on the
    base rows n1 < ``rows`` (every row by default): a tile of base rows
    passes its count and the rows after them that the stencils reach, one
    for Omega2 and two for Omega3.  Returns (Omega, det, scale) of each
    identity by record name; the residual is their ``_scalar_gap``.
    """
    bf, bn = pairn.f.values, pairn.nu.values
    n = len(bf) if rows is None else rows
    # identity residuals are scaled by the pairing-factor norms, which
    # stay meaningful where both sides of the identity vanish
    f, nu = bf[: n + 1], bn[: n + 1]
    a, b = f[:-1, 1:] - f[:-1, :-1], nu[1:, :-1] - nu[:-1, :-1]
    terms = {"omega2_det_identity": (pair(a, b), det_n([nu[:-1, :-1], nu[1:, :-1], nu[:-1, 1:]]), _norm(a) * _norm(b))}
    f, nu = bf[: n + 2], bn[: n + 2]
    a, b = f[2:, :] - f[:-2, :], nu[1:-1, :] - nu[:-2, :]
    terms["omega3_det_identity"] = (pair(a, b), -det_n([nu[:-2, :], nu[1:-1, :], nu[2:, :]]), _norm(a) * _norm(b))
    f, nu = bf[:n], bn[:n]
    a, b = f[:, 2:] - f[:, :-2], nu[:, 1:-1] - nu[:, :-2]
    terms["omega3tilde_det_identity"] = (pair(a, b), det_n([nu[:, :-2], nu[:, 1:-1], nu[:, 2:]]), _norm(a) * _norm(b))
    for name, (omega, d, scale) in terms.items():
        report.add(name, _scalar_gap(omega, d, scale), LATTICE_TOL)
    return terms


def discrete_forms(pairn: DiscreteSurfacePair, report=None):
    """Lattice form fields plus the report of their determinant identities.

    Omega2 = <bf2 - bf, bnu1 - bnu> (equals det|bnu, bnu1, bnu2|);
    Omega3 = <bf1 - bf_{-1}, bnu - bnu_{-1}> (equals -det|bnu_{-1}, bnu, bnu1|)
    and the tilde analog along axis 2 (equals +det|bnu_{-2}, bnu, bnu2|).
    The report metadata records the residuals of the variant determinant
    expressions with the forward index replaced along the other axis,
    which do NOT close in general.  F2d/F3d/F3dtilde are sqrt|det| of the
    homogeneous four-point determinants with signs reported separately.
    Only this function builds the F fields, for ``forms --which discrete``
    (lifting an affine pair to do so); ``verify`` checks the Omega
    identities alone, through ``_omega_identities``.
    The records and that metadata go to ``report`` when one is given (as
    ``discrete_residual`` does).
    """
    rep = InvariantReport(metadata={"gauge": pairn.gauge}) if report is None else report
    Omega2 = Omega3 = Omega3t = None
    if pairn.gauge == "affine":
        terms = _omega_identities(pairn, rep)
        (Omega2, _, _), (Omega3, _, scale3), (Omega3t, d3t, scale3t) = terms.values()
        bn = pairn.nu.values
        # variant readings with nu2 (resp. the opposite sign) in place; informational only
        v3 = -det_n([bn[:-2, :-1], bn[1:-1, :-1], bn[1:-1, 1:]])
        rep.metadata["omega3_variant_nu2_max_residual"] = float(
            np.max(np.abs(_scalar_gap(Omega3[:, :-1], v3, scale3[:, :-1])), initial=0.0)
        )
        rep.metadata["omega3tilde_variant_sign_max_residual"] = float(
            np.max(np.abs(_scalar_gap(Omega3t, -d3t, scale3t)), initial=0.0)
        )
        pairn = lift_to_projective(pairn)
    fv = pairn.f.values
    f, f1, f2, f12, *_ = _proj_windows(pairn)
    # the determinants of F2d, F3d and F3dtilde
    dets = [np.asarray(det_n(vecs), dtype=float) for vecs in ([f, f1, f2, f12],
            [fv[:-3, :], fv[1:-2, :], fv[2:-1, :], fv[3:, :]], [fv[:, :-3], fv[:, 1:-2], fv[:, 2:-1], fv[:, 3:]])]
    return DiscreteForms(Omega2, Omega3, Omega3t, *(np.sqrt(np.abs(d)) for d in dets), *(np.sign(d) for d in dets)), rep


def discrete_compat_coeffs(nu: LatticeField, f: Optional[LatticeField] = None) -> DiscreteCompat:
    """Solve the lattice compatibility system per site.

    nu11 = A1 nu12 + B1 nu1 + C1 nu over sites with (n1+2, n2+1) inside,
    nu22 = A2 nu12 + B2 nu2 + C2 nu over sites with (n1+1, n2+2) inside.
    With the dual lattice supplied, A and C are compared against their
    pairing quotients -<f11,nu>/<f12,nu> etc.
    """
    if nu.ncomp != 4:
        raise DomainError("compatibility coefficients need a 4-component conormal")
    c1, c2 = _lattice_compat(nu, SPAN_TOL)
    v = nu.values
    out = DiscreteCompat(
        A1=c1[..., 0], B1=c1[..., 1], C1=c1[..., 2],
        A2=c2[..., 0], B2=c2[..., 1], C2=c2[..., 2],
    )
    if f is not None:
        if f.ncomp != 4 or f.extent != nu.extent:
            raise DomainError("dual lattice must match the conormal extent with 4 components")
        fv = f.values
        p12_r = pair(fv[1:-1, 1:], v[:-2, :-1])
        p12_c = pair(fv[1:, 1:-1], v[:-1, :-2])
        # the sign of the C2 quotient is pinned by pairing the nu22 relation
        # with f12 (all other pairings vanish), not guessed
        quotients = {"a1": (out.A1, -pair(fv[2:, :-1], v[:-2, :-1]) / p12_r),
                     "c1": (out.C1, pair(fv[2:, :-1], v[1:-1, 1:]) / p12_r),
                     "a2": (out.A2, -pair(fv[:-1, 2:], v[:-1, :-2]) / p12_c),
                     "c2": (out.C2, pair(fv[:-1, 2:], v[1:, 1:-1]) / p12_c)}
        for key, (x, y) in quotients.items():
            # absolute below unit scale, relative above (coefficients are O(1))
            setattr(out, f"{key}_pairing_residual", np.abs(_scalar_gap(x, y, np.maximum(np.abs(x) + np.abs(y), 1.0))))
    return out


def affine_sphere_check(pairn: DiscreteSurfacePair) -> InvariantReport:
    """Residual of the affine-sphere normalization <bf, bnu> = 1."""
    if pairn.gauge != "affine":
        raise DomainError("affine_sphere_check expects an affine pair")
    rep = InvariantReport(metadata={"gauge": "affine"})
    rep.add("<bf,bnu>-1", _dot(pairn.f.values, pairn.nu.values) - 1.0, LATTICE_TOL)
    return rep
