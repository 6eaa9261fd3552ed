"""Surface/conormal correspondence for smooth surfaces in P3.

Two charts are supported.  In the asymptotic chart the defining relations
are ``f ^ f_x = *(nu ^ nu_x)`` and ``f ^ f_y = -*(nu ^ nu_y)``; in the
conjugate-line (elliptic) chart they are ``f ^ f_x = -*(nu ^ nu_y)`` and
``f ^ f_y = *(nu ^ nu_x)``: the n = 2 hypersurface system of ``hyper`` with
the chart's matrix ``_CHART_A[chart]``, which ``plm_residual`` hands to that
module's one kernel.  The module reconstructs the surface point with that
module's one reconstruction kernel, runs the inverse map by symmetry, and
turns each identity of the correspondence (orthogonality relations,
determinant invariance, quadratic/cubic form expressions, compatibility
systems) into a residual report.  Like the hyper suites, every suite takes
``JetGrid``s; third-order jets add the cubic forms and determinants.

All reconstruction radicals take the positive square root; the resulting
global sign of f is projectively irrelevant because every defining
relation is quadratic in f.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChartMismatchError, DegeneratePointError, DomainError, NotCompatibleError
from .fields import JetGrid
from .hyper import AMatrix, _defining_system, _params, _reconstruct
from .multilinear import _degeneracy_bound, _norm, _norm_product, _pairing_gap, _scalar_gap, _Span, det_n, pair
from .report import SMOOTH_TOL, SPAN_TOL, InvariantReport, _check_residual

__all__ = [
    "ChartKind",
    "FubiniForms",
    "AsymptoticCompat",
    "ConjugateCompat",
    "reconstruct_point_alt",
    "reconstruct_field",
    "plm_residual",
    "orthogonality_report",
    "det_invariance_report",
    "fubini_forms",
    "compat_coeffs",
    "det_families",
]


class ChartKind(enum.Enum):
    ASYMPTOTIC = "asymptotic"
    CONJUGATE = "conjugate"


# Each chart's weight matrix A in f ^ f_{x_a} = sum_b A[a, b] * star(slot b),
# whose slot stars are star(nu ^ nu_y) and star(nu_x ^ nu)
_CHART_A = {ChartKind.ASYMPTOTIC: AMatrix([[0.0, -1.0], [-1.0, 0.0]]), ChartKind.CONJUGATE: AMatrix(-np.eye(2))}


def _jets(obj):
    if not isinstance(obj, JetGrid):
        raise DomainError(f"expected a JetGrid, got {type(obj).__name__} (fields.jet_grid takes the jets of a grid)")
    return obj


def _bad_sites(radicand, bound, messages=None):
    """The sites whose radicand is not above ``bound``.  Given ``messages``, the
    first in C order raises, named by its index in the batch: DegeneratePointError
    (messages[0]) where |radicand| <= bound, else ChartMismatchError (messages[1]
    formatted with the radicand)."""
    bad = ~(radicand > bound)
    if messages and np.any(bad):
        site = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        at = f" at grid index {site}" if site else ""
        if abs(radicand[site]) <= bound[site]:
            raise DegeneratePointError(messages[0] + at)
        raise ChartMismatchError(messages[1].format(radicand[site]) + at)
    return bad


def reconstruct_point_alt(jet: JetGrid, axis: str):
    """Single-coordinate reconstruction from third-order data.

    axis 'x': f = -cross(v, v_x, v_xx) / sqrt(det|v, v_x, v_xx, v_xxx|);
    axis 'y': the analogous formula where the valid radicand is
    -det|v, v_y, v_yy, v_yyy|.  Asymptotic chart only.  Jets of any batch
    shape; the first bad site raises, as in ``reconstruct_field(strict=True)``.
    """
    if _jets(jet).order < 3:
        raise DomainError("reconstruct_point_alt needs third derivatives")
    if axis not in ("x", "y"):
        raise DomainError("axis must be 'x' or 'y'")
    a, w = (0, 1) if axis == "x" else (1, -1)
    f, det, bound = _reconstruct([jet.value, jet.d1[a], jet.partial2(a, a)], jet.d3[a], w)
    _bad_sites(det / w, bound, ("degenerate third-order discriminant (ruled/quadric locus)",
                                f"wrong-sign radicand {{:.3e}} for axis {axis}"))
    return -f


def reconstruct_field(jets, chart: ChartKind, strict: bool = False):
    """Surface points cross(v, v_x, v_y) / sqrt(det) from conormal jets of any
    batch shape: det is det|v, v_x, v_y, v_xy| in the asymptotic chart and
    det|v, v_x, v_y, v_xx| in the conjugate chart, so f is minus the n = 2
    ``hyper_reconstruct`` with the chart's ``_CHART_A`` and pivot (1, 2) or
    (1, 1), whose weight is 1.  Applied to surface jets it gives the conormal.

    Returns (f, degenerate_mask); degenerate or chart-mismatched points
    are NaN in f.  With ``strict`` the first bad point in C order raises.
    """
    jet = _jets(jets)
    last = jet.d_xy if chart is ChartKind.ASYMPTOTIC else jet.d_xx
    f, det, bound = _reconstruct([jet.value, *jet.d1], last, 1)
    bad = _bad_sites(det, bound, ("degenerate point", "negative discriminant") if strict else None)
    return np.where(bad[..., None], np.nan, f), bad


def _pair_jets(f_obj, nu_obj):
    fj, nj = _jets(f_obj), _jets(nu_obj)
    if fj.shape != nj.shape:
        raise DomainError(f"grid mismatch: {fj.shape} vs {nj.shape}")
    if fj.shape[0] == 0 or fj.shape[1] == 0:
        raise DomainError("empty interior")
    _params(fj, nj)
    return fj, nj


def _report(report, chart):
    return InvariantReport(metadata={"chart": chart.value}) if report is None else report


def plm_residual(f_obj, nu_obj, chart: ChartKind, report=None):
    """Residual of the two defining bivector relations, normalized by the
    pointwise bivector magnitude: the hypersurface system with the chart's
    matrix, records ``bivector_x`` and ``bivector_y``.

    Like every suite, it adds its records to ``report`` when one is given
    (an InvariantReport, or a ResidualTile to keep the fields of one tile)
    and to a new InvariantReport otherwise, and returns that report.
    """
    fj, nj = _pair_jets(f_obj, nu_obj)
    rep = _report(report, chart)
    _defining_system(fj, nj, _CHART_A[chart].values, ("bivector_x", "bivector_y"), SMOOTH_TOL, rep)
    return rep


def orthogonality_report(f_obj, nu_obj, chart: ChartKind, report=None):
    """Vanishing-pairing relations of the correspondence."""
    fj, nj = _pair_jets(f_obj, nu_obj)
    rep = _report(report, chart)

    # floor the scale at |f||nu| so a jet that vanishes identically (and is
    # pure roundoff under finite differences) does not divide noise by noise
    floor = _norm(fj.value) * _norm(nj.value)

    def add(name, a, b):
        rep.add(name, _pairing_gap(a, b, floor), SMOOTH_TOL)

    if chart is ChartKind.ASYMPTOTIC:
        add("<f_x,nu>", fj.d_x, nj.value)
        add("<f_x,nu_x>", fj.d_x, nj.d_x)
        add("<f_xx,nu>", fj.d_xx, nj.value)
        add("<f,nu_xx>", fj.value, nj.d_xx)
        add("<f_xx,nu_xx>", fj.d_xx, nj.d_xx)
        add("<f_y,nu>", fj.d_y, nj.value)
        add("<f_y,nu_y>", fj.d_y, nj.d_y)
        add("<f_yy,nu>", fj.d_yy, nj.value)
        add("<f,nu_yy>", fj.value, nj.d_yy)
        add("<f_yy,nu_yy>", fj.d_yy, nj.d_yy)
    else:
        add("<f,nu_x>", fj.value, nj.d_x)
        add("<f_x,nu>", fj.d_x, nj.value)
        add("<f,nu_y>", fj.value, nj.d_y)
        add("<f_y,nu>", fj.d_y, nj.value)
        add("<f_x,nu_y>", fj.d_x, nj.d_y)
        add("<f_y,nu_x>", fj.d_y, nj.d_x)
        add("<f_xy,nu>", fj.d_xy, nj.value)
        add("<f,nu_xy>", fj.value, nj.d_xy)
        # equality of the two diagonal pairings (these do not vanish)
        a = pair(fj.d_x, nj.d_x)
        b = pair(fj.d_y, nj.d_y)
        rep.add("<f_x,nu_x>-<f_y,nu_y>", _scalar_gap(a, b, np.abs(a) + np.abs(b)), SMOOTH_TOL)
    return rep


def det_families(jets, which: str):
    """The determinant families entering the invariance identities.

    which = 'mixed'  -> det|v, v_x, v_y, v_xy|
            'xx'     -> det|v, v_x, v_xx, v_xxx|   (needs order 3)
            'yy'     -> det|v, v_y, v_yy, v_yyy|   (needs order 3)
            'conj_xx'-> det|v, v_x, v_y, v_xx|
            'conj_yy'-> det|v, v_x, v_y, v_yy|
    """
    slots = {"mixed": ("d_x", "d_y", "d_xy"), "xx": ("d_x", "d_xx", "d_xxx"), "yy": ("d_y", "d_yy", "d_yyy"),
             "conj_xx": ("d_x", "d_y", "d_xx"), "conj_yy": ("d_x", "d_y", "d_yy")}
    if which not in slots:
        raise DomainError(f"unknown determinant family {which!r}")
    if which in ("xx", "yy") and jets.d_xxx is None:
        raise DomainError(f"family {which!r} needs third-order jets")
    return np.asarray(det_n([jets.value, *(getattr(jets, slot) for slot in slots[which])]), dtype=float)


def det_invariance_report(f_obj, nu_obj, chart: ChartKind, report=None):
    """Determinant invariance (asymptotic: equal; conjugate: sign-flipped,
    plus the vanishing mixed determinant and equality of the xx/yy
    determinants, which follows from the equal diagonal pairings).  The
    asymptotic xx and yy families are checked on third-order jets only."""
    fj, nj = _pair_jets(f_obj, nu_obj)
    rep = _report(report, chart)
    if chart is ChartKind.ASYMPTOTIC:
        third = ("xx", "yy") if fj.d_xxx is not None else ()
        families = [(f"det_{w}_invariance", w, False) for w in ("mixed", *third)]
    else:
        families = [(f"det_{w}_sign_flip", w, True) for w in ("conj_xx", "conj_yy")]
    for name, which, flip in families:
        df, dn = det_families(fj, which), det_families(nj, which)
        scale = np.maximum(np.maximum(np.abs(df), np.abs(dn)), 1.0)
        rep.add(name, _scalar_gap(df, -dn if flip else dn, scale), SMOOTH_TOL)
    if chart is ChartKind.CONJUGATE:
        dmix = det_families(nj, "mixed")
        rep.add("det_mixed_vanishes", _scalar_gap(dmix, 0.0, _norm_product(nj.value, nj.d_x, nj.d_y, nj.d_xy)),
                SMOOTH_TOL)
        dxx = det_families(nj, "conj_xx")
        dyy = det_families(nj, "conj_yy")
        rep.add("det_xx_yy_equal", _scalar_gap(dxx, dyy, np.maximum(np.abs(dxx), np.abs(dyy))), SMOOTH_TOL)
    return rep


@dataclass
class FubiniForms:
    """Coefficients of the quadratic and the two cubic invariant forms."""

    F2_coeff: np.ndarray
    F3_coeff: Optional[np.ndarray]
    F3tilde_coeff: Optional[np.ndarray]


def fubini_forms(f_obj, nu_obj) -> FubiniForms:
    """Projective form coefficients in the asymptotic chart.

    F2 = 2 <f_x, nu_y>.  F3 = sign(<f_x, nu_xx>) * sqrt(det|nu, nu_x,
    nu_xx, nu_xxx|) and F3~ analogously with -det|nu, nu_y, nu_yy,
    nu_yyy|; the sign source is the derivation's pairing (the printed
    third line of the form table uses a first-order pairing instead,
    which is inconsistent with the derivation and not used here).
    Cubic coefficients need third-order jets and are None otherwise.
    """
    fj, nj = _pair_jets(f_obj, nu_obj)
    F2 = 2.0 * np.asarray(pair(fj.d_x, nj.d_y), dtype=float)
    F3 = F3t = None
    if nj.d_xxx is not None:
        det = det_families(nj, "xx")
        if np.any(det < -_degeneracy_bound(_norm_product(nj.value, nj.d_x, nj.d_xx, nj.d_xxx))):
            raise ChartMismatchError("det|nu,nu_x,nu_xx,nu_xxx| < 0: not an asymptotic chart for F3")
        F3 = np.sign(pair(fj.d_x, nj.d_xx)) * np.sqrt(np.maximum(det, 0.0))
        det = det_families(nj, "yy")
        if np.any(det > _degeneracy_bound(_norm_product(nj.value, nj.d_y, nj.d_yy, nj.d_yyy))):
            raise ChartMismatchError("det|nu,nu_y,nu_yy,nu_yyy| > 0: wrong-sign radicand for F3~")
        F3t = np.sign(pair(fj.d_y, nj.d_yy)) * np.sqrt(np.maximum(-det, 0.0))
    return FubiniForms(F2_coeff=F2, F3_coeff=F3, F3tilde_coeff=F3t)


def _solve_span(span, rhs, tolerance, what):
    """Least-squares coefficients of rhs in a factored ``_Span``, and the
    relative residual orthogonal to it.

    Raises NotCompatibleError, naming ``what``, when the residual at some
    point is above ``tolerance`` or not finite.
    """
    coeff, resid = span.fit(rhs)
    _check_residual(resid, tolerance, lambda site, r: NotCompatibleError(
        f"{what}: span residual {r:.3e} exceeds {tolerance:.1e} (input is not a compatible conormal)"))
    return coeff, resid


def _solve_spans(basis, tolerance, *systems):
    """Coefficients of each (rhs, what) system in one basis, factored once;
    a rank-deficient basis is reported under the first system's name."""
    span = _Span(basis, f"rank-deficient span while solving {systems[0][1]}")
    return [_solve_span(span, rhs, tolerance, what)[0] for rhs, what in systems]


@dataclass
class AsymptoticCompat:
    """Coefficients of the second-derivative span systems, asymptotic chart."""

    U1: np.ndarray
    V1: np.ndarray
    W1: np.ndarray
    U2: np.ndarray
    V2: np.ndarray
    W2: np.ndarray
    Wt1: Optional[np.ndarray] = None
    Wt2: Optional[np.ndarray] = None
    v1_sq_residual: Optional[np.ndarray] = None
    u2_sq_residual: Optional[np.ndarray] = None


@dataclass
class ConjugateCompat:
    """Coefficients of the mixed/trace span systems, conjugate chart."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    Ut: np.ndarray
    Vt: np.ndarray
    C: np.ndarray
    Wt: Optional[np.ndarray] = None
    Ct: Optional[np.ndarray] = None


def compat_coeffs(nu_obj, chart: ChartKind, f_obj=None):
    """Per-point compatibility coefficients of the conormal field.

    Asymptotic chart: v_xx = U1 v_x + V1 v_y + W1 v and v_yy = U2 v_x +
    V2 v_y + W2 v, with the squared-coefficient/determinant-ratio checks
    attached (these need third-order jets).  Conjugate chart: v_xy =
    U v_x + V v_y + W v and v_yy - v_xx = -2 Vt v_x + 2 Ut v_y + C v.
    Supplying the dual field adds the coefficients only visible on it.
    """
    nj = _jets(nu_obj)
    fj = None if f_obj is None else _jets(f_obj)
    basis = [nj.d_x, nj.d_y, nj.value]
    if chart is ChartKind.ASYMPTOTIC:
        c1, c2 = _solve_spans(basis, SPAN_TOL, (nj.d_xx, "nu_xx in span{nu_x, nu_y, nu}"),
                              (nj.d_yy, "nu_yy in span{nu_x, nu_y, nu}"))
        out = AsymptoticCompat(
            U1=c1[..., 0], V1=c1[..., 1], W1=c1[..., 2],
            U2=c2[..., 0], V2=c2[..., 1], W2=c2[..., 2],
        )
        if nj.d_xxx is not None:
            dmix = det_families(nj, "mixed")
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio1 = det_families(nj, "xx") / dmix
                ratio2 = -det_families(nj, "yy") / dmix
            for name, c, ratio in (("v1_sq_residual", out.V1, ratio1), ("u2_sq_residual", out.U2, ratio2)):
                setattr(out, name, np.abs(_scalar_gap(c**2, ratio, np.maximum(np.abs(c) ** 2 + np.abs(ratio), 1e-12))))
        if fj is not None:
            d1, d2 = _solve_spans([fj.d_x, fj.d_y, fj.value], SPAN_TOL, (fj.d_xx, "f_xx in span{f_x, f_y, f}"),
                                  (fj.d_yy, "f_yy in span{f_x, f_y, f}"))
            out.Wt1 = d1[..., 2]
            out.Wt2 = d2[..., 2]
        return out
    cm, ct = _solve_spans(basis, SPAN_TOL, (nj.d_xy, "nu_xy in span{nu_x, nu_y, nu}"),
                          (nj.d_yy - nj.d_xx, "nu_yy - nu_xx in span{nu_x, nu_y, nu}"))
    out = ConjugateCompat(
        U=cm[..., 0], V=cm[..., 1], W=cm[..., 2],
        Vt=-0.5 * ct[..., 0], Ut=0.5 * ct[..., 1], C=ct[..., 2],
    )
    if fj is not None:
        dm, dt = _solve_spans([fj.d_x, fj.d_y, fj.value], SPAN_TOL, (fj.d_xy, "f_xy in span{f_x, f_y, f}"),
                              (fj.d_yy - fj.d_xx, "f_yy - f_xx in span{f_x, f_y, f}"))
        out.Wt = dm[..., 2]
        out.Ct = dt[..., 2]
    return out
