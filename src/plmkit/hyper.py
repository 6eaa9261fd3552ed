"""Surface/conormal correspondence for hypersurfaces in P^{n+1}, n <= 4.

The defining system couples each coordinate direction through an n x n
weight matrix A:

    f ^ f_{x_a} = sum_b A[a, b] * star(nu_{x_1} ^ ... ^ nu[slot b] ^ ... ^ nu_{x_n})

where the b-th wedge factor is nu itself and the others are the first
partials.  For n = 2 this is the surface system: ``smooth.plm_residual``
runs this module's one kernel, ``_defining_system``, with A = [[0, -1],
[-1, 0]] in the asymptotic chart and -I in the conjugate chart.

The module reconstructs f from a second-order conormal jet with the one
reconstruction kernel, ``_reconstruct``, which ``smooth`` runs too, recovers
A from a dual pair, and reports the defining-system, pairing and
compatibility residuals.  The sign convention of A is fixed by the round-trip
law: ``recover_A`` followed by ``hyper_reconstruct`` must reproduce f
projectively, and the recovered A must zero the defining residual.

Jets are the :class:`~plmkit.fields.JetGrid` of every other module: the
code reads the first partials ``d1[a]`` and the second partials of the
packed ``d2`` through ``partial2(a, c)``.  ``fields.jet_grid`` computes
them from a sampled :class:`~plmkit.fields.FieldGrid` over n axes, the one
grid type of the package, and the n = 2 jets of a surface serve as they
are.  ``read_hyper_grid`` and ``write_hyper_grid`` store such a grid with
the coordinate columns x1..xn.
"""

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegeneratePointError, DomainError, PivotMismatchError
from .fields import FieldGrid, JetGrid, _names, _numbered_axes, _read_table, _write_table
from .multilinear import (
    _bivector_gap, _degeneracy_bound, _dot, _norm, _norm_product, _pairing_gap, _Span, cross_n, det_n, pair,
    star_of_wedge, wedge2,
)
from .report import HYPER_TOL, InvariantReport

__all__ = [
    "AMatrix",
    "hyper_reconstruct",
    "recover_A",
    "hyper_plm_residual",
    "hyper_compat_residual",
    "read_hyper_grid",
    "write_hyper_grid",
    "read_amatrix_field",
    "write_amatrix_field",
]

_MAX_N = 4


@dataclass(frozen=True)
class AMatrix:
    """Constant n x n weight matrix of the defining system; det != 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DomainError("AMatrix must be square")
        n = v.shape[0]
        if not 2 <= n <= _MAX_N:
            raise DomainError(f"AMatrix size must be in 2..{_MAX_N}, got {n}")
        if not np.all(np.isfinite(v)):
            raise DomainError("AMatrix contains non-finite entries")
        if abs(np.linalg.det(v)) <= 1e-12 * max(np.abs(v).max(), 1e-300) ** n:
            raise DomainError("AMatrix is singular (det A = 0)")

    @property
    def n(self):
        return self.values.shape[0]


def _a_values(A, n, shape):
    """Normalize an AMatrix, or a finite (n, n) or per-point (*shape, n, n)
    array of weights for jets of batch ``shape``."""
    v = A.values if isinstance(A, AMatrix) else np.asarray(A, dtype=float)
    if v.shape[-2:] != (n, n):
        raise DomainError(f"weight matrix shape {v.shape[-2:]} does not match n = {n}")
    if v.ndim > 2 and v.shape[:-2] != shape:
        raise DomainError(f"weight matrices of batch shape {v.shape[:-2]} do not fit jets of batch shape {shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("weight matrix contains non-finite entries")
    return v


def _params(*jets):
    """The parameter count n that the jets share; each must have n + 2 components."""
    n = jets[-1].n
    if any(jet.n != n for jet in jets):
        raise DomainError("f and nu jets disagree on the number of parameters")
    if any(jet.value.shape[-1] != n + 2 for jet in jets):
        raise DomainError(f"hypersurface jets in {n} parameters need {n + 2} components")
    return n


def _slot_star(jet: JetGrid, beta):
    """star(nu_{x_1} ^ ... ^ nu in slot beta ^ ... ^ nu_{x_n}), 0-based beta."""
    vecs = [jet.value if a == beta else jet.d1[a] for a in range(jet.n)]
    return star_of_wedge(vecs)


def _reconstruct(frame, last, w):
    """The one reconstruction f = cross_n(frame) / sqrt(det / w), det = det|frame,
    last|, for n + 1 vectors ``frame`` and a weight ``w`` (scalar or per site),
    the root taken as sqrt(sign(w) det) / sqrt(|w|) so that no det / w over- or
    underflows.  Returns (f, det, bound): f is NaN where det / w < 0, and
    |det| at or below ``bound`` is degenerate.  What over- or underflows here
    is judged by the caller's test of det against the bound, so numpy's
    warnings are off; the error state is per thread."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = np.asarray(det_n([*frame, last]), dtype=float)
        f = cross_n(frame) / (np.sqrt(np.sign(w) * det) / np.sqrt(np.abs(w)))[..., None]
        return f, det, _degeneracy_bound(_norm_product(*frame, last))


def hyper_reconstruct(jet: JetGrid, A, pivot=(1, 1)):
    """Surface point from a conormal jet and weight matrix.

    f = -sqrt(A[a, c] / det|nu_{x_a x_c}, nu, nu_{x_1}, ..., nu_{x_n}|)
        * [nu, nu_{x_1}, ..., nu_{x_n}]

    with a 1-based ``pivot`` (a, c), two integers: ``_reconstruct`` with the
    weight (-1)^(n+1) A[a, c], nu_{x_a x_c} moved last.  When the compatibility
    system holds the result does not depend on the pivot; that is something
    to verify on data, not an assumption made here.
    """
    n = _params(jet)
    try:
        a, c = (operator.index(i) for i in pivot)
    except (TypeError, ValueError):
        raise DomainError(f"pivot {pivot!r} must be two integers in 1..{n}") from None
    if not (1 <= a <= n and 1 <= c <= n):
        raise DomainError(f"pivot {pivot} out of range 1..{n}")
    w = (-1) ** (n + 1) * _a_values(A, n, jet.shape)[..., a - 1, c - 1]
    f, det, bound = _reconstruct([jet.value, *jet.d1], jet.partial2(a - 1, c - 1), w)
    if not np.all(np.abs(det) > bound):  # a NaN bound (inf * 0 norms) or det included
        raise DegeneratePointError(f"degenerate pivot determinant for pivot {pivot}")
    if not np.all(np.sign(w) * det > 0):
        raise PivotMismatchError(f"negative radicand A{pivot}/det at pivot {pivot}; choose another pivot")
    return -f


def recover_A(f_jet: JetGrid, nu_jet: JetGrid):
    """Weight matrix from a dual pair of jets.

    From the pairing law  <f_{x_a}, nu_{x_c}> f = -A[a, c] [nu, nu_{x_1},
    ..., nu_{x_n}]  projected on the cross-product direction:
    A[a, c] = -<f_{x_a}, nu_{x_c}> <f, m> / <m, m>.  Returns an (..., n, n)
    array (an AMatrix for single-point input would lose the batch).
    """
    n = _params(f_jet, nu_jet)
    m = cross_n([nu_jet.value, *nu_jet.d1])
    mm = _dot(m, m)
    if np.any(np.sqrt(mm) <= _degeneracy_bound(_norm_product(nu_jet.value, *nu_jet.d1))):
        raise DegeneratePointError("conormal frame is degenerate: [nu, nu_x1, ..., nu_xn] ~ 0")
    c = pair(f_jet.value, m) / mm
    rows = []
    for a in range(n):
        row = [-pair(f_jet.d1[a], nu_jet.d1[g]) * c for g in range(n)]
        rows.append(np.stack(np.broadcast_arrays(*row), axis=-1))
    return np.stack(rows, axis=-2)


def _defining_system(f_jet: JetGrid, nu_jet: JetGrid, Av, names, tolerance, report):
    """Add the ``_bivector_gap`` of f ^ f_{x_a} = sum_b Av[a, b] * star(slot b)
    to ``report`` as record ``names[a]``, for each a; ``Av`` is (n, n) or
    per-point.  A weight that is zero at every site adds no term: it costs no
    product, and a non-finite star under it does not reach the residual.

    Each star is made once and held only until its last term: that term
    scales it in place (``star *= w``, the bits of ``w * star``), an earlier
    one scales a copy.  The terms are added into the first in place."""
    uses = [[a for a in range(len(names)) if np.any(Av[..., a, b] != 0)] for b in range(nu_jet.n)]
    stars = {}  # the stars a later term reads
    for a, name in enumerate(names):
        lhs = wedge2(f_jet.value, f_jet.d1[a])
        rhs = None
        for b in (b for b in range(nu_jet.n) if a in uses[b]):
            term = stars.pop(b) if b in stars else _slot_star(nu_jet, b)
            w = Av[..., a, b, None]
            if a < uses[b][-1]:
                stars[b], term = term, w * term
            else:
                term *= w
            if rhs is None:
                rhs = term
            else:
                rhs += term
        report.add(name, _bivector_gap(lhs, np.zeros_like(lhs) if rhs is None else rhs), tolerance)


def hyper_plm_residual(f_jet: JetGrid, nu_jet: JetGrid, A, report=None):
    """Residuals of the defining bivector system and its pairing laws.

    Adds to ``report`` when one is given (as the smooth suites do).
    """
    n = _params(f_jet, nu_jet)
    if f_jet.shape != nu_jet.shape:
        raise DomainError(f"batch shape mismatch: {f_jet.shape} vs {nu_jet.shape}")
    Av = _a_values(A, n, nu_jet.shape)
    rep = InvariantReport(metadata={"n": n}) if report is None else report
    _defining_system(f_jet, nu_jet, Av, [f"bivector_x{a + 1}" for a in range(n)], HYPER_TOL, rep)
    for a in range(n):
        rep.add(f"<f_x{a + 1},nu>", _pairing_gap(f_jet.d1[a], nu_jet.value), HYPER_TOL)
        rep.add(f"<f,nu_x{a + 1}>", _pairing_gap(f_jet.value, nu_jet.d1[a]), HYPER_TOL)
    return rep


def _span_distance(span, rhs):
    """Relative distance of rhs from the pointwise span of a factored ``_Span``."""
    return span.fit(rhs)[1]


def hyper_compat_residual(nu_jet: JetGrid, A, report=None):
    """Span test of the compatibility system.

    For each index quadruple (a, b, g, d) the combination
    A[a, g] nu_{x_b x_d} - A[b, d] nu_{x_a x_g} must lie in
    span{nu, nu_{x_1}, ..., nu_{x_n}}.  A combination that is zero over the
    whole batch skips the span solve; that choice is a whole-batch one, so
    it goes through ``report.decide``.  The span basis is factored, and its
    rank checked, at the first combination that is not zero.
    """
    n = _params(nu_jet)
    Av = _a_values(A, n, nu_jet.shape)
    rep = InvariantReport(metadata={"n": n}) if report is None else report
    span = None
    for a, b, g, d in product(range(n), repeat=4):
        if (a, g) == (b, d):
            continue
        w = Av[..., a, g, None] * nu_jet.partial2(b, d) - Av[..., b, d, None] * nu_jet.partial2(a, g)
        name = f"compat_{a + 1}{b + 1}{g + 1}{d + 1}"
        size = _norm(w)
        if rep.decide(np.max(size, initial=0.0) == 0.0):
            rep.add(name, np.broadcast_to(0.0, np.shape(size)), HYPER_TOL)  # a tile keeps no bytes of it
            continue
        if span is None:
            span = _Span([nu_jet.value, *nu_jet.d1], f"rank-deficient span while testing {name}")
        rep.add(name, _span_distance(span, w), HYPER_TOL)
    return rep


def _a_names(n):
    return [f"a{i + 1}{j + 1}" for i in range(n) for j in range(n)]


def write_hyper_grid(grid: FieldGrid, path):
    """Hyper grid CSV of an (n+2)-component grid over n = 2..4 axes:
    columns x1..xn,v1..v(n+2)."""
    n = grid.n
    if not 2 <= n <= _MAX_N:
        raise DomainError(f"hyper grids have 2..{_MAX_N} parameter axes, got {n}")
    if grid.ncomp != n + 2:
        raise DomainError(f"expected {n + 2} components for {n} parameters, got {grid.ncomp}")
    with open(path, "w") as fh:
        _write_table(fh, _names("x", n) + _names("v", n + 2), grid.axes, grid.values)


def read_hyper_grid(path) -> FieldGrid:
    """Inverse of :func:`write_hyper_grid`; n is read from the header."""
    origin, spacing, values = _read_table(path, _numbered_axes(lambda n: _names("v", n + 2), 2, _MAX_N))
    return FieldGrid(origin=origin, spacing=spacing, values=values)


def write_amatrix_field(origin, spacing, field, path):
    """Per-point weight matrices as CSV x1..xn,a11..ann (row-major entries)."""
    field = np.asarray(field, dtype=float)
    n = field.shape[-1]
    if field.shape[-2:] != (n, n) or field.ndim != n + 2:
        raise DomainError("A field must have shape (N1, ..., Nn, n, n)")
    grid = FieldGrid(origin=origin, spacing=spacing, values=field.reshape(field.shape[:n] + (n * n,)))
    with open(path, "w") as fh:
        _write_table(fh, _names("x", n) + _a_names(n), grid.axes, grid.values)


def read_amatrix_field(path):
    """Inverse of :func:`write_amatrix_field`: (origin, spacing, field)."""
    origin, spacing, values = _read_table(path, _numbered_axes(_a_names, 2, _MAX_N))
    n = len(origin)
    return origin, spacing, values.reshape(values.shape[:-1] + (n, n))
