"""The one span solver, ``multilinear._Span``, against the three it replaced.

``smooth``, ``hyper`` and ``discrete`` each had their own Gram / rank-check /
solve / relative-distance code.  The three are kept here as references; the
shared routine must give their coefficients, residuals, error types and error
messages bit for bit, on random bases and on the fixtures.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import discrete, hyper, smooth
from plmkit.discrete import DiscreteSurfacePair, discrete_compat_coeffs, discrete_scale_propagate, lift_to_projective
from plmkit.errors import DegeneratePointError, NotCompatibleError, PlmError
from plmkit.fields import LatticeField, jet_grid
from plmkit.multilinear import _norm, _Span, pair
from plmkit.scenarios import scenario
from plmkit.smooth import ChartKind, compat_coeffs

# --- references: the three solvers before the merge --------------------------


def _solve_span_ref(basis, rhs, span_tol, what):
    """smooth._solve_span: one basis and one rhs per call, raising policy."""
    M = np.stack(basis, axis=-1)  # (..., 4, 3)
    G = np.swapaxes(M, -1, -2) @ M[..., :, :]
    b = (np.swapaxes(M, -1, -2) @ rhs[..., :, None])[..., 0]
    detG = np.linalg.det(G)
    scale2 = 1.0
    for v in basis:
        scale2 = scale2 * (np.asarray(v, dtype=float) ** 2).sum(axis=-1)
    if np.any(detG <= 1e-24 * np.maximum(scale2, 1e-300)):
        raise DegeneratePointError(f"rank-deficient span while solving {what}")
    coeff = np.linalg.solve(G, b[..., :, None])[..., 0]
    recon = (M @ coeff[..., :, None])[..., 0]
    rhs_norm = _norm(rhs)
    basis_norm = np.sqrt(np.maximum(scale2, 1e-300)) ** (1.0 / 3.0)
    resid = _norm(rhs - recon) / np.maximum(rhs_norm, 1e-12 * basis_norm)
    if np.any(resid > span_tol):
        k = int(np.argmax(resid))
        raise NotCompatibleError(
            f"{what}: span residual {float(resid.reshape(-1)[k]):.3e} exceeds {span_tol:.1e} "
            "(input is not a compatible conormal)"
        )
    return coeff, resid


def _span_basis_ref(basis, what):
    """hyper._span_basis: the factor step."""
    M = np.stack(np.broadcast_arrays(*basis), axis=-1)  # (..., d, k)
    G = np.swapaxes(M, -1, -2) @ M
    detG = np.linalg.det(G)
    scale2 = np.ones(np.asarray(detG).shape)
    for v in basis:
        scale2 = scale2 * (np.asarray(v, dtype=float) ** 2).sum(axis=-1)
    if np.any(detG <= 1e-24 * np.maximum(scale2, 1e-300)):
        raise DegeneratePointError(f"rank-deficient span while testing {what}")
    return M, G, np.sqrt(np.maximum(scale2, 1e-300)) ** (1.0 / len(basis))


def _span_distance_ref(span, rhs):
    """hyper._span_distance: the fit step, residual only."""
    M, G, basis_norm = span
    b = (np.swapaxes(M, -1, -2) @ rhs[..., :, None])
    coeff = np.linalg.solve(G, b)
    recon = (M @ coeff)[..., 0]
    return _norm(rhs - recon) / np.maximum(_norm(rhs), 1e-12 * basis_norm)


def _span_residual_ref(basis, rhs):
    """discrete._span_residual: one basis and one rhs per call."""
    M = np.stack(np.broadcast_arrays(*basis), axis=-1)
    G = np.swapaxes(M, -1, -2) @ M
    detG = np.linalg.det(G)
    scale2 = np.ones(np.asarray(detG).shape)
    for v in basis:
        scale2 = scale2 * (np.asarray(v, dtype=float) ** 2).sum(axis=-1)
    if np.any(detG <= 1e-24 * np.maximum(scale2, 1e-300)):
        raise DegeneratePointError("rank-deficient basis in lattice span test")
    b = np.swapaxes(M, -1, -2) @ rhs[..., :, None]
    coeff = np.linalg.solve(G, b)
    recon = (M @ coeff)[..., 0]
    basis_norm = np.sqrt(np.maximum(scale2, 1e-300)) ** (1.0 / len(basis))
    resid = _norm(rhs - recon) / np.maximum(_norm(rhs), 1e-12 * basis_norm)
    return coeff[..., 0], resid


def _bits(obj):
    """``obj`` with each array (in a tuple, list or dict) as its dtype, shape and bytes."""
    if isinstance(obj, (tuple, list)):
        return [_bits(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if obj is None:
        return None
    a = np.asarray(obj)
    return a.dtype, a.shape, a.tobytes()


def _outcome(fn):
    """``fn()`` as ``_bits``, or the error's type and message."""
    try:
        return _bits(fn())
    except PlmError as exc:
        return type(exc), str(exc)


# --- random bases ------------------------------------------------------------

_LEADS = [(), (6,), (3, 4), (2, 1, 3)]


@st.composite
def span_case(draw):
    """k vectors in dimension d (3 in 4, and n + 1 in n + 2 for n = 2..4), a
    batch shape, per-vector scales 1e-5..1e4, optionally one vector broadcast
    along the first batch axis and one rank-deficient site, and a rhs that is
    zero, generic, in the span, near it, or so small that the basis scale
    floors its norm."""
    k, d = draw(st.sampled_from([(3, 4), (4, 5), (5, 6)]))
    lead = draw(st.sampled_from(_LEADS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = [10.0 ** draw(st.integers(-5, 4)) * rng.standard_normal(lead + (d,)) for _ in range(k)]
    if lead and draw(st.booleans()):
        j = draw(st.integers(0, k - 2))
        basis[j] = basis[j][:1]  # broadcasts against the others
    if lead and draw(st.booleans()):
        site = tuple(draw(st.integers(0, n - 1)) for n in lead)
        first, second = (np.broadcast_to(v, lead + (d,))[site] for v in basis[:2])
        basis[-1][site] = 2.0 * first - 0.5 * second
    kind = draw(st.sampled_from(["zero", "generic", "tiny", "in span", "near span"]))
    rhs_lead = lead[1:] if lead and draw(st.booleans()) else lead  # broadcasts too
    if kind == "zero":
        rhs = np.zeros(rhs_lead + (d,))
    elif kind in ("generic", "tiny"):
        exponent = draw(st.integers(-5, 4) if kind == "generic" else st.integers(-30, -17))
        rhs = 10.0 ** exponent * rng.standard_normal(rhs_lead + (d,))
    else:
        coeff = rng.standard_normal(k)
        rhs = sum(c * np.broadcast_to(v, lead + (d,)) for c, v in zip(coeff, basis))
        if kind == "near span":
            rhs = rhs + 10.0 ** draw(st.integers(-12, -3)) * rng.standard_normal(lead + (d,))
    return basis, np.ascontiguousarray(rhs), draw(st.sampled_from([1e-12, 1e-6, 1e-2, 1e3]))


@settings(max_examples=200, deadline=None)
@given(span_case())
def test_one_span_solver_equals_each_reference_bitwise(case):
    basis, rhs, span_tol = case
    what = "rhs in span{...}"
    with np.errstate(all="ignore"):
        assert _outcome(lambda: discrete._span_residual(basis, rhs)) == _outcome(lambda: _span_residual_ref(basis, rhs))
        hyper_msg = f"rank-deficient span while testing {what}"
        assert _outcome(lambda: hyper._span_distance(hyper._Span(basis, hyper_msg), rhs)) == _outcome(
            lambda: _span_distance_ref(_span_basis_ref(basis, what), rhs))
        if len(basis) == 3:  # smooth's solver took three vectors only
            span = lambda: _Span(basis, f"rank-deficient span while solving {what}")  # noqa: E731
            assert _outcome(lambda: smooth._solve_span(span(), rhs, span_tol, what)) == _outcome(
                lambda: _solve_span_ref(np.broadcast_arrays(*basis), rhs, span_tol, what))


def test_one_factored_span_serves_many_right_hand_sides():
    rng = np.random.default_rng(5)
    basis = [rng.standard_normal((7, 4)) for _ in range(3)]
    span = _Span(basis, "unused")
    for rhs in (rng.standard_normal((7, 4)), np.zeros((7, 4)), basis[0] - 3.0 * basis[2]):
        assert _outcome(lambda: span.fit(rhs)) == _outcome(lambda: _span_residual_ref(basis, rhs))


# --- the solvers' callers on the fixtures ------------------------------------


def _solve_spans_ref(basis, span_tol, *systems):
    """compat_coeffs before the merge: one reference solve per system."""
    return [_solve_span_ref(basis, rhs, span_tol, what)[0] for rhs, what in systems]


def _compat_coeffs_ref(nj, fj, chart):
    """The coefficient fields of compat_coeffs(nj, chart, f_obj=fj), system
    by system with the reference solver."""
    def solve(jet, rhs, lhs):
        v = "nu" if jet is nj else "f"
        what = lhs.replace("?", v) + f" in span{{{v}_x, {v}_y, {v}}}"
        return _solve_span_ref([jet.d_x, jet.d_y, jet.value], rhs, 1e-6, what)[0]

    if chart is ChartKind.ASYMPTOTIC:
        c1, c2 = solve(nj, nj.d_xx, "?_xx"), solve(nj, nj.d_yy, "?_yy")
        d1, d2 = solve(fj, fj.d_xx, "?_xx"), solve(fj, fj.d_yy, "?_yy")
        return dict(U1=c1[..., 0], V1=c1[..., 1], W1=c1[..., 2], U2=c2[..., 0], V2=c2[..., 1], W2=c2[..., 2],
                    Wt1=d1[..., 2], Wt2=d2[..., 2])
    cm, ct = solve(nj, nj.d_xy, "?_xy"), solve(nj, nj.d_yy - nj.d_xx, "?_yy - ?_xx")
    dm, dt = solve(fj, fj.d_xy, "?_xy"), solve(fj, fj.d_yy - fj.d_xx, "?_yy - ?_xx")
    return dict(U=cm[..., 0], V=cm[..., 1], W=cm[..., 2], Vt=-0.5 * ct[..., 0], Ut=0.5 * ct[..., 1], C=ct[..., 2],
                Wt=dm[..., 2], Ct=dt[..., 2])


@pytest.mark.parametrize("name, chart", [("hypar", ChartKind.ASYMPTOTIC), ("cubic-graph", ChartKind.ASYMPTOTIC),
                                         ("conj-paraboloid", ChartKind.CONJUGATE)])
@pytest.mark.parametrize("source", ["jets", "grids"])
def test_compat_coeffs_equal_the_reference_run(name, chart, source, monkeypatch):
    # closed-form jets pass the span tests; finite-difference grids fail them
    # where the exact rhs is zero and its round-off meets the 1e-12 floor
    scn = scenario(name)
    order = 3 if chart is ChartKind.ASYMPTOTIC else 2
    nu, f = ((scn.nu_jets, scn.f_jets) if source == "jets"
             else (jet_grid(scn.nu_grid, order=order), jet_grid(scn.f_grid, order=order)))
    got = _outcome(lambda: dataclasses.asdict(compat_coeffs(nu, chart, f_obj=f)))
    assert isinstance(got, dict) == (source == "jets")
    ref = _outcome(lambda: _compat_coeffs_ref(nu, f, chart))
    assert ({k: got[k] for k in ref} if isinstance(got, dict) else got) == ref
    monkeypatch.setattr(smooth, "_solve_spans", _solve_spans_ref)  # and every derived field
    assert got == _outcome(lambda: dataclasses.asdict(compat_coeffs(nu, chart, f_obj=f)))


@pytest.mark.parametrize("name, kwargs", [("hypar-lattice", {}), ("moutard-random", {"size": 12})])
def test_lattice_compat_and_scale_propagation_equal_the_reference_run(name, kwargs, monkeypatch):
    scn = scenario(name, **kwargs)
    lifted = lift_to_projective(DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice))
    s0 = float(pair(lifted.f.values[1, 0], lifted.nu.values[0, 1]))

    def run():
        compat = discrete_compat_coeffs(lifted.nu, f=lifted.f)
        return dataclasses.asdict(compat), discrete_scale_propagate(lifted.nu, s0).values

    got = _outcome(run)
    v = lifted.nu.values
    c1 = _span_residual_ref([v[1:-1, 1:], v[1:-1, :-1], v[:-2, :-1]], v[2:, :-1])[0]  # nu11 on nu12, nu1, nu
    c2 = _span_residual_ref([v[1:, 1:-1], v[:-1, 1:-1], v[:-1, :-2]], v[:-1, 2:])[0]  # nu22 on nu12, nu2, nu
    ref = dict(A1=c1[..., 0], B1=c1[..., 1], C1=c1[..., 2], A2=c2[..., 0], B2=c2[..., 1], C2=c2[..., 2])
    assert {k: got[0][k] for k in ref} == _bits(ref)
    monkeypatch.setattr(discrete, "_span_residual", _span_residual_ref)  # and every derived field
    assert got == _outcome(run)


# --- a non-finite span residual fails ----------------------------------------


def test_smooth_span_check_fails_on_a_nan_residual():
    # an overflowing rhs at one site makes its residual inf / inf
    rng = np.random.default_rng(1)
    basis = [rng.standard_normal((5, 4)) for _ in range(3)]
    rhs = basis[0] + 2.0 * basis[1]
    rhs[3] = 1e200
    with np.errstate(all="ignore"):
        _, resid = _Span(basis, "unused").fit(rhs)
        assert np.isnan(resid[3]) and np.all(resid[[0, 1, 2, 4]] < 1e-12)
        with pytest.raises(NotCompatibleError, match=r"^rhs: span residual nan exceeds"):
            smooth._solve_span(_Span(basis, "unused"), rhs, 1e-6, "rhs")


def test_lattice_span_check_fails_on_a_nan_residual_and_names_its_site():
    # lattice row 4, column 0 enters only the nu11 system, as the rhs of site (2, 0)
    scn = scenario("moutard-random", size=12)
    v = lift_to_projective(DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice)).nu.values
    v = v[:5, :5].copy()
    v[4, 0] = 1e200
    with np.errstate(all="ignore"):
        _, resid = discrete._span_residual([v[1:-1, 1:], v[1:-1, :-1], v[:-2, :-1]], v[2:, :-1])
        assert np.isnan(resid[2, 0]) and np.nanmax(resid) < 1e-8
        for call in (lambda nu: discrete_compat_coeffs(nu), lambda nu: discrete_scale_propagate(nu, 1.0)):
            with pytest.raises(NotCompatibleError, match=r"of nu11 at site \(2, 0\) \(residual nan\)"):
                call(LatticeField(values=v))
