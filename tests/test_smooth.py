"""Smooth correspondence: defining relations, reconstruction, forms."""

import numpy as np
import pytest

from plmkit.errors import (
    ChartMismatchError,
    DegeneratePointError,
    DomainError,
    NotCompatibleError,
)
from plmkit.fields import FieldGrid, JetGrid, jet_grid
from plmkit.projective import normalized_last_distance, projective_distance
from plmkit.scenarios import scenario
from plmkit.smooth import (
    ChartKind,
    compat_coeffs,
    det_families,
    det_invariance_report,
    fubini_forms,
    orthogonality_report,
    plm_residual,
    reconstruct_field,
    reconstruct_point_alt,
)

HYPAR = scenario("hypar")
CONJ = scenario("conj-paraboloid")
CUBIC = scenario("cubic-graph")


# --- defining relations and reports on analytic jets ----------------------


@pytest.mark.parametrize("scn", [HYPAR, CONJ, CUBIC], ids=lambda s: s.name)
def test_defining_relation_analytic(scn):
    rep = plm_residual(scn.f_jets, scn.nu_jets, chart=scn.chart)
    assert rep.max_residual() < 1e-12
    assert rep.passed


@pytest.mark.parametrize("scn", [HYPAR, CONJ, CUBIC], ids=lambda s: s.name)
def test_orthogonality_analytic(scn):
    rep = orthogonality_report(scn.f_jets, scn.nu_jets, chart=scn.chart)
    assert rep.max_residual() < 1e-12


def test_det_invariance_asymptotic_values():
    rep = det_invariance_report(HYPAR.f_jets, HYPAR.nu_jets, chart=ChartKind.ASYMPTOTIC)
    assert rep.max_residual() < 1e-12
    # both mixed determinants equal 1 identically on this surface
    for jets in (HYPAR.f_jets, HYPAR.nu_jets):
        assert np.allclose(det_families(jets, "mixed"), 1.0, atol=1e-12)


def test_det_invariance_cubic_values():
    for jets in (CUBIC.f_jets, CUBIC.nu_jets):
        assert np.allclose(det_families(jets, "mixed"), 1.0, atol=1e-10)
        assert np.allclose(det_families(jets, "xx"), 0.25, atol=1e-10)
        assert np.allclose(det_families(jets, "yy"), 0.0, atol=1e-10)


def test_det_invariance_conjugate():
    rep = det_invariance_report(CONJ.f_jets, CONJ.nu_jets, chart=ChartKind.CONJUGATE)
    assert rep.max_residual() < 1e-12
    assert rep["det_mixed_vanishes"].passed
    assert rep["det_xx_yy_equal"].passed
    # the conjugate discriminant is +1 on this pair
    assert np.allclose(det_families(CONJ.nu_jets, "conj_xx"), 1.0, atol=1e-12)


# --- reconstruction -------------------------------------------------------


def test_reconstruct_point_matches_surface():
    jets = HYPAR.nu_jets
    i, j = 7, 11
    f, _ = reconstruct_field(jets[i, j], ChartKind.ASYMPTOTIC, strict=True)
    expect = HYPAR.f_jets.value[i, j]
    assert normalized_last_distance(f, expect) < 1e-12


def test_reconstruct_field_full_grid():
    f, bad = reconstruct_field(HYPAR.nu_jets, ChartKind.ASYMPTOTIC)
    assert not bad.any()
    assert np.max(projective_distance(f, HYPAR.f_jets.value)) < 1e-12


def test_reconstruct_conjugate_chart():
    f, bad = reconstruct_field(CONJ.nu_jets, ChartKind.CONJUGATE)
    assert not bad.any()
    assert np.max(projective_distance(f, CONJ.f_jets.value)) < 1e-12


def test_duality_round_trip():
    """reconstruct(inverse(f-jet)) returns the original point."""
    i, j = 5, 9
    nu, _ = reconstruct_field(HYPAR.f_jets[i, j], ChartKind.ASYMPTOTIC, strict=True)
    assert np.max(projective_distance(nu, HYPAR.nu_jets.value[i, j])) < 1e-12


def test_reconstruct_alt_axis_agrees_projectively():
    jets = CUBIC.nu_jets
    i, j = 6, 6
    f_main, _ = reconstruct_field(jets[i, j], ChartKind.ASYMPTOTIC, strict=True)
    f_alt = reconstruct_point_alt(jets[i, j], "x")
    assert projective_distance(f_main, f_alt) < 1e-10


def test_reconstruct_alt_degenerate_axis():
    # the y-family determinant vanishes identically on this surface
    with pytest.raises(DegeneratePointError):
        reconstruct_point_alt(CUBIC.nu_jets[6, 6], "y")
    with pytest.raises(DomainError):
        reconstruct_point_alt(CUBIC.nu_jets[6, 6], "z")


def _unit_jet(d_xx_sign):
    e = np.eye(4)
    return JetGrid(value=e[0], d1=np.stack([e[1], e[2]]), d2=np.stack([d_xx_sign * e[3], e[3], e[3]]))


def test_chart_mismatch_raises():
    with pytest.raises(ChartMismatchError):
        reconstruct_field(_unit_jet(-1.0), ChartKind.CONJUGATE, strict=True)
    # same data is fine in the asymptotic chart
    reconstruct_field(_unit_jet(-1.0), ChartKind.ASYMPTOTIC, strict=True)


def test_degenerate_point_raises():
    with pytest.raises(DegeneratePointError):
        reconstruct_field(_unit_jet(0.0), ChartKind.CONJUGATE, strict=True)


def test_conjugate_chart_on_asymptotic_data_is_rejected():
    jets = CONJ.nu_jets
    with pytest.raises((DegeneratePointError, ChartMismatchError)):
        reconstruct_field(jets[4, 4], ChartKind.ASYMPTOTIC, strict=True)


# --- finite-difference path ----------------------------------------------


def test_reconstruct_from_sampled_grid_stencil4():
    grid = HYPAR.nu_grid
    jets = jet_grid(grid, order=2, stencil=4)
    f, bad = reconstruct_field(jets, ChartKind.ASYMPTOTIC)
    assert not bad.any()
    xs, ys = jets.xs, jets.ys
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    expect = np.stack([X, Y, X * Y, -np.ones_like(X)], axis=-1)
    assert np.max(projective_distance(f, expect)) < 1e-6


def test_fd_det_invariance_accuracy_or_convergence():
    """Stencil-4 determinants agree with the exact value; convergence
    order is checked only above the roundoff floor (polynomial data is
    differentiated exactly, so the error can sit at machine precision)."""
    errs = []
    for h in (0.1, 0.05, 0.025):
        scn = scenario("cubic-graph", h=h)
        jets = jet_grid(scn.nu_grid, order=2, stencil=4)
        d = det_families(jets, "mixed")
        errs.append(np.max(np.abs(d - 1.0)))
    assert max(errs) < 1e-6
    if max(errs) > 1e-10:
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5


# --- forms and compatibility ---------------------------------------------


def test_fubini_forms_hypar():
    forms = fubini_forms(HYPAR.f_jets, HYPAR.nu_jets)
    assert np.allclose(forms.F2_coeff, HYPAR.ground_truth["F2_coeff"], atol=1e-12)
    assert np.allclose(forms.F3_coeff, 0.0, atol=1e-12)
    assert np.allclose(forms.F3tilde_coeff, 0.0, atol=1e-12)


def test_fubini_forms_cubic_graph():
    forms = fubini_forms(CUBIC.f_jets, CUBIC.nu_jets)
    assert np.allclose(np.abs(forms.F3_coeff), CUBIC.ground_truth["F3_abs"], atol=1e-10)
    assert np.allclose(forms.F3tilde_coeff, 0.0, atol=1e-10)


def test_compat_coeffs_hypar_all_zero():
    out = compat_coeffs(HYPAR.nu_jets, ChartKind.ASYMPTOTIC, f_obj=HYPAR.f_jets)
    for arr in (out.U1, out.V1, out.W1, out.U2, out.V2, out.W2):
        assert np.max(np.abs(arr)) < 1e-10
    assert np.max(out.v1_sq_residual) < 1e-8
    assert np.max(out.u2_sq_residual) < 1e-8


def test_compat_coeffs_cubic_graph_squared_relation():
    out = compat_coeffs(CUBIC.nu_jets, ChartKind.ASYMPTOTIC)
    # V1^2 equals the determinant ratio of the x family to the mixed one
    assert np.max(out.v1_sq_residual) < 1e-8
    assert np.max(out.u2_sq_residual) < 1e-8


def test_compat_coeffs_conjugate_zero_on_quadric():
    out = compat_coeffs(CONJ.nu_jets, ChartKind.CONJUGATE, f_obj=CONJ.f_jets)
    for arr in (out.U, out.V, out.W, out.Ut, out.Vt, out.C):
        assert np.max(np.abs(arr)) < 1e-10


def test_incompatible_conormal_rejected():
    rng = np.random.default_rng(0)
    h = 0.1
    vals = rng.standard_normal((9, 9, 4)) + 3.0
    grid = FieldGrid(origin=(0.0, 0.0), spacing=(h, h), values=vals)
    with pytest.raises(NotCompatibleError):
        compat_coeffs(jet_grid(grid, order=2), ChartKind.CONJUGATE)


def test_grid_shape_mismatch_rejected():
    small = FieldGrid(origin=(0, 0), spacing=(0.05, 0.05), values=HYPAR.nu_grid.values[:-2])
    with pytest.raises(DomainError):
        plm_residual(jet_grid(HYPAR.f_grid), jet_grid(small), chart=ChartKind.ASYMPTOTIC)


def test_suites_take_jets_not_sampled_grids():
    # as the hyper suites do: fields.jet_grid takes the jets of a grid first
    fj, nj, grid = HYPAR.f_jets, HYPAR.nu_jets, HYPAR.nu_grid
    chart = ChartKind.ASYMPTOTIC
    calls = [lambda fn=fn: fn(fj, grid, chart) for fn in (plm_residual, orthogonality_report, det_invariance_report)]
    calls += [lambda: plm_residual(grid, nj, chart), lambda: fubini_forms(fj, grid), lambda: compat_coeffs(grid, chart),
              lambda: compat_coeffs(nj, chart, f_obj=grid), lambda: reconstruct_field(grid, chart)]
    for call in calls:
        with pytest.raises(DomainError, match="expected a JetGrid, got FieldGrid"):
            call()
