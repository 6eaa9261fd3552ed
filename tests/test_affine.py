"""Classical affine gauge: integration, forms, lift."""

import numpy as np
import pytest

from plmkit.affine import (
    AffineSurfacePair,
    affine_forms,
    classical_lelieuvre_integrate,
    closure_residual,
    lift_affine,
)
from plmkit.errors import BoundaryError, ChartMismatchError, ClosureError, DomainError
from plmkit.fields import FieldGrid, jet_grid
from plmkit.scenarios import scenario
from plmkit.smooth import ChartKind, det_families, plm_residual

HYPAR = scenario("hypar")


def make_grid(fn, h=0.05, lo=-1.0, hi=1.0):
    n = int(round((hi - lo) / h)) + 1
    xs = lo + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return FieldGrid(origin=(lo, lo), spacing=(h, h), values=fn(X, Y))


def saddle_nu(X, Y):
    return np.stack([-Y, -X, np.ones_like(X)], axis=-1)


def paraboloid_pair(x0=-0.3, x1=0.3, y0=-0.2, y1=0.4, h=0.05):
    """The conormal nu = (x, y, 1 + x^2 + y^2), which closes with U4 = 0, and
    its exact Lelieuvre integral bf: F = 1 - x^2 - y^2, A = -2y, B = 2x."""
    xs, ys = (a + h * np.arange(int(round((b - a) / h)) + 1) for a, b in ((x0, x1), (y0, y1)))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = lambda v: FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=v)  # noqa: E731
    f = np.stack([X**2 * Y + Y - Y**3 / 3, X - X**3 / 3 + X * Y**2, -X * Y], axis=-1)
    return AffineSurfacePair(f=grid(f), nu=grid(np.stack([X, Y, 1 + X**2 + Y**2], axis=-1)))


def test_closure_holds_on_saddle_conormal():
    res, u4 = closure_residual(HYPAR.nu3_grid)
    assert np.max(res) < 1e-12
    assert np.max(np.abs(u4)) < 1e-10  # nu_xy = 0 here


def test_integration_reproduces_saddle_within_quadrature_error():
    h = HYPAR.meta["h"]
    nu = HYPAR.nu3_grid
    f0 = HYPAR.f3_grid.values[0, 0]
    f = classical_lelieuvre_integrate(nu, f0)
    err = np.max(np.abs(f.values - HYPAR.f3_grid.values))
    assert err <= 5 * h * h  # trapezoid-level accuracy bound
    # on the bilinear saddle the edge-product rule is actually exact
    assert err < 1e-13


def test_integration_rejects_nonintegrable_conormal():
    grid = make_grid(lambda X, Y: np.stack([-Y, -X, 1 + X**2 * Y**2], axis=-1), h=0.1)
    with pytest.raises(ClosureError) as exc:
        classical_lelieuvre_integrate(grid, np.zeros(3))
    assert exc.value.site is not None


def test_forms_ground_truth_on_saddle():
    forms, rep = affine_forms(AffineSurfacePair(f=HYPAR.f3_grid, nu=HYPAR.nu3_grid))
    assert rep.passed
    assert np.max(np.abs(forms.F - HYPAR.ground_truth["blaschke_F"])) < 1e-10
    assert np.max(np.abs(forms.A_cubic)) < 1e-10
    assert np.max(np.abs(forms.B_cubic)) < 1e-10


def test_forms_report_includes_squared_relations():
    _, rep = affine_forms(AffineSurfacePair(f=HYPAR.f3_grid, nu=HYPAR.nu3_grid))
    for name in (
        "blaschke_pairing",
        "cubic_pairing_x",
        "cubic_pairing_y",
        "blaschke_squared",
        "cubic_squared_x",
        "cubic_squared_y",
        "lift_mixed_det_is_F_squared",
    ):
        assert rep[name].passed, name


def test_forms_identities_hold_with_varying_F_and_nonzero_cubics():
    # on the hypar F is constant and both cubics vanish, so a wrong sign in a
    # cubic pairing or a misplaced F in the lifted factorization goes unseen
    pairg = paraboloid_pair()
    forms, rep = affine_forms(pairg, stencil=4)
    assert rep.metadata["jet_order"] == 3
    xs, ys = (c[3:-3] for c in pairg.f.axes)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert np.max(np.abs(forms.F - (1 - X**2 - Y**2))) < 1e-12
    assert np.max(np.abs(forms.A_cubic + 2 * Y)) < 1e-12
    assert np.max(np.abs(forms.B_cubic - 2 * X)) < 1e-12
    assert np.ptp(forms.F) > 0.05 and np.max(np.abs(forms.B_cubic)) > 0.1
    assert [rec.name for rec in rep.records] == [
        "blaschke_pairing",
        "cubic_pairing_x",
        "cubic_pairing_y",
        "blaschke_squared",
        "cubic_squared_x",
        "cubic_squared_y",
        "lift_mixed_det_is_F_squared",
    ]
    for rec in rep.records:
        assert rec.passed, (rec.name, rec.max_residual)
    assert np.max(np.abs(closure_residual(pairg.nu, stencil=4)[1])) < 1e-10  # U4 = 0


def test_forms_wrong_sign_cubic_radicand_rejected():
    # det|bf_x, bf_xx, bf_xxx| = -12 for this position field: the cubic
    # radicand has the wrong sign, so the data is not in this chart
    bad_f = make_grid(lambda X, Y: np.stack([X, X**3, X**2 + Y], axis=-1), h=0.1)
    nu = make_grid(saddle_nu, h=0.1)
    with pytest.raises(ChartMismatchError):
        affine_forms(AffineSurfacePair(f=bad_f, nu=nu))


def test_pair_validation():
    with pytest.raises(DomainError):
        AffineSurfacePair(f=HYPAR.f3_grid, nu=HYPAR.nu_grid)  # 4 components
    shifted = FieldGrid(origin=(5.0, 5.0), spacing=HYPAR.nu3_grid.spacing, values=HYPAR.nu3_grid.values)
    with pytest.raises(DomainError):
        AffineSurfacePair(f=HYPAR.f3_grid, nu=shifted)


def test_lift_satisfies_projective_relations():
    f4, nu4 = lift_affine(AffineSurfacePair(f=HYPAR.f3_grid, nu=HYPAR.nu3_grid))
    rep = plm_residual(jet_grid(f4), jet_grid(nu4), chart=ChartKind.ASYMPTOTIC)
    assert rep.max_residual() < 1e-10
    jets = jet_grid(nu4, order=2)
    # homogeneous mixed determinant equals F^2 = 1 on the saddle
    assert np.allclose(det_families(jets, "mixed"), 1.0, atol=1e-10)


@pytest.mark.parametrize("dims", [(5,), (5, 5, 5)])
def test_pair_rejects_grids_that_are_not_2_axis(dims):
    # the integrator, the lift and the forms all take two parameter axes
    n = len(dims)
    grid = FieldGrid(origin=(0.0,) * n, spacing=(0.1,) * n, values=np.ones(dims + (3,)))
    with pytest.raises(DomainError, match="2-axis"):
        AffineSurfacePair(f=grid, nu=grid)


def _pair_on(f, nu, h=0.1, x=(-1.0, 1.0), y=(-1.0, 1.0)):
    """The affine pair f(X, Y), nu(X, Y) on the box x times y at spacing h."""
    xs, ys = (a + h * np.arange(int(round((b - a) / h)) + 1) for a, b in (x, y))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = lambda v: FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=v)  # noqa: E731
    return AffineSurfacePair(f=grid(f(X, Y)), nu=grid(nu(X, Y)))


def _saddle_f(X, Y):
    return np.stack([X, Y, X * Y], axis=-1)


_STEP = 1e306  # a step this high between two rows: at h = 0.1 its third y-difference overflows, its first two do not


@pytest.mark.parametrize("make, stencil, error, message", [
    # the stencil check comes first, before any sample is differenced
    (lambda: _pair_on(lambda X, Y: 1e308 * _saddle_f(X, Y), saddle_nu, x=(0.0, 0.1)), 2, BoundaryError,
     "grid dims (2, 21) smaller than stencil width 3"),
    # a conormal partial that overflows
    (lambda: _pair_on(_saddle_f, lambda X, Y: 1e308 * saddle_nu(X, Y)), 2, DomainError,
     "jet contains non-finite entries"),
    # finite partials, but <bf, bnu> of the lift overflows: the lift's error comes last
    (lambda: _pair_on(lambda X, Y: 1e200 * _saddle_f(X, Y), lambda X, Y: 1e200 * saddle_nu(X, Y)), 2,
     DomainError, "grid contains non-finite samples"),
    (lambda: AffineSurfacePair(f=HYPAR.f3_grid, nu=HYPAR.nu3_grid), 4, ChartMismatchError,
     "det|bf_x, bf_xx, bf_xxx| < 0: wrong-sign radicand for the x cubic"),
    # a wrong-sign x cubic and a non-finite bf_yyy: every surface partial is made
    # before a radicand's sign is judged, so the non-finite partial is the error
    (lambda: _pair_on(lambda X, Y: np.stack([X, X**3, X**2 + Y + _STEP * (Y > 0.05)], axis=-1), saddle_nu,
                      y=(-0.3, 0.3)), 2, DomainError, "jet contains non-finite entries"),
], ids=["too-small", "overflowing-partial", "overflowing-lift", "hypar-stencil-4", "wrong-sign-and-non-finite"])
def test_forms_raise_their_errors_in_order(make, stencil, error, message):
    with np.errstate(over="ignore", invalid="ignore"):
        pairg = make()
        with pytest.raises(error) as exc:
            affine_forms(pairg, stencil=stencil)
    assert type(exc.value) is error and str(exc.value) == message


def test_the_last_error_case_is_a_chart_mismatch_without_its_step():
    # the last case above with the step left out is a chart mismatch
    pairg = _pair_on(lambda X, Y: np.stack([X, X**3, X**2 + Y], axis=-1), saddle_nu, y=(-0.3, 0.3))
    with pytest.raises(ChartMismatchError, match="x cubic"):
        affine_forms(pairg)
