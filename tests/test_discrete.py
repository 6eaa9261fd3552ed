"""Lattice correspondence: Moutard evolution, integration, invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plmkit import cli
from plmkit.discrete import (
    DiscreteSurfacePair,
    MoutardCoeff,
    affine_sphere_check,
    discrete_affine_integrate,
    discrete_compat_coeffs,
    discrete_det_invariance,
    discrete_forms,
    discrete_residual,
    discrete_scale_propagate,
    lift_to_projective,
    moutard_evolve,
    moutard_residual,
)
from plmkit.errors import (
    ClosureError,
    DomainError,
    EvolutionOverflowError,
    NotCompatibleError,
)
from plmkit.fields import LatticeField
from plmkit.multilinear import det_n, pair
from plmkit.projective import projective_distance
from plmkit.report import LATTICE_TOL, InvariantReport
from plmkit.scenarios import Scenario, scenario

HL = scenario("hypar-lattice")
MR = scenario("moutard-random", size=12)


def proj_pair(scn):
    return DiscreteSurfacePair(nu=scn.nu_lattice, f=scn.f_lattice)


def aff_pair(scn):
    return DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice)


# --- Moutard evolution ----------------------------------------------------


def test_moutard_evolution_closes_exactly():
    assert np.max(moutard_residual(MR.nu3_lattice)) < 1e-14


def test_moutard_corner_mismatch_rejected():
    row = np.zeros((4, 3))
    col = np.ones((4, 3))
    with pytest.raises(DomainError):
        moutard_evolve(row, col, MoutardCoeff(np.ones((3, 3))))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_moutard_non_finite_corner_rejected(value):
    # a NaN corner compares false with the tolerance; it must not be
    # accepted and then overwritten by the column's corner
    row = np.ones((4, 3))
    col = np.ones((4, 3))
    row[0, 1] = value
    with pytest.raises(DomainError, match=r"^non-finite value in initial_row at index 0$"):
        moutard_evolve(row, col, MoutardCoeff(np.ones((3, 3))))


@pytest.mark.parametrize("strip", ["initial_row", "initial_col"])
def test_moutard_non_finite_strip_is_a_domain_error_not_an_overflow(strip):
    # the strips are input: a NaN there is not an overflow of the evolution
    strips = {"initial_row": np.ones((5, 3)), "initial_col": np.ones((5, 3))}
    strips[strip][3, 2] = np.nan
    with pytest.raises(DomainError, match=rf"^non-finite value in {strip} at index 3$"):
        moutard_evolve(strips["initial_row"], strips["initial_col"], MoutardCoeff(np.ones((4, 4))))


def _moutard_evolve_loop(initial_row, initial_col, H):
    """Site-by-site Moutard fill, n2 outer and n1 inner: the reference."""
    row = np.asarray(initial_row, dtype=float)
    col = np.asarray(initial_col, dtype=float)
    hv = np.asarray(H, dtype=float)
    m1, m2 = row.shape[0], col.shape[0]
    v = np.empty((m1, m2, row.shape[1]))
    v[:, 0] = row
    v[0, :] = col
    with np.errstate(over="ignore", invalid="ignore"):
        for n2 in range(m2 - 1):
            for n1 in range(m1 - 1):
                h = float(hv) if hv.ndim == 0 else float(hv[n1, n2])
                v[n1 + 1, n2 + 1] = h * (v[n1 + 1, n2] + v[n1, n2 + 1]) - v[n1, n2]
                if not np.all(np.isfinite(v[n1 + 1, n2 + 1])):
                    raise EvolutionOverflowError(
                        f"non-finite value at site ({n1 + 1}, {n2 + 1})", site=(n1 + 1, n2 + 1)
                    )
    return v


def _assert_same_overflow(row, col, H):
    with pytest.raises(EvolutionOverflowError) as ref:
        _moutard_evolve_loop(row, col, H)
    with pytest.raises(EvolutionOverflowError) as err:
        moutard_evolve(row, col, MoutardCoeff(H))
    assert err.value.site == ref.value.site
    assert str(err.value) == str(ref.value)
    return err.value.site


bounded = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)


@st.composite
def moutard_data(draw):
    """Strips sharing a corner, and a scalar or an (over)sized array H."""
    m1, m2, d = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.sampled_from([3, 4]))
    row = draw(hnp.arrays(float, (m1, d), elements=bounded))
    col = draw(hnp.arrays(float, (m2, d), elements=bounded))
    col[0] = row[0]
    if draw(st.booleans()):
        H = np.asarray(draw(bounded))
    else:
        e1, e2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        H = draw(hnp.arrays(float, (m1 - 1 + e1, m2 - 1 + e2), elements=bounded))
    return row, col, H


@settings(max_examples=80, deadline=None)
@given(moutard_data())
def test_moutard_evolve_matches_loop_reference(data):
    row, col, H = data
    ref = _moutard_evolve_loop(row, col, H)
    assert np.array_equal(moutard_evolve(row, col, H).values, ref)
    assert np.array_equal(moutard_evolve(row, col, MoutardCoeff(H)).values, ref)


def test_moutard_overflow_reports_site():
    row = np.ones((40, 3))
    col = np.ones((40, 3))
    H = np.full((39, 39), 1e200)
    assert _assert_same_overflow(row, col, H) is not None


def test_moutard_overflow_site_follows_loop_order():
    # two overflow origins: (1, 2) on anti-diagonal 3 is non-finite first in
    # diagonal order, (8, 1) on diagonal 9 is first in (n2 outer, n1 inner) order
    row = np.ones((10, 3))
    col = np.ones((10, 3))
    H = np.ones((9, 9))
    H[0, 1] = 1e308
    H[7, 0] = 1e308
    assert _assert_same_overflow(row, col, H) == (8, 1)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (3, 3, 1)])
def test_moutard_coefficient_shape_rejected(shape):
    with pytest.raises(DomainError):
        moutard_evolve(np.ones((4, 3)), np.ones((4, 3)), MoutardCoeff(np.ones(shape)))


@pytest.mark.parametrize("rows, cols, name", [(0, 0, "initial_row"), (0, 3, "initial_row"), (3, 0, "initial_col")])
def test_moutard_empty_strip_rejected(rows, cols, name):
    # an empty strip has no corner to compare; it used to raise IndexError
    with pytest.raises(DomainError, match=f"^{name} is empty"):
        moutard_evolve(np.ones((rows, 3)), np.ones((cols, 3)), 1.0)


# --- affine integration ---------------------------------------------------


def test_integration_path_independence():
    nu = MR.nu3_lattice
    f = MR.f3_lattice.values
    v = nu.values
    # alternative path: axis 2 first, then axis 1
    d1 = np.cross(v[:-1, :], v[1:, :])
    d2 = -np.cross(v[:, :-1], v[:, 1:])
    alt = np.empty_like(f)
    alt[0, 0] = f[0, 0]
    alt[0, 1:] = alt[0, 0] + np.cumsum(d2[0], axis=0)
    alt[1:, :] = alt[:1, :] + np.cumsum(d1, axis=0)
    scale = np.max(np.abs(f))
    assert np.max(np.abs(alt - f)) < 1e-10 * scale


def test_integration_requires_closure():
    rng = np.random.default_rng(9)
    nu = LatticeField(values=rng.standard_normal((6, 6, 3)) + 2.0)
    with pytest.raises(ClosureError) as err:
        discrete_affine_integrate(nu, np.zeros(3))
    assert err.value.site is not None


def test_integration_fails_on_a_nan_closure_residual():
    # a conormal 1e200 * s * e1 + (0, 1 + n1, 2 + n2): the huge parts cancel in
    # nu12 + nu off the diagonal (residual exactly 1.0) and overflow the products
    # of the diagonal plaquettes (residual nan); every edge product stays finite
    s = np.array([[1, 1, 0, 0], [1, 1, -1, 0], [0, -1, 1, 1], [0, 0, 1, 1]], dtype=float)
    n1, n2 = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    nu = LatticeField(values=np.stack([1e200 * s, 1.0 + n1, 2.0 + n2], axis=-1))
    with np.errstate(all="ignore"):
        res = moutard_residual(nu)
        assert np.array_equal(np.isnan(res), np.eye(3, dtype=bool)) and np.all(res[~np.eye(3, dtype=bool)] == 1.0)
        with pytest.raises(ClosureError, match=r"\(residual nan\) at plaquette \(0, 0\)$") as err:
            discrete_affine_integrate(nu, np.zeros(3))
    assert err.value.site == (0, 0)


def test_integration_exact_on_hypar_lattice():
    h = HL.meta["h"]
    n1, n2 = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    expect = np.stack([n1 * h, n2 * h, n1 * n2 * h * h], axis=-1)
    assert np.max(np.abs(HL.f3_lattice.values - expect)) < 1e-13


# --- defining relations and reports ---------------------------------------


@pytest.mark.parametrize("scn", [HL, MR], ids=lambda s: s.name)
def test_defining_relations(scn):
    rep = discrete_residual(proj_pair(scn))
    assert rep.passed
    assert rep.max_residual() < 1e-12


@pytest.mark.parametrize("scn", [HL, MR], ids=lambda s: s.name)
def test_volume_invariance(scn):
    rep = discrete_det_invariance(aff_pair(scn))
    assert rep.passed
    assert rep.max_residual() < 1e-12


@pytest.mark.parametrize("scn", [HL, MR], ids=lambda s: s.name)
def test_scenario_lattices_are_the_lift_of_its_affine_pair(scn):
    # a fixture stores its affine pair alone: its projective lattices are the
    # lift, computed on each access, and a lattice passed in is used as given
    assert scn.__dict__["_f_lattice"] is None and scn.__dict__["_nu_lattice"] is None
    lifted = lift_to_projective(aff_pair(scn))
    for mine, fresh in ((scn.f_lattice, lifted.f), (scn.nu_lattice, lifted.nu)):
        assert mine.values.tobytes() == fresh.values.tobytes()
        assert mine.values.strides == fresh.values.strides
    given = Scenario(name="given", f3_lattice=scn.f3_lattice, nu3_lattice=scn.nu3_lattice, f_lattice=lifted.nu)
    assert given.f_lattice is lifted.nu
    assert Scenario(name="no surface", nu3_lattice=scn.nu3_lattice).nu_lattice is None


def test_hypar_lattice_volume_value():
    h = HL.meta["h"]
    bf = HL.f3_lattice.values
    d = det_n([bf[1:, :-1] - bf[:-1, :-1], bf[:-1, 1:] - bf[:-1, :-1], bf[1:, 1:] - bf[:-1, :-1]])
    assert np.max(np.abs(np.asarray(d, dtype=float) - h**4)) < 1e-16


def test_forms_values_on_hypar_lattice():
    h = HL.meta["h"]
    forms, rep = discrete_forms(aff_pair(HL))
    assert rep.passed
    assert np.max(np.abs(forms.Omega2 + h * h)) < 1e-15
    assert np.max(np.abs(forms.F2d - h * h)) < 1e-12
    assert np.all(forms.F2d_sign == 1.0)
    assert np.max(np.abs(forms.Omega3)) < 1e-15
    assert np.max(np.abs(forms.Omega3tilde)) < 1e-15


def test_forms_identities_on_random_moutard():
    forms, rep = discrete_forms(aff_pair(MR))
    assert rep.passed
    # the printed variant expressions do not close; their defect is recorded
    assert "omega3_variant_nu2_max_residual" in rep.metadata


def test_continuum_limit_direction():
    """Omega2 / h^2 equals the smooth Blaschke coefficient (-1) exactly
    for the sampled bilinear saddle."""
    for h in (0.1, 0.05):
        scn = scenario("hypar-lattice", h=h)
        forms, _ = discrete_forms(aff_pair(scn))
        assert np.max(np.abs(forms.Omega2 / h**2 + 1.0)) < 1e-12


# --- normalization / scale recursions -------------------------------------


def test_scale_recursions_brute_force_3x3():
    """Check both two-step determinant recursions for s = <T1 f, T2 nu>
    directly on every 3x3 window of a random Moutard lattice."""
    lifted = lift_to_projective(aff_pair(MR))
    fv, v = lifted.f.values, lifted.nu.values
    s = np.asarray(pair(fv[1:, :-1], v[:-1, 1:]), dtype=float)  # s at (n1, n2)
    for n1 in range(4):
        for n2 in range(4):
            lhs_r = s[n1, n2] * s[n1 + 1, n2]
            rhs_r = float(
                det_n([v[n1, n2 + 1], v[n1 + 1, n2], v[n1 + 2, n2], v[n1 + 1, n2 + 1]])
            )
            assert abs(lhs_r - rhs_r) < 1e-9 * max(abs(lhs_r), abs(rhs_r), 1.0)
            lhs_c = s[n1, n2] * s[n1, n2 + 1]
            rhs_c = -float(
                det_n([v[n1 + 1, n2], v[n1, n2 + 1], v[n1, n2 + 2], v[n1 + 1, n2 + 1]])
            )
            assert abs(lhs_c - rhs_c) < 1e-9 * max(abs(lhs_c), abs(rhs_c), 1.0)


def test_scale_propagation_reproduces_surface():
    lifted = lift_to_projective(aff_pair(MR))
    fv, v = lifted.f.values, lifted.nu.values
    s0 = float(pair(fv[1, 0], v[0, 1]))
    f = discrete_scale_propagate(lifted.nu, s0)
    w1, w2 = f.extent
    d = projective_distance(f.values, fv[:w1, :w2])
    assert np.max(d) < 1e-10
    # and the normalization itself matches, not only the direction
    assert np.max(np.abs(f.values - fv[:w1, :w2])) < 1e-8 * np.max(np.abs(fv))


def test_scale_propagation_rejects_incompatible():
    rng = np.random.default_rng(3)
    nu = LatticeField(values=rng.standard_normal((5, 5, 4)) + 2.0)
    with pytest.raises(NotCompatibleError):
        discrete_scale_propagate(nu, 1.0)
    with pytest.raises(DomainError):
        discrete_scale_propagate(lift_to_projective(aff_pair(MR)).nu, 0.0)


# --- compatibility coefficients -------------------------------------------


def test_compat_coeffs_match_pairing_quotients():
    lifted = lift_to_projective(aff_pair(MR))
    out = discrete_compat_coeffs(lifted.nu, f=lifted.f)
    for r in (
        out.a1_pairing_residual,
        out.c1_pairing_residual,
        out.a2_pairing_residual,
        out.c2_pairing_residual,
    ):
        assert np.max(r) < 1e-8


def test_compat_coeffs_reject_random():
    rng = np.random.default_rng(12)
    nu = LatticeField(values=rng.standard_normal((5, 5, 4)) + 2.0)
    with pytest.raises(NotCompatibleError):
        discrete_compat_coeffs(nu)


# --- gauges ---------------------------------------------------------------


def test_lift_satisfies_projective_relations():
    lifted = lift_to_projective(aff_pair(HL))
    rep = discrete_residual(lifted)
    assert rep.max_residual() < 1e-12
    with pytest.raises(DomainError):
        lift_to_projective(lifted)


def test_affine_sphere_check():
    vals = np.zeros((4, 4, 3))
    vals[..., 0] = 1.0
    lat = LatticeField(values=vals)
    pairn = DiscreteSurfacePair(nu=lat, f=lat)
    assert affine_sphere_check(pairn).passed
    rep = affine_sphere_check(aff_pair(HL))
    assert not rep.passed  # the saddle pair is not an affine sphere


def test_a_pair_of_three_and_four_components_is_a_domain_error():
    lifted = lift_to_projective(aff_pair(HL))
    with pytest.raises(DomainError, match="^component count mismatch: 3-component conormal, 4-component surface$"):
        DiscreteSurfacePair(nu=HL.nu3_lattice, f=lifted.f)
    with pytest.raises(DomainError, match="^component count mismatch: 4-component conormal, 3-component surface$"):
        DiscreteSurfacePair(nu=lifted.nu, f=HL.f3_lattice)


# --- random Moutard data --------------------------------------------------


@st.composite
def moutard_data(draw):
    """Boundary strips near the bilinear saddle's, with drawn noise and
    spacing, and a drawn plaquette coefficient H, on an extent in 3..8."""
    m1, m2, h = draw(st.integers(3, 8)), draw(st.integers(3, 8)), draw(st.floats(0.05, 0.5))
    noise = st.floats(-0.05, 0.05)

    def strip(m, axis):
        n = np.arange(m) * h
        base = np.stack([-n if axis else np.zeros(m), np.zeros(m) if axis else -n, np.ones(m)], axis=-1)
        return base + draw(hnp.arrays(np.float64, (m, 3), elements=noise))

    row, col = strip(m1, 0), strip(m2, 1)
    col[0] = row[0]
    return row, col, draw(hnp.arrays(np.float64, (m1 - 1, m2 - 1), elements=st.floats(0.8, 1.2)))


@settings(max_examples=60, deadline=None)
@given(moutard_data(), st.integers(1, 8))
def test_random_moutard_pairs_take_their_gauge_from_the_data_and_tile_to_the_whole(data, rows_per_tile):
    nu3 = moutard_evolve(*data)
    paira = DiscreteSurfacePair(nu=nu3, f=discrete_affine_integrate(nu3, np.zeros(3)))
    pairp = lift_to_projective(paira)
    assert (paira.gauge, pairp.gauge) == ("affine", "projective")
    assert discrete_residual(paira).to_json() == discrete_residual(pairp).to_json()
    with pytest.raises(DomainError):
        DiscreteSurfacePair(nu=nu3, f=pairp.f)
    # verify's row tiles, each cut with its suite's halo, join to the records
    # of one call of each suite on the whole lattice
    whole = InvariantReport()
    for prefix, rep in (("defining_relation", discrete_residual(pairp)),
                        ("volume_invariance", discrete_det_invariance(paira)),
                        ("form_identities", discrete_forms(paira)[1]),
                        ("moutard_closure", None)):
        if rep is None:
            rep = InvariantReport()
            rep.add("moutard_closure", moutard_residual(nu3), LATTICE_TOL)
        for rec in rep.records:
            rec.name = f"discrete/{prefix}/{rec.name}"
            whole.records.append(rec)
    scn = Scenario(name="random", f3_lattice=paira.f, nu3_lattice=nu3, f_lattice=pairp.f, nu_lattice=pairp.nu)
    with mock.patch.object(cli, "TILE_SITES", rows_per_tile * nu3.extent[1]):
        assert len(cli._collect_tasks(scn, suite="discrete")) == 4 * -(-nu3.extent[0] // rows_per_tile)
        assert cli.verify(scn, "discrete").to_json() == whole.to_json()
