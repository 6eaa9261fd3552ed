"""Fixture self-checks and determinism."""

import numpy as np
import pytest

from plmkit.affine import AffineSurfacePair, affine_forms
from plmkit.discrete import DiscreteSurfacePair, discrete_residual
from plmkit.errors import DomainError
from plmkit.hyper import hyper_plm_residual
from plmkit.scenarios import list_scenarios, scenario
from plmkit.smooth import plm_residual


def test_listing_is_sorted_and_complete():
    names = list_scenarios()
    assert names == sorted(names)
    for expected in ("hypar", "cubic-graph", "conj-paraboloid", "ell-paraboloid",
                     "hypar-lattice", "moutard-random"):
        assert expected in names


def test_unknown_name_lists_available():
    with pytest.raises(DomainError) as err:
        scenario("nope")
    for name in list_scenarios():
        assert name in str(err.value)


def test_unknown_parameter_names_the_accepted_ones():
    with pytest.raises(DomainError) as err:
        scenario("hypar", size=5, seed=1)
    msg = str(err.value)
    assert "does not take seed, size" in msg
    for accepted in ("x0", "x1", "y0", "y1", "h"):
        assert accepted in msg


@pytest.mark.parametrize("name", list_scenarios())
def test_every_scenario_passes_its_own_residual_check(name):
    scn = scenario(name)
    checked = False
    if scn.f_jets is not None:
        rep = plm_residual(scn.f_jets, scn.nu_jets, chart=scn.chart)
        assert rep.max_residual() < 1e-12, name
        checked = True
    if scn.hyper_f_jet is not None:
        rep = hyper_plm_residual(scn.hyper_f_jet, scn.hyper_nu_jet, scn.amatrix)
        assert rep.max_residual() < 1e-12, name
        checked = True
    if scn.nu_lattice is not None:
        pairn = DiscreteSurfacePair(nu=scn.nu_lattice, f=scn.f_lattice, gauge="projective")
        rep = discrete_residual(pairn)
        assert rep.max_residual() < 1e-12, name
        checked = True
    if scn.f3_grid is not None:
        _, rep = affine_forms(AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid))
        assert rep.passed, name
        checked = True
    assert checked, f"scenario {name} emitted nothing checkable"


def test_seeded_generation_is_deterministic():
    a = scenario("moutard-random", seed=7, size=10)
    b = scenario("moutard-random", seed=7, size=10)
    assert np.array_equal(a.nu3_lattice.values, b.nu3_lattice.values)
    assert np.array_equal(a.f3_lattice.values, b.f3_lattice.values)
    c = scenario("moutard-random", seed=8, size=10)
    assert not np.array_equal(a.nu3_lattice.values, c.nu3_lattice.values)


def test_parameter_overrides():
    scn = scenario("hypar", h=0.1, x0=0.0, x1=0.5, y0=0.0, y1=0.5)
    assert scn.f_grid.dims == (6, 6)
    assert scn.meta["h"] == 0.1
    lat = scenario("hypar-lattice", h=0.2, size=5)
    assert lat.nu3_lattice.extent == (5, 5)
    assert np.isclose(lat.ground_truth["Omega2"], -0.04)


def test_ground_truth_fields_present():
    assert scenario("hypar").ground_truth["blaschke_F"] == -1.0
    assert scenario("cubic-graph").ground_truth["F3_abs"] == 0.5
    assert scenario("ell-paraboloid").ground_truth["A"] == [[1.0, 0.0], [0.0, 1.0]]
