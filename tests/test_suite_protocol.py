"""The suite protocol: every suite ``verify`` runs adds its records to ``report=``.

Given a ResidualTile, a suite keeps each residual field unreduced; given no
report, it returns an InvariantReport of its own.  ``verify`` reduces the
kept fields of each tile and builds every record it prints from them, so they
must reduce, byte for byte, to the records of the suite's own report: same
names, same order, same tolerances, same statistics.  ``closure_residual`` returns its field, and
``verify``'s conormal-closure suite keeps it under its record's name;
``verify``'s lattice form suite keeps the records of ``discrete_forms``.
"""

import json

import numpy as np
import pytest

from plmkit import cli
from plmkit.affine import AffineSurfacePair, affine_forms, closure_residual
from plmkit.discrete import DiscreteSurfacePair, discrete_det_invariance, discrete_forms, discrete_residual
from plmkit.fields import FieldGrid, JetGrid, jet_grid
from plmkit.hyper import AMatrix, hyper_compat_residual, hyper_plm_residual
from plmkit.report import IdentityRecord, InvariantReport, ResidualTile
from plmkit.scenarios import Scenario, scenario
from plmkit.smooth import ChartKind, det_invariance_report, orthogonality_report, plm_residual


def _sampled(name, order):
    """The jets of a fixture's sampled grids: finite differences give residuals that are not all zero."""
    scn = scenario(name, h=0.1)
    return jet_grid(scn.f_grid, order=order), jet_grid(scn.nu_grid, order=order)


def _random_hyper_pair():
    rng = np.random.default_rng(5)
    shape = (5, 4, 4)
    f, nu = (JetGrid(value=rng.standard_normal(shape), d1=rng.standard_normal((2,) + shape),
                     d2=rng.standard_normal((3,) + shape)) for _ in range(2))
    return f, nu, AMatrix(np.array([[1.0, 0.3], [0.3, 2.0]]))


def _lattice_pairs():
    scn = scenario("moutard-random", size=12)
    return (DiscreteSurfacePair(nu=scn.nu_lattice, f=scn.f_lattice),
            DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice))


def _affine_pair():
    scn = scenario("hypar", h=0.1)
    return AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid)


def _table_suite(name, scn, report):
    """``verify``'s suite ``name`` of its suite table, run on the whole batch of its inputs from ``scn``."""
    (suite,) = (s for s in cli._SUITES if f"{s.family}/{s.name}" == name)
    _, _, inputs = suite.source(suite, scn, 2)
    suite.run(*inputs(slice(None)), report=report)
    return report


def _conormal_closure(report):
    # verify's suite around closure_residual; the suite's own report is the
    # record of the field closure_residual returns.  The hypar's conormal
    # closes exactly, so take random values, which do not
    values = np.random.default_rng(6).standard_normal((7, 6, 3))
    pairg = AffineSurfacePair(*(FieldGrid(origin=(0.0, 0.0), spacing=(0.1, 0.1), values=values) for _ in range(2)))
    if report is None:
        report = InvariantReport()
        report.add("conormal_closure", closure_residual(pairg.nu)[0], 1e-8)
        return report
    return _table_suite("affine/conormal_closure", Scenario(name="random", f3_grid=pairg.f, nu3_grid=pairg.nu),
                        report)


def _lattice_form_identities(report):
    # verify's lattice form suite: the records of discrete_forms, on tiles
    # that build none of its F fields
    if report is None:
        return discrete_forms(_lattice_pairs()[1])[1]
    return _table_suite("discrete/form_identities", scenario("moutard-random", size=12), report)


def _smooth(fn, fixture, chart):
    # the asymptotic determinants take order-3 jets, as verify gives them
    order = 3 if fn is det_invariance_report and chart is ChartKind.ASYMPTOTIC else 2
    return lambda report: fn(*_sampled(fixture, order), chart, report=report)


def _hyper_plm(report):
    f, nu, A = _random_hyper_pair()
    return hyper_plm_residual(f, nu, A, report=report)


def _hyper_compat(report):
    _, nu, A = _random_hyper_pair()
    return hyper_compat_residual(nu, A, report=report)


# each case calls one suite with ``report`` and returns the report it filled
CASES = {
    **{f"{fn.__name__}-{chart.value}": _smooth(fn, fixture, chart)
       for fn in (plm_residual, orthogonality_report, det_invariance_report)
       for fixture, chart in (("cubic-graph", ChartKind.ASYMPTOTIC), ("conj-paraboloid", ChartKind.CONJUGATE))},
    "hyper_plm_residual": _hyper_plm,
    "hyper_compat_residual": _hyper_compat,
    "affine_forms": lambda report: affine_forms(_affine_pair(), report=report)[1],
    "closure_residual": _conormal_closure,
    "discrete_residual": lambda report: discrete_residual(_lattice_pairs()[0], report=report),
    "discrete_det_invariance": lambda report: discrete_det_invariance(_lattice_pairs()[1], report=report),
    "discrete_residual-affine": lambda report: discrete_residual(_lattice_pairs()[1], report=report),
    "discrete_forms": lambda report: discrete_forms(_lattice_pairs()[1], report=report)[1],
    "form_identities": _lattice_form_identities,
}


def _json(records):
    return json.dumps([rec.to_dict() for rec in records])


@pytest.mark.parametrize("case", sorted(CASES))
def test_tile_fields_reduce_to_the_suites_own_records(case):
    call = CASES[case]
    own = call(None)
    assert isinstance(own, InvariantReport) and own.records
    assert any(rec.max_residual > 0 for rec in own.records)  # the statistics are not all trivially 0
    tile = ResidualTile()
    assert call(tile) is tile
    assert _json(IdentityRecord.from_field(*field) for field in tile.fields) == _json(own.records)
    given = InvariantReport()
    assert call(given) is given and _json(given.records) == _json(own.records)


def test_discrete_forms_notes_its_variant_residuals_in_a_tile():
    # the residuals of the variant determinant readings go beside the
    # records, in a tile as in the suite's own report
    _, paira = _lattice_pairs()
    own = discrete_forms(paira)[1]
    tile = ResidualTile()
    discrete_forms(paira, report=tile)
    variants = {"omega3_variant_nu2_max_residual", "omega3tilde_variant_sign_max_residual"}
    assert set(tile.metadata) == variants and tile.metadata == {k: own.metadata[k] for k in variants}
