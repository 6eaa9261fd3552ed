"""Random Moutard lattices in tiles and blocks, bit for bit.

A lattice scenario holds its affine pair alone, and each ``discrete`` tile of
``verify`` reads the affine rows of its base sites and their halo: the two
projective suites lift those rows themselves.  The integrator checks the
Moutard closure in row blocks and computes the Lelieuvre increments into one
planar array, not through ``np.cross``.  With tiles and blocks of a few rows,
each must give the bits of one call over the whole lattice: the lifted rows,
the report, the closure error and the integrated surface.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import cli, discrete
from plmkit.affine import _check_closure, _lelieuvre_sum
from plmkit.discrete import (
    DiscreteSurfacePair,
    discrete_affine_integrate,
    discrete_det_invariance,
    discrete_forms,
    discrete_residual,
    lift_to_projective,
    moutard_evolve,
    moutard_residual,
)
from plmkit.errors import ClosureError
from plmkit.fields import LatticeField
from plmkit.report import LATTICE_TOL, InvariantReport, _check_residual, _check_row_blocks
from plmkit.scenarios import Scenario


@st.composite
def _conormals(draw):
    """A Moutard-evolved conormal of a drawn extent in 3..40: the bilinear
    saddle's strips of a drawn spacing, noise of a drawn scale and H near 1."""
    m1, m2 = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    h, amp = draw(st.floats(0.01, 0.5)), draw(st.floats(0.0, 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = np.stack([np.zeros(m1), -np.arange(m1) * h, np.ones(m1)], axis=-1) + amp * rng.standard_normal((m1, 3))
    col = np.stack([-np.arange(m2) * h, np.zeros(m2), np.ones(m2)], axis=-1) + amp * rng.standard_normal((m2, 3))
    col[0] = row[0]
    return moutard_evolve(row, col, rng.uniform(0.9, 1.1, (m1 - 1, m2 - 1)))


def _lattice(nu3):
    return Scenario(name="random", nu3_lattice=nu3, f3_lattice=discrete_affine_integrate(nu3, np.zeros(3)))


def _untiled(scn):
    """One call of each discrete suite on the whole lattice."""
    paira = DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice)
    closure = InvariantReport()
    closure.add("moutard_closure", moutard_residual(scn.nu3_lattice), LATTICE_TOL)
    rep = InvariantReport()
    for prefix, suite in (("defining_relation", discrete_residual(paira)),
                          ("volume_invariance", discrete_det_invariance(paira)),
                          ("form_identities", discrete_forms(paira)[1]), ("moutard_closure", closure)):
        for record in suite.records:
            record.name = f"discrete/{prefix}/{record.name}"
            rep.records.append(record)
    return rep


def _row_offset(view, whole):
    """The first row of ``whole`` that the row window ``view`` starts at."""
    delta = view.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
    assert delta % whole.strides[0] == 0 and view.strides == whole.strides
    return delta // whole.strides[0]


@settings(max_examples=40, deadline=None)
@given(nu3=_conormals(), rows_per_tile=st.integers(1, 6))
def test_tiles_lift_their_own_rows_and_join_to_the_untiled_report(nu3, rows_per_tile):
    scn = _lattice(nu3)
    expected = _untiled(scn).to_json()
    whole = lift_to_projective(DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice))
    m2 = nu3.extent[1]
    lifted = []
    lift = discrete.lift_to_projective
    with mock.patch.object(cli, "TILE_SITES", rows_per_tile * m2), \
            mock.patch.object(discrete, "lift_to_projective", lambda p: lifted.append((p, lift(p))) or lifted[-1][1]):
        assert cli.verify(scn, "discrete").to_json() == expected
    # each of the two projective suites lifts every tile's window: its base
    # rows and the row past them, views of the affine lattices
    covered = np.zeros(nu3.extent[0], dtype=int)
    for rows, got in lifted:
        start = _row_offset(rows.f.values, scn.f3_lattice.values)
        assert _row_offset(rows.nu.values, scn.nu3_lattice.values) == start
        n = rows.extent[0]
        assert rows.extent[1] == m2 and 1 <= n <= rows_per_tile + 1
        covered[start : start + min(n, rows_per_tile)] += 1
        for mine, want in ((got.f, whole.f), (got.nu, whole.nu)):
            assert mine.values.tobytes() == want.values[start : start + n].tobytes()
    assert (covered == 2).all()


def _planted(nu3, defects):
    """nu3 with each (site, kind) defect planted: a small offset, which the
    closure test sees, or an entry of 1e200, whose products overflow to a NaN
    residual."""
    v = np.array(nu3.values)
    for (i, j), kind in defects:
        v[i, j] = 1e200 if kind == "nan" else v[i, j] + kind
    return LatticeField(values=v)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), nu3=_conormals(), block_sites=st.integers(1, 200))
def test_blockwise_closure_check_raises_the_whole_lattice_error(data, nu3, block_sites):
    m1, m2 = nu3.extent
    step = max(1, block_sites // (m2 - 1))
    # a defect moves the plaquettes about its site: aim at a block's first
    # and last plaquette rows as well as anywhere
    rows = st.sampled_from(sorted({min(r, m1 - 1) for k in range(0, m1, step) for r in (k, k + step - 1, k + step)}))
    site = st.tuples(rows | st.integers(0, m1 - 1), st.integers(0, m2 - 1))
    kind = st.sampled_from(["nan", 1e-3, -2e-6, 5e-9])
    nu = _planted(nu3, data.draw(st.lists(st.tuples(site, kind), max_size=3)))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _check_closure([moutard_residual(nu)], LATTICE_TOL, "Moutard closure violated", "plaquette")
            expected = None
        except ClosureError as exc:
            expected = (str(exc), exc.site)
        with mock.patch.object(discrete, "_CLOSURE_BLOCK_SITES", block_sites):
            if expected is None:
                f = discrete_affine_integrate(nu, np.zeros(3))
                assert f.values.tobytes() == _lelieuvre_sum(nu.values, np.zeros(3)).tobytes()
            else:
                with pytest.raises(ClosureError) as got:
                    discrete_affine_integrate(nu, np.zeros(3))
                assert (str(got.value), got.value.site) == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(0, 12), st.integers(0, 5)))
def test_row_blocks_give_the_worst_site_of_the_whole_field(data, shape):
    # ties between blocks, NaNs in several blocks and empty blocks: the first
    # NaN, else the first maximum, as numpy's argmax takes them
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0, np.nan])
    size = shape[0] * shape[1]
    field = np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)
    cuts = sorted(data.draw(st.lists(st.integers(0, shape[0]), max_size=4)))
    blocks = [field[a:b] for a, b in zip([0, *cuts], [*cuts, shape[0]])]

    def outcome(check, arg):
        try:
            check(arg, 0.75, lambda site, r: ValueError(site, r))
        except ValueError as exc:
            return exc.args[0], repr(exc.args[1])
        return None

    assert outcome(_check_row_blocks, blocks) == outcome(_check_residual, field)


def _lelieuvre_sum_ref(v, f0):
    """The Lelieuvre sum with np.cross increments, as the integrators took it."""
    d1 = np.cross(v[:-1, 0], v[1:, 0])
    d2 = -np.cross(v[:, :-1], v[:, 1:])
    f = np.empty(v.shape[:2] + (3,))
    f[0, 0] = np.asarray(f0, dtype=float)
    f[1:, 0] = f[0, 0] + np.cumsum(d1, axis=0)
    f[:, 1:] = f[:, :1] + np.cumsum(d2, axis=1)
    return f


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       scale=st.integers(-150, 150), planar=st.booleans())
def test_lelieuvre_sum_keeps_the_bits_of_the_cross_products(data, shape, scale, planar):
    # signed zeros and repeated entries make increments of exact zeros, whose
    # sign the sums keep; component-major or interleaved conormals alike
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(shape + (3,)) * 10.0**scale
    v[rng.random(v.shape) < 0.2] = 0.0
    v[rng.random(v.shape) < 0.1] = -0.0
    for axis in (0, 1):  # sites that repeat their neighbour's value
        same = rng.random(shape) < 0.2
        v[same] = np.roll(v, 1, axis=axis)[same]
    if planar:
        v = np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1)
    f0 = data.draw(st.sampled_from([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.5, -2.0, 1e-300]]))
    got = _lelieuvre_sum(v, f0)
    want = _lelieuvre_sum_ref(v, f0)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert all(got[..., c].flags.c_contiguous for c in range(3))  # stored component-major
