"""The one jet type: axis-major partials and a packed Hessian, for any n.

The jet builders that ``fields.jet_grid`` replaced are kept below as
references: the 2-D ``_jets``/``jet_grid`` with named arrays, the
n-axis ``hyper_jet_grid`` with a full symmetric Hessian, ``_hyper_jet``
(which copied the first into the layout of the second), and the
allocating stencil sum they shared.  Every partial of the new jets must
equal its reference slot byte for byte.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit.errors import DomainError
from plmkit.fields import (
    _STENCILS, FieldGrid, JetGrid, _check_fits, _interior, _margin, jet_grid, read_grid, write_grid,
)
from plmkit.scenarios import list_scenarios, scenario

_NAMES = ("d_x", "d_y", "d_xx", "d_xy", "d_yy", "d_xxx", "d_yyy")

# --- references -------------------------------------------------------------


def _ref_difference(v, spacing, m, stencil, parts):
    taps = [list(zip(*_STENCILS[(stencil, p)][:2])) for _, p in parts]
    out = None
    for combo in product(*taps):
        shift = [0] * (v.ndim - 1)
        w = 1.0
        for (axis, _), (off, wt) in zip(parts, combo):
            shift[axis] = off
            w *= wt
        term = w * v[tuple(slice(m + s, N - m + s) for s, N in zip(shift, v.shape))]
        out = term if out is None else out + term
    h = 1.0
    for axis, p in parts:
        h *= spacing[axis] ** _STENCILS[(stencil, p)][2]
    return out / h


def _ref_jets(v, spacing, m, order, stencil):
    """The 2-D jets by name."""
    _check_fits(v.shape[:2], m)

    def d(*parts):
        return _ref_difference(v, spacing, m, stencil, parts)

    jets = dict(value=_interior(v, m), d_x=d((0, 1)), d_y=d((1, 1)), d_xx=d((0, 2)), d_xy=d((0, 1), (1, 1)),
                d_yy=d((1, 2)))
    if order >= 3:
        jets.update(d_xxx=d((0, 3)), d_yyy=d((1, 3)))
    return jets


def _ref_jet_grid(grid, order, stencil):
    m = _margin(stencil, order)
    nx, ny = grid.dims
    _check_fits(grid.dims, m)
    jets = _ref_jets(grid.values, grid.spacing, m, order, stencil)
    xs = grid.origin[0] + grid.spacing[0] * np.arange(nx, dtype=float)
    ys = grid.origin[1] + grid.spacing[1] * np.arange(ny, dtype=float)
    return dict(xs=xs[m : nx - m], ys=ys[m : ny - m], **jets)


def _ref_hyper_jet_grid(grid, stencil, order=2):
    """(value, d1 (..., n, d), d2 (..., n, n, d)); the margin is the one of
    ``order``, and order 3 adds the pure third partials (..., n, d)."""
    m = _margin(stencil, order)
    _check_fits(grid.dims, m)

    def d(*parts):
        return _ref_difference(grid.values, grid.spacing, m, stencil, parts)

    n = len(grid.dims)
    d1 = np.stack([d((a, 1)) for a in range(n)], axis=-2)
    d2 = np.empty(d1.shape[:-2] + (n,) + d1.shape[-2:])
    for a in range(n):
        d2[..., a, a, :] = d((a, 2))
        for c in range(a + 1, n):
            d2[..., a, c, :] = d2[..., c, a, :] = d((a, 1), (c, 1))
    d3 = np.stack([d((a, 3)) for a in range(n)], axis=-2) if order >= 3 else None
    return _interior(grid.values, m), d1, d2, d3


def _ref_hyper_jet(j):
    """The n = 2 hyper layout of named 2-D jets: d1 = (d_x, d_y), d2 the Hessian."""
    d2 = np.stack([np.stack([j["d_xx"], j["d_xy"]], axis=-2), np.stack([j["d_xy"], j["d_yy"]], axis=-2)], axis=-3)
    return np.stack([j["d_x"], j["d_y"]], axis=-2), d2


# --- properties -------------------------------------------------------------


def _is_planar(a):
    """Whether ``a`` (..., d) is stored component-major: every plane a[..., c] C-contiguous."""
    return all(a[..., c].flags.c_contiguous for c in range(a.shape[-1]))


def _same(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@st.composite
def _grids(draw):
    """(grid, order, stencil) with every axis wide enough for the stencil."""
    n = draw(st.sampled_from([2, 3, 4]))
    order, stencil = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 4]))
    m = _margin(stencil, order)
    dims = tuple(2 * m + 1 + draw(st.integers(0, 4 if n == 2 else 1)) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = tuple(float(h) for h in rng.uniform(0.05, 0.3, n))
    origin = tuple(float(o) for o in rng.uniform(-1, 1, n))
    ncomp = draw(st.integers(1, 4)) if n == 2 and draw(st.booleans()) else n + 2
    grid = FieldGrid(origin=origin, spacing=spacing, values=rng.standard_normal(dims + (ncomp,)))
    return grid, order, stencil


@settings(max_examples=80, deadline=None)
@given(case=_grids())
def test_every_partial_equals_its_reference_slot(case):
    grid, order, stencil = case
    jets = jet_grid(grid, order=order, stencil=stencil)
    n = len(grid.dims)
    value, d1, d2, d3 = _ref_hyper_jet_grid(grid, stencil, order)
    assert jets.n == n and jets.order == order and jets.d2.shape[0] == n * (n + 1) // 2
    _same(jets.value, value, "value")
    for a in range(n):
        _same(jets.d1[a], d1[..., a, :], ("d1", a))
        for c in range(n):
            _same(jets.partial2(a, c), d2[..., a, c, :], ("d2", a, c))
        if order >= 3:
            _same(jets.d3[a], d3[..., a, :], ("d3", a))
    if order < 3:
        assert jets.d3 is None
    partials = [*jets.d1, *jets.d2, *([] if jets.d3 is None else jets.d3)]
    assert all(_is_planar(p) for p in partials)
    if n == 2:
        ref = _ref_jet_grid(grid, order, stencil)
        for name in _NAMES + ("value", "xs", "ys"):
            got = getattr(jets, name)
            if name in ref:
                _same(got, ref[name], name)
            else:
                assert got is None, name
        hd1, hd2 = _ref_hyper_jet(ref)
        _same(np.moveaxis(jets.d1, 0, -2), hd1, "hyper d1")
        full = np.stack([np.stack([jets.partial2(a, c) for c in range(2)], axis=-2) for a in range(2)], axis=-3)
        _same(full, hd2, "hyper d2")


def test_batch_index_is_a_view():
    grid = FieldGrid(origin=(0.0, 0.0), spacing=(0.1, 0.1), values=np.random.default_rng(3).standard_normal((9, 7, 4)))
    jets = jet_grid(grid, order=3)
    part = jets[2:5]
    for name in ("value", "d1", "d2", "d3"):
        assert np.shares_memory(getattr(part, name), getattr(jets, name)), name
    assert part.shape == (3, 3) and part.d2.shape == (3, 3, 3, 4)
    _same(part.xs, jets.xs[2:5], "xs")
    assert part.ys is jets.ys
    point = jets[1, 2]
    assert point.shape == () and np.shares_memory(point.d2, jets.d2)
    assert (point.xs, point.ys) == (jets.xs[1], jets.ys[2])


@pytest.mark.parametrize("where", ["value", "d1", "d2", "d3"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_raises(where, bad):
    rng = np.random.default_rng(4)
    arrays = dict(value=rng.standard_normal((3, 2, 4)), d1=rng.standard_normal((2, 3, 2, 4)),
                  d2=rng.standard_normal((3, 3, 2, 4)), d3=rng.standard_normal((2, 3, 2, 4)))
    JetGrid(**arrays)
    arrays[where][(-1,) * arrays[where].ndim] = bad
    with pytest.raises(DomainError, match="non-finite"):
        JetGrid(**arrays)


@pytest.mark.parametrize("where", ["value", "d1", "d2", "d3"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_of_a_broadcast_slot_raises(where, bad):
    # the check reads the values an array stores, once each: a constant slot
    # seen through broadcast_to stores one row of sites
    rng = np.random.default_rng(4)
    batch = (3, 2, 4)
    arrays = dict(value=rng.standard_normal(batch), d1=rng.standard_normal((2,) + batch),
                  d2=rng.standard_normal((3,) + batch), d3=rng.standard_normal((2,) + batch))
    stored = rng.standard_normal(arrays[where].shape[:-3] + (1, 1, 4))
    arrays[where] = np.broadcast_to(stored, arrays[where].shape)
    JetGrid(**arrays)
    stored[(-1,) * stored.ndim] = bad
    with pytest.raises(DomainError, match="^jet contains non-finite entries$"):
        JetGrid(**arrays)
    with pytest.raises(DomainError, match="^jet contains non-finite entries$"):
        JetGrid(**arrays)[1:]


@pytest.mark.parametrize("shapes", [
    dict(value=(3, 4), d1=(2, 3, 4), d2=(4, 3, 4)),  # a full Hessian is not a packed one
    dict(value=(3, 4), d1=(3, 2, 4), d2=(3, 3, 4)),  # batch-major first partials
    dict(value=(3, 4), d1=(2, 3, 4), d2=(3, 3, 4), d3=(3, 3, 4)),
    dict(value=(3, 4), d1=(2, 3, 5), d2=(3, 3, 4)),
])
def test_inconsistent_shapes_raise(shapes):
    with pytest.raises(DomainError, match="shapes"):
        JetGrid(**{k: np.zeros(s) for k, s in shapes.items()})


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("name", _NAMES + ("xs", "ys"))
def test_surface_views_reject_jets_of_other_n(name, n):
    # on an n = 3 jet the slot of d_yy holds the x1x3 partial: a named
    # view there would be another partial, not an error
    rng = np.random.default_rng(n)
    batch = (4, 3, 5)
    jets = JetGrid(value=rng.standard_normal(batch), d1=rng.standard_normal((n,) + batch),
                   d2=rng.standard_normal((n * (n + 1) // 2,) + batch), d3=rng.standard_normal((n,) + batch),
                   axes=tuple(np.arange(4.0) for _ in range(n)))
    assert jets.n == n
    with pytest.raises(DomainError, match=f"{name} is a view of surface"):
        getattr(jets, name)
    with pytest.raises(DomainError):
        getattr(jets[1], name)


def test_surface_views_of_n2_jets_are_their_slots():
    grid = FieldGrid(origin=(0.0, 0.5), spacing=(0.1, 0.2), values=np.random.default_rng(5).standard_normal((7, 7, 4)))
    jets = jet_grid(grid, order=3)
    slots = [jets.d1[0], jets.d1[1], jets.d2[0], jets.d2[1], jets.d2[2], jets.d3[0], jets.d3[1]]
    for name, slot in zip(_NAMES, slots):
        assert getattr(jets, name) is not None and np.shares_memory(getattr(jets, name), slot), name
    assert jets.xs is jets.axes[0] and jets.ys is jets.axes[1]
    assert jet_grid(grid, order=2).d_xxx is None


# --- layout: one contiguous plane per component -----------------------------


def _planes_of(jets):
    """(array name, plane) for every plane of the jets' values and slot arrays."""
    out = []
    for jet in jets:
        for name in ("value", "d1", "d2", "d3"):
            a = getattr(jet, name)
            for field in [] if a is None else [a] if name == "value" else a:
                out += [(name, field[..., c]) for c in range(field.shape[-1])]
    return out


@pytest.mark.parametrize("name", list_scenarios())
def test_fixture_fields_are_stored_one_plane_per_component(name):
    # the closed-form jets of a grid fixture, its affine-gauge grids, and the
    # lattices of a lattice fixture, evolved, integrated and lifted; a
    # constant jet slot is stored once and seen with zero batch strides
    scn = scenario(name)
    closed = scn.closed or scn.hyper_closed
    planes = _planes_of(closed.rows() if closed else ())
    for field in (*scn.value_grids(affine=True), scn.f_lattice, scn.nu_lattice, scn.f3_lattice, scn.nu3_lattice):
        if field is not None:
            planes += [("value", field.values[..., c]) for c in range(field.ncomp)]
    assert planes and all(p.flags.c_contiguous or (name != "value" and not any(p.strides)) for name, p in planes)


@pytest.mark.parametrize("name, constant, planes", [
    ("hypar", 40, 64), ("cubic-graph", 16, 64), ("conj-paraboloid", 24, 48), ("ell-paraboloid", 24, 48)])
def test_constant_jet_slots_are_stored_once(name, constant, planes):
    # a slot array whose partials are all plain numbers, or not given, is one
    # stored row of sites; the others, and every value, are whole planes
    scn = scenario(name, h=0.1)
    jets = (scn.closed or scn.hyper_closed).rows()
    got = _planes_of(jets)
    shared = [(slot, p) for slot, p in got if not any(p.strides)]
    assert (len(shared), len(got)) == (constant, planes)
    assert all(slot != "value" and not p.flags.writeable for slot, p in shared)


@pytest.mark.parametrize("ncomp", [1, 3, 4])
def test_read_grid_values_are_stored_one_plane_per_component(tmp_path, ncomp):
    rng = np.random.default_rng(ncomp)
    grid = FieldGrid(origin=(0.5, -1.0), spacing=(0.25, 0.5), values=rng.standard_normal((6, 5, ncomp)))
    write_grid(grid, tmp_path / "g.csv")
    got = read_grid(tmp_path / "g.csv")
    assert _is_planar(got.values)
    _same(got.values, grid.values, "values")
    # the jets of a planar grid are the jets of the interleaved one, bit for bit
    for order in (2, 3):
        want, jets = jet_grid(grid, order=order), jet_grid(got, order=order)
        for name in ("value", "d1", "d2", "d3")[: order + 1]:
            _same(getattr(jets, name), getattr(want, name), (order, name))
