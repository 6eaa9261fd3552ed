"""Grids, finite-difference jets, lattices and CSV round trips."""

import numpy as np
import pytest

from plmkit.errors import BoundaryError, DomainError, ParseError
from plmkit.fields import (
    FieldGrid,
    LatticeField,
    grid_on_sites,
    jet_grid,
    read_grid,
    read_lattice,
    write_grid,
    write_lattice,
)


def poly_grid(h=0.1, n=11, trig=False):
    xs = h * np.arange(n) - 0.5
    ys = h * np.arange(n) - 0.5
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if trig:
        v = np.stack([np.sin(X + 2 * Y), np.cos(X) * Y, X * 0 + 1.0], axis=-1)
    else:
        # cubic in each variable: 2nd-order stencils are exact on it for
        # first derivatives only at symmetric points; use exact checks on
        # low-degree parts instead
        v = np.stack([X**2 * Y, X * Y, X + Y], axis=-1)
    return FieldGrid(origin=(xs[0], ys[0]), spacing=(h, h), values=v)


def test_jet_exact_on_quadratic_polynomials():
    g = poly_grid()
    jg = jet_grid(g, order=2, stencil=2)
    X, Y = np.meshgrid(jg.xs, jg.ys, indexing="ij")
    assert np.allclose(jg.d_x[..., 1], Y, atol=1e-12)
    assert np.allclose(jg.d_y[..., 1], X, atol=1e-12)
    assert np.allclose(jg.d_xy[..., 1], 1.0, atol=1e-11)
    assert np.allclose(jg.d_xx[..., 0], 2 * Y, atol=1e-10)
    assert np.allclose(jg.d_yy[..., 0], 0.0, atol=1e-10)


def test_third_derivatives_exact_on_cubic():
    h = 0.1
    xs = h * np.arange(9) - 0.4
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    v = np.stack([X**3, Y**3, X * 0 + 1], axis=-1)
    g = FieldGrid(origin=(xs[0], xs[0]), spacing=(h, h), values=v)
    jg = jet_grid(g, order=3, stencil=2)
    assert np.allclose(jg.d_xxx[..., 0], 6.0, atol=1e-9)
    assert np.allclose(jg.d_yyy[..., 1], 6.0, atol=1e-9)
    assert np.allclose(jg.d_xxx[..., 1], 0.0, atol=1e-9)


@pytest.mark.parametrize("stencil,order_expected", [(2, 2.0), (4, 4.0)])
def test_stencil_convergence_order(stencil, order_expected):
    errs = []
    for h in (0.1, 0.05, 0.025):
        n = int(round(1.0 / h)) + 1
        xs = h * np.arange(n) - 0.5
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        v = np.stack([np.sin(X + 2 * Y)], axis=-1)
        g = FieldGrid(origin=(xs[0], xs[0]), spacing=(h, h), values=v)
        jg = jet_grid(g, order=2, stencil=stencil)
        Xc, Yc = np.meshgrid(jg.xs, jg.ys, indexing="ij")
        errs.append(np.max(np.abs(jg.d_x[..., 0] - np.cos(Xc + 2 * Yc))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= order_expected - 0.3


def test_jet_grid_rejects_bad_options():
    g = poly_grid()
    with pytest.raises(DomainError):
        jet_grid(g, order=4)
    with pytest.raises(DomainError):
        jet_grid(g, stencil=3)
    with pytest.raises(BoundaryError):
        jet_grid(poly_grid(n=3), order=3, stencil=4)


def test_grid_validation():
    with pytest.raises(DomainError):
        FieldGrid(origin=(0, 0), spacing=(0.1, -0.1), values=np.zeros((3, 3, 2)))
    with pytest.raises(DomainError):
        FieldGrid(origin=(0, 0), spacing=(0.1, 0.1), values=np.zeros((3, 3)))
    bad = np.zeros((3, 3, 2))
    bad[1, 1, 0] = np.nan
    with pytest.raises(DomainError):
        FieldGrid(origin=(0, 0), spacing=(0.1, 0.1), values=bad)


def test_grid_csv_round_trip_bitwise(tmp_path):
    g = poly_grid(trig=True)
    path = tmp_path / "g.csv"
    write_grid(g, path)
    g2 = read_grid(path)
    assert g2.dims == g.dims
    assert np.array_equal(g2.values, g.values)
    assert g2.origin == g.origin
    # spacing is recovered from coordinate differences: 1-ulp tolerance
    assert np.allclose(g2.spacing, g.spacing, rtol=1e-15)


def test_grid_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        read_grid(p)
    p.write_text("a,b,v1\n")
    with pytest.raises(ParseError):
        read_grid(p)
    p.write_text("x,y,v1\n0,0\n")
    with pytest.raises(ParseError) as err:
        read_grid(p)
    assert err.value.line == 2
    p.write_text("x,y,v1\n0,0,zap\n")
    with pytest.raises(ParseError):
        read_grid(p)
    # non-uniform spacing
    p.write_text("x,y,v1\n0,0,1\n0.1,0,1\n0.3,0,1\n")
    with pytest.raises(ParseError):
        read_grid(p)


def test_lattice_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    lat = LatticeField(values=rng.standard_normal((6, 4, 4)))
    path = tmp_path / "lat.csv"
    write_lattice(lat, path)
    lat2 = read_lattice(path)
    assert np.array_equal(lat2.values, lat.values)


def test_lattice_component_guard():
    with pytest.raises(DomainError):
        LatticeField(values=np.zeros((3, 3, 2)))


@pytest.mark.parametrize("dims", [(4,), (4, 3), (3, 2, 5), (2, 3, 2, 3)])
def test_axes_are_the_site_coordinates_of_any_n(dims):
    n = len(dims)
    origin, spacing = tuple(0.25 * a - 1 for a in range(n)), tuple(0.1 * (a + 1) for a in range(n))
    g = FieldGrid(origin=origin, spacing=spacing, values=np.zeros(dims + (2,)))
    assert (g.n, g.dims, g.ncomp) == (n, dims, 2)
    assert len(g.axes) == n
    for a, c in enumerate(g.axes):
        want = np.array([origin[a] + spacing[a] * i for i in range(dims[a])])
        assert c.dtype == float and c.tobytes() == want.tobytes()


@pytest.mark.parametrize("origin,spacing,shape", [
    ((0.0, 0.0), (0.1,), (3, 3, 2)),  # spacing shorter than the axes
    ((0.0,), (0.1, 0.1), (3, 3, 2)),  # origin shorter than the axes
    ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (3, 3, 2)),  # more axes named than sampled
    ((), (), (2,)),  # no parameter axis
    ((0.0, 0.0, 0.0), (0.1, 0.0, 0.1), (3, 3, 3, 2)),
])
def test_grid_axes_must_match_origin_and_spacing(origin, spacing, shape):
    with pytest.raises(DomainError):
        FieldGrid(origin=origin, spacing=spacing, values=np.zeros(shape))


def test_grid_csv_takes_2_axis_grids_only(tmp_path):
    g = FieldGrid(origin=(0.0,) * 3, spacing=(0.1,) * 3, values=np.zeros((3, 3, 3, 5)))
    with pytest.raises(DomainError, match="2-axis"):
        write_grid(g, tmp_path / "g.csv")
    assert not (tmp_path / "g.csv").exists()


def test_grid_on_sites_of_n_axis_jets():
    g = FieldGrid(origin=(0.0, 1.0, -1.0), spacing=(0.5, 0.25, 0.125), values=np.zeros((5, 6, 7, 5)))
    jets = jet_grid(g)
    back = grid_on_sites(jets, jets.value)
    assert back.dims == (3, 4, 5)
    assert back.origin == (0.5, 1.25, -0.875) and back.spacing == (0.5, 0.25, 0.125)
    for got, want in zip(back.axes, jets.axes):
        assert np.array_equal(got, want)
