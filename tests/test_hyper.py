"""Hypersurface correspondence in dimensions n = 2 and 3."""

import re

import numpy as np
import pytest

from plmkit.errors import DegeneratePointError, DomainError, PivotMismatchError
from plmkit.fields import FieldGrid, JetGrid, jet_grid
from plmkit.hyper import (
    AMatrix,
    hyper_compat_residual,
    hyper_plm_residual,
    hyper_reconstruct,
    read_amatrix_field,
    read_hyper_grid,
    recover_A,
    write_amatrix_field,
    write_hyper_grid,
)
from plmkit.projective import projective_distance
from plmkit.scenarios import scenario
from plmkit.smooth import ChartKind, reconstruct_field

ELL = scenario("ell-paraboloid")


def hypar_hyper_jets(h=0.1, n=11):
    """The bilinear saddle as an n = 2 system with A antidiagonal(-2)."""
    xs = h * np.arange(n) - 0.5
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    one, zero = np.ones_like(X), np.zeros_like(X)
    nval = np.stack([-Y, -X, one, -X * Y], axis=-1)
    nd1 = np.stack([np.stack([zero, -one, zero, -Y], axis=-1), np.stack([-one, zero, zero, -X], axis=-1)])
    z4 = np.zeros(X.shape + (4,))
    e4 = np.stack([zero, zero, zero, -one], axis=-1)
    nd2 = np.stack([z4, e4, z4])  # xx, xy, yy
    fval = np.stack([X, Y, X * Y, -one], axis=-1)
    return JetGrid(value=nval, d1=nd1, d2=nd2), fval, xs


def paraboloid3_jets(h=0.25, n=5):
    """Elliptic paraboloid in R^4 as an n = 3 system with A = I."""
    xs = h * np.arange(n) - 0.5
    X1, X2, X3 = np.meshgrid(xs, xs, xs, indexing="ij")
    R = (X1**2 + X2**2 + X3**2) / 2
    one, zero = np.ones_like(X1), np.zeros_like(X1)
    Xs = [X1, X2, X3]
    fval = np.stack(Xs + [R, -one], axis=-1)
    fd1 = np.stack([np.stack([one * (a == b) for b in range(3)] + [Xs[a], zero], axis=-1) for a in range(3)])
    e4 = np.stack([zero, zero, zero, one, zero], axis=-1)
    z5 = np.zeros(X1.shape + (5,))
    pairs = [(a, c) for a in range(3) for c in range(a, 3)]  # the packed slots
    fd2 = np.stack([e4 if a == c else z5 for a, c in pairs])
    nval = np.stack([-X1, -X2, -X3, one, -R], axis=-1)
    nd1 = np.stack([np.stack([-one * (a == b) for b in range(3)] + [zero, -Xs[a]], axis=-1) for a in range(3)])
    e5 = np.stack([zero, zero, zero, zero, -one], axis=-1)
    nd2 = np.stack([e5 if a == c else z5 for a, c in pairs])
    return JetGrid(value=fval, d1=fd1, d2=fd2), JetGrid(value=nval, d1=nd1, d2=nd2)


# --- n = 2 elliptic paraboloid (A = I) ------------------------------------


def test_defining_relation_ell_paraboloid():
    rep = hyper_plm_residual(ELL.hyper_f_jet, ELL.hyper_nu_jet, ELL.amatrix)
    assert rep.max_residual() < 1e-12
    assert rep.passed


def test_compatibility_ell_paraboloid():
    rep = hyper_compat_residual(ELL.hyper_nu_jet, ELL.amatrix)
    assert rep.max_residual() < 1e-10


def test_compatibility_zero_combination_takes_one_norm(monkeypatch):
    # every combination of the paraboloid vanishes: one _norm each, no span solve
    from plmkit import hyper

    calls = []
    norm = hyper._norm
    monkeypatch.setattr(hyper, "_norm", lambda a: calls.append(1) or norm(a))
    monkeypatch.setattr(hyper, "_span_distance", None)
    rep = hyper_compat_residual(ELL.hyper_nu_jet, ELL.amatrix)
    assert len(calls) == len(rep.records) == 12
    assert all(rec.max_residual == 0.0 for rec in rep.records)


def test_recover_A_identity():
    A = recover_A(ELL.hyper_f_jet, ELL.hyper_nu_jet)
    assert A.shape[-2:] == (2, 2)
    diag = np.stack([A[..., 0, 0], A[..., 1, 1]], axis=-1)
    off = np.stack([A[..., 0, 1], A[..., 1, 0]], axis=-1)
    assert np.max(np.abs(np.abs(diag) - 1.0)) < 1e-10
    assert np.max(np.abs(off)) < 1e-12


def test_round_trip_recovered_A_reconstructs():
    A = recover_A(ELL.hyper_f_jet, ELL.hyper_nu_jet)
    f = hyper_reconstruct(ELL.hyper_nu_jet, A)
    assert np.max(projective_distance(f, ELL.hyper_f_jet.value)) < 1e-12


# --- n = 2 reduction to the smooth asymptotic chart -----------------------


def test_antidiagonal_reduction_matches_smooth_chart():
    nj, fval, _ = hypar_hyper_jets()
    A = AMatrix([[0.0, -2.0], [-2.0, 0.0]])
    f = hyper_reconstruct(nj, A, pivot=(1, 2))
    assert np.max(projective_distance(f, fval)) < 1e-12
    smooth_f, bad = reconstruct_field(scenario("hypar").nu_jets, ChartKind.ASYMPTOTIC)
    assert not bad.any()
    # same surface from both code paths
    f_here = hyper_reconstruct(nj, A, pivot=(2, 1))
    assert np.max(projective_distance(f_here, f)) < 1e-12


def test_pivot_independence():
    nj, _, _ = hypar_hyper_jets()
    A = AMatrix([[0.0, -2.0], [-2.0, 0.0]])
    f12 = hyper_reconstruct(nj, A, pivot=(1, 2))
    f21 = hyper_reconstruct(nj, A, pivot=(2, 1))
    assert np.max(projective_distance(f12, f21)) < 1e-12


def test_degenerate_pivot_rejected():
    nj, _, _ = hypar_hyper_jets()
    A = AMatrix([[0.0, -2.0], [-2.0, 0.0]])
    # the (1,1) second partial vanishes on the saddle: degenerate pivot
    with pytest.raises(DegeneratePointError):
        hyper_reconstruct(nj, A, pivot=(1, 1))


def test_pivot_sign_mismatch_rejected():
    A = AMatrix([[-1.0, 0.5], [0.5, -1.0]])
    with pytest.raises(PivotMismatchError):
        hyper_reconstruct(ELL.hyper_nu_jet, A, pivot=(1, 1))


@pytest.mark.parametrize("pivot", [(1.5, 1), (1,), "11", (1, 2, 1), 1, (0, 1), (1, 3), (None, 1)])
def test_a_pivot_that_is_not_two_integers_in_range_is_a_domain_error(pivot):
    with pytest.raises(DomainError, match="^pivot " + re.escape(repr(pivot))):
        hyper_reconstruct(ELL.hyper_nu_jet, ELL.amatrix, pivot=pivot)


def test_a_pivot_of_numpy_integers_is_taken():
    f = hyper_reconstruct(ELL.hyper_nu_jet, ELL.amatrix)
    for pivot in ((np.int64(1), np.int32(1)), np.array([1, 1])):
        assert np.array_equal(hyper_reconstruct(ELL.hyper_nu_jet, ELL.amatrix, pivot=pivot), f)


def test_homogeneity_of_reconstruction():
    jet = ELL.hyper_nu_jet
    lam = 1.7
    scaled = JetGrid(value=lam * jet.value, d1=lam * jet.d1, d2=lam * jet.d2)
    f1 = hyper_reconstruct(jet, ELL.amatrix)
    f2 = hyper_reconstruct(scaled, ELL.amatrix)
    assert np.max(projective_distance(f1, f2)) < 1e-12


# --- n = 3 ----------------------------------------------------------------


def test_n3_defining_relation_and_recovery():
    # with an odd parameter count the same paraboloid pair carries -I
    fj, nj = paraboloid3_jets()
    An = AMatrix(-np.eye(3))
    rep = hyper_plm_residual(fj, nj, An)
    assert rep.max_residual() < 1e-12
    A = recover_A(fj, nj)
    assert np.max(np.abs(A + np.eye(3))) < 1e-10
    f = hyper_reconstruct(nj, An)
    assert np.max(projective_distance(f, fj.value)) < 1e-12


def test_each_slot_star_is_made_once(monkeypatch):
    # per-site weights, all non-zero: every row weighs every slot star, and
    # each star is still made once, held until the last row that reads it
    from plmkit import hyper

    fj, nj = paraboloid3_jets()
    made = []
    star_of_wedge = hyper.star_of_wedge
    monkeypatch.setattr(hyper, "star_of_wedge", lambda vecs: made.append(1) or star_of_wedge(vecs))
    hyper_plm_residual(fj, nj, np.broadcast_to(np.eye(3) + 0.5, nj.shape + (3, 3)))
    assert len(made) == 3


def test_n3_compatibility():
    fj, nj = paraboloid3_jets()
    rep = hyper_compat_residual(nj, AMatrix(-np.eye(3)))
    assert rep.max_residual() < 1e-10


# --- finite differences and I/O ------------------------------------------


def test_fd_jets_match_analytic():
    grid = ELL.hyper_nu_grid
    jets = jet_grid(grid, stencil=2)
    an = ELL.hyper_nu_jet[1:-1, 1:-1]
    # quadratic components: second-order stencils are exact
    assert np.max(np.abs(jets.value - an.value)) < 1e-12
    assert np.max(np.abs(jets.d1 - an.d1)) < 1e-10
    assert np.max(np.abs(jets.d2 - an.d2)) < 1e-9


@pytest.mark.parametrize("stencil", [2, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fd_second_derivatives_exactly_symmetric(n, stencil):
    from plmkit.fields import _difference, _margin

    rng = np.random.default_rng(10 * n + stencil)
    grid = FieldGrid(origin=(0.0,) * n, spacing=tuple(rng.uniform(0.05, 0.2, n)),
                     values=rng.standard_normal((6,) * n + (n + 2,)))
    jets = jet_grid(grid, stencil=stencil)
    assert jets.d2.shape[0] == n * (n + 1) // 2  # each second partial is held once
    m = _margin(stencil, 2)
    for a in range(n):
        assert np.array_equal(jets.partial2(a, a), _difference(grid.values, grid.spacing, m, stencil, ((a, 2),)))
        for c in range(a + 1, n):
            mixed = _difference(grid.values, grid.spacing, m, stencil, ((a, 1), (c, 1)))
            assert np.array_equal(jets.partial2(a, c), mixed)
            assert np.shares_memory(jets.partial2(c, a), jets.partial2(a, c))


def test_fd_reconstruction_close():
    jets = jet_grid(ELL.hyper_nu_grid, stencil=2)
    f = hyper_reconstruct(jets, ELL.amatrix)
    sl = (slice(1, -1), slice(1, -1))
    assert np.max(projective_distance(f, ELL.hyper_f_jet.value[sl])) < 1e-9


def test_amatrix_guards():
    with pytest.raises(DomainError):
        AMatrix([[1.0, 1.0], [1.0, 1.0]])  # singular
    with pytest.raises(DomainError):
        AMatrix(np.eye(5))  # n out of supported range


def test_hyper_grid_csv_round_trip(tmp_path):
    path = tmp_path / "nu.csv"
    write_hyper_grid(ELL.hyper_nu_grid, path)
    g2 = read_hyper_grid(path)
    assert g2.n == 2
    assert np.array_equal(g2.values, ELL.hyper_nu_grid.values)


@pytest.mark.parametrize("shape", [
    (4, 3),  # one axis
    (3, 3, 3, 3, 3, 7),  # five axes
    (4, 4, 3),  # 3 components for 2 axes
    (3, 3, 3, 4),  # 4 components for 3 axes
])
def test_hyper_grid_csv_takes_n_axes_and_n_plus_2_components(tmp_path, shape):
    n = len(shape) - 1
    grid = FieldGrid(origin=(0.0,) * n, spacing=(0.1,) * n, values=np.zeros(shape))
    with pytest.raises(DomainError):
        write_hyper_grid(grid, tmp_path / "nu.csv")
    assert not (tmp_path / "nu.csv").exists()


def test_hyper_grid_csv_reads_a_field_grid_on_the_same_sites(tmp_path):
    rng = np.random.default_rng(3)
    grid = FieldGrid(origin=(0.0, 0.5, -1.0), spacing=(0.5, 0.25, 0.125), values=rng.standard_normal((3, 4, 2, 5)))
    path = tmp_path / "nu.csv"
    write_hyper_grid(grid, path)
    back = read_hyper_grid(path)
    assert isinstance(back, FieldGrid)
    assert (back.origin, back.spacing) == (grid.origin, grid.spacing)
    assert np.array_equal(back.values, grid.values)


def test_ell_paraboloid_grid_sits_on_the_sites_of_its_jets():
    for got, want in zip(ELL.hyper_nu_grid.axes, ELL.hyper_nu_jet.axes):
        assert got.tobytes() == want.tobytes()


def test_amatrix_field_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    field = rng.standard_normal((4, 3, 2, 2))
    path = tmp_path / "A.csv"
    write_amatrix_field((0.0, 0.0), (0.1, 0.1), field, path)
    origin, spacing, field2 = read_amatrix_field(path)
    assert np.array_equal(field2, field)
    assert tuple(origin) == (0.0, 0.0)


# --- the span basis is factored once per call -------------------------------


def _span_distance_ref(basis, rhs, what):
    """The per-quadruple span test that rebuilt the basis every time."""
    from plmkit.multilinear import _norm

    M = np.stack(np.broadcast_arrays(*basis), axis=-1)
    G = np.swapaxes(M, -1, -2) @ M
    detG = np.linalg.det(G)
    scale2 = np.ones(np.asarray(detG).shape)
    for v in basis:
        scale2 = scale2 * (np.asarray(v, dtype=float) ** 2).sum(axis=-1)
    if np.any(detG <= 1e-24 * np.maximum(scale2, 1e-300)):
        raise DegeneratePointError(f"rank-deficient span while testing {what}")
    b = (np.swapaxes(M, -1, -2) @ rhs[..., :, None])
    coeff = np.linalg.solve(G, b)
    recon = (M @ coeff)[..., 0]
    k = len(basis)
    basis_norm = np.sqrt(np.maximum(scale2, 1e-300)) ** (1.0 / k)
    return _norm(rhs - recon) / np.maximum(_norm(rhs), 1e-12 * basis_norm)


def _compat_ref(nu_jet, A, tol=1e-8, report=None):
    from itertools import product

    from plmkit.multilinear import _norm

    n = nu_jet.n
    Av = A.values
    basis = [nu_jet.value] + [nu_jet.d1[r] for r in range(n)]
    rep = report
    for a, b, g, d in product(range(n), repeat=4):
        if (a, g) == (b, d):
            continue
        w = Av[..., a, g, None] * nu_jet.partial2(b, d) - Av[..., b, d, None] * nu_jet.partial2(a, g)
        name = f"compat_{a + 1}{b + 1}{g + 1}{d + 1}"
        size = _norm(w)
        if rep.decide(np.max(size, initial=0.0) == 0.0):
            rep.add(name, np.zeros(np.shape(size)), tol)
            continue
        rep.add(name, _span_distance_ref(basis, w, name), tol)
    return rep


def _random_jet(n, shape, seed):
    rng = np.random.default_rng(seed)
    full = shape + (n + 2,)
    return JetGrid(value=rng.standard_normal(full), d1=rng.standard_normal((n,) + full),
                   d2=rng.standard_normal((n * (n + 1) // 2,) + full))


def _outcome(fn, nu_jet, A):
    """Each residual field's name, dtype, shape and bytes, or the error raised."""
    from plmkit.report import ResidualTile

    tile = ResidualTile()
    try:
        fn(nu_jet, A, report=tile)
    except DegeneratePointError as exc:
        return str(exc)
    return tile.decisions, [(name, f.dtype, f.shape, f.tobytes(), tol) for name, f, tol in tile.fields]


@pytest.mark.parametrize("case", ["random n=2", "random n=3", "paraboloid -I", "paraboloid A", "rank deficient"])
def test_compatibility_equals_the_per_quadruple_span_test(case, monkeypatch):
    from plmkit import hyper

    if case.startswith("random"):
        n = int(case[-1])
        nj, A = _random_jet(n, (7, 5) if n == 2 else (4, 3, 3), seed=n), AMatrix(np.eye(n) + 0.3 * np.ones((n, n)))
    elif case == "rank deficient":
        nj, A = _random_jet(2, (6, 4), seed=7), AMatrix(np.eye(2))
        nj.d1[1, 2, 3] = 2.0 * nj.value[2, 3]
    else:
        nj = paraboloid3_jets()[1]
        A = AMatrix(-np.eye(3) if case.endswith("-I") else [[2.0, 0.5, 0.0], [0.1, -1.0, 0.3], [0.0, 0.4, 1.5]])
    calls = []
    span = hyper._Span
    monkeypatch.setattr(hyper, "_Span", lambda *a: calls.append(a[1]) or span(*a))
    got = _outcome(hyper_compat_residual, nj, A)
    assert got == _outcome(_compat_ref, nj, A)
    assert len(calls) <= 1  # one factorization, at the first combination that is not zero
    if case == "rank deficient":
        assert got == "rank-deficient span while testing compat_1112" == calls[0]


def test_jets_without_n_plus_2_components_are_rejected():
    # a jet of a 3-component field in 2 parameters is no hypersurface jet
    from plmkit.fields import FieldGrid

    rng = np.random.default_rng(2)
    jets = jet_grid(FieldGrid(origin=(0.0, 0.0), spacing=(0.1, 0.1), values=rng.standard_normal((5, 5, 3))))
    A = AMatrix(np.eye(2))
    for call in (lambda: hyper_plm_residual(jets, jets, A), lambda: hyper_compat_residual(jets, A),
                 lambda: hyper_reconstruct(jets, A), lambda: recover_A(jets, jets)):
        with pytest.raises(DomainError, match="need 4 components"):
            call()


@pytest.mark.parametrize("case", ["batch shape", "nan entry"])
def test_per_point_weights_are_validated(case):
    # AMatrix rejects a non-finite entry; a per-point array of weights must too,
    # and one whose batch shape does not fit the jets is a DomainError, not
    # numpy's broadcasting ValueError
    fj, nj = ELL.hyper_f_jet, ELL.hyper_nu_jet
    if case == "batch shape":
        A, match = np.broadcast_to(ELL.amatrix.values, (5, 5, 2, 2)), r"batch shape \(5, 5\) .* \(21, 21\)"
    else:
        A, match = np.broadcast_to(ELL.amatrix.values, nj.shape + (2, 2)).copy(), "non-finite"
        A[3, 4, 0, 1] = np.nan
    for call in (lambda: hyper_plm_residual(fj, nj, A), lambda: hyper_compat_residual(nj, A),
                 lambda: hyper_reconstruct(nj, A)):
        with pytest.raises(DomainError, match=match):
            call()


def test_per_point_weights_of_the_jets_batch_shape_are_taken():
    fj, nj = ELL.hyper_f_jet, ELL.hyper_nu_jet
    whole = hyper_plm_residual(fj, nj, ELL.amatrix).to_json()
    for shape in (nj.shape, ()):
        A = np.broadcast_to(ELL.amatrix.values, shape + (2, 2))
        assert hyper_plm_residual(fj, nj, A).to_json() == whole
