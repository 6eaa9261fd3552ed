"""Acceptance gate: one check per headline property, one printed line each.

Convergence-order clauses are checked only above the roundoff floor: on
polynomial fixtures the finite-difference error sits at machine precision
for every h, so the order is vacuous there and the value check carries the
criterion.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from plmkit.affine import AffineSurfacePair, affine_forms, classical_lelieuvre_integrate
from plmkit.discrete import (
    DiscreteSurfacePair,
    discrete_forms,
    discrete_residual,
)
from plmkit.fields import JetGrid, jet_grid
from plmkit.hyper import AMatrix, hyper_reconstruct, recover_A
from plmkit.multilinear import cross_n, det_n, hodge_star, pair, perm_sign, wedge2
from plmkit.projective import normalized_last_distance, projective_distance
from plmkit.scenarios import scenario
from plmkit.smooth import (
    ChartKind,
    det_families,
    det_invariance_report,
    plm_residual,
    reconstruct_field,
)

HYPAR = scenario("hypar")
CONJ = scenario("conj-paraboloid")
ELL = scenario("ell-paraboloid")
HL = scenario("hypar-lattice", h=0.1)
MR = scenario("moutard-random", seed=42, size=32)

FLOOR = 1e-10  # below this the FD error is roundoff; order checks are vacuous


def announce(capsys, num, label, ok):
    with capsys.disabled():
        print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label})"


def test_criterion_01_determinant_invariance(capsys):
    t0 = time.perf_counter()
    ok = True
    for jets in (HYPAR.f_jets, HYPAR.nu_jets):
        ok &= bool(np.max(np.abs(det_families(jets, "mixed") - 1.0)) < 1e-10)
    errs = []
    for h in (0.1, 0.05, 0.025):
        scn = scenario("hypar", h=h)
        jets = jet_grid(scn.nu_grid, order=2, stencil=4)
        errs.append(np.max(np.abs(det_families(jets, "mixed") - 1.0)))
    ok &= max(errs) < 1e-6
    if max(errs) > FLOOR:
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        ok &= min(orders) >= 3.5
    ok &= (time.perf_counter() - t0) < 5.0
    announce(capsys, 1, "determinant invariance", ok)


def test_criterion_02_reconstruction(capsys):
    xs, ys = HYPAR.nu_jets.xs, HYPAR.nu_jets.ys
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    expect = np.stack([X, Y, X * Y, -np.ones_like(X)], axis=-1)
    f, bad = reconstruct_field(HYPAR.nu_jets, ChartKind.ASYMPTOTIC)
    ok = not bad.any() and np.max(normalized_last_distance(f, expect)) < 1e-12
    jets = jet_grid(HYPAR.nu_grid, order=2, stencil=4)
    Xf, Yf = np.meshgrid(jets.xs, jets.ys, indexing="ij")
    expect_fd = np.stack([Xf, Yf, Xf * Yf, -np.ones_like(Xf)], axis=-1)
    f_fd, bad_fd = reconstruct_field(jets, ChartKind.ASYMPTOTIC)
    ok &= not bad_fd.any() and np.max(normalized_last_distance(f_fd, expect_fd)) < 1e-6
    announce(capsys, 2, "reconstruction", ok)


def test_criterion_03_defining_relation_and_duality(capsys):
    rep = plm_residual(HYPAR.f_jets, HYPAR.nu_jets, chart=ChartKind.ASYMPTOTIC)
    ok = rep.max_residual() < 1e-12
    for i, j in ((3, 4), (10, 17), (25, 2)):
        f, _ = reconstruct_field(HYPAR.nu_jets[i, j], ChartKind.ASYMPTOTIC, strict=True)
        nu, _ = reconstruct_field(HYPAR.f_jets[i, j], ChartKind.ASYMPTOTIC, strict=True)
        ok &= projective_distance(f, HYPAR.f_jets.value[i, j]) < 1e-9
        ok &= projective_distance(nu, HYPAR.nu_jets.value[i, j]) < 1e-9
    announce(capsys, 3, "defining relation + duality", ok)


def test_criterion_04_elliptic_chart(capsys):
    ok = bool(np.max(np.abs(det_families(CONJ.nu_jets, "mixed"))) < 1e-8)
    rep = det_invariance_report(CONJ.f_jets, CONJ.nu_jets, chart=ChartKind.CONJUGATE)
    ok &= rep["det_mixed_vanishes"].max_residual < 1e-8
    ok &= rep["det_conj_xx_sign_flip"].max_residual < 1e-8
    ok &= rep["det_conj_yy_sign_flip"].max_residual < 1e-8
    announce(capsys, 4, "elliptic chart", ok)


def _hypar_hyper_jets(h=0.05, lo=-1.0, hi=1.0):
    n = int(round((hi - lo) / h)) + 1
    xs = lo + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    one, zero = np.ones_like(X), np.zeros_like(X)
    nval = np.stack([-Y, -X, one, -X * Y], axis=-1)
    nd1 = np.stack([np.stack([zero, -one, zero, -Y], axis=-1), np.stack([-one, zero, zero, -X], axis=-1)])
    z4 = np.zeros(X.shape + (4,))
    e4 = np.stack([zero, zero, zero, -one], axis=-1)
    nd2 = np.stack([z4, e4, z4])  # xx, xy, yy
    fval = np.stack([X, Y, X * Y, -one], axis=-1)
    return JetGrid(value=nval, d1=nd1, d2=nd2), fval


def test_criterion_05_hypersurface_reduction(capsys):
    nj, fval = _hypar_hyper_jets()
    A = AMatrix([[0.0, -2.0], [-2.0, 0.0]])
    f12 = hyper_reconstruct(nj, A, pivot=(1, 2))
    f21 = hyper_reconstruct(nj, A, pivot=(2, 1))
    ok = bool(np.max(projective_distance(f12, fval)) < 1e-10)
    ok &= bool(np.max(projective_distance(f12, f21)) < 1e-10)
    Arec = recover_A(ELL.hyper_f_jet, ELL.hyper_nu_jet)
    diag = np.stack([Arec[..., 0, 0], Arec[..., 1, 1]], axis=-1)
    off = np.stack([Arec[..., 0, 1], Arec[..., 1, 0]], axis=-1)
    ok &= bool(np.max(np.abs(np.abs(diag) - 1.0)) < 1e-10)
    ok &= bool(np.max(np.abs(off)) < 1e-12)
    f_rt = hyper_reconstruct(ELL.hyper_nu_jet, Arec)
    ok &= bool(np.max(projective_distance(f_rt, ELL.hyper_f_jet.value)) < 1e-10)
    announce(capsys, 5, "hypersurface reduction", ok)


def _volume_pair(scn):
    bf, bn = scn.f3_lattice.values, scn.nu3_lattice.values
    dl = np.asarray(
        det_n([bf[1:, :-1] - bf[:-1, :-1], bf[:-1, 1:] - bf[:-1, :-1], bf[1:, 1:] - bf[:-1, :-1]]),
        dtype=float,
    )
    dr = np.asarray(det_n([bn[:-1, :-1], bn[1:, :-1], bn[1:, 1:]]), dtype=float) * np.asarray(
        det_n([bn[:-1, :-1], bn[1:, :-1], bn[:-1, 1:]]), dtype=float
    )
    return dl, dr


def test_criterion_06_discrete_volume_invariance(capsys):
    t0 = time.perf_counter()
    dl, dr = _volume_pair(HL)
    ok = bool(np.max(np.abs(dl - 1e-4)) < 1e-16)
    ok &= bool(np.max(np.abs(dl - dr)) < 1e-12 * np.max(np.abs(dl)))
    dl, dr = _volume_pair(MR)
    scale = np.maximum(np.maximum(np.abs(dl), np.abs(dr)), np.max(np.abs(dl)) * 1e-6)
    ok &= bool(np.max(np.abs(dl - dr) / scale) < 1e-10)
    ok &= (time.perf_counter() - t0) < 1.0
    announce(capsys, 6, "discrete volume invariance", ok)


def test_criterion_07_discrete_closure(capsys):
    v = MR.nu3_lattice.values
    d1 = np.cross(v[:-1, :], v[1:, :])  # increment along axis 1
    d2 = -np.cross(v[:, :-1], v[:, 1:])  # increment along axis 2
    closure = d1[:, :-1] + d2[1:, :] - d2[:-1, :] - d1[:, 1:]
    ok = bool(np.max(np.abs(closure)) < 1e-12)
    announce(capsys, 7, "discrete closure", ok)


def test_criterion_08_discrete_forms(capsys):
    h = HL.meta["h"]
    forms, _ = discrete_forms(DiscreteSurfacePair(nu=HL.nu3_lattice, f=HL.f3_lattice))
    ok = bool(np.max(np.abs(forms.Omega2 + h * h)) < 1e-15)
    ok &= bool(np.max(np.abs(forms.F2d - h * h)) < 1e-12)
    mforms, mrep = discrete_forms(DiscreteSurfacePair(nu=MR.nu3_lattice, f=MR.f3_lattice))
    ok &= mrep["omega2_det_identity"].max_residual < 1e-12
    announce(capsys, 8, "discrete forms", ok)


def test_criterion_09_continuum_limit(capsys):
    errs = []
    for h in (0.1, 0.05, 0.025):
        scn = scenario("hypar-lattice", h=h)
        forms, _ = discrete_forms(
            DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice)
        )
        errs.append(np.max(np.abs(forms.Omega2 / h**2 - (-1.0))))
    if max(errs) > FLOOR:
        ok = errs[0] > errs[1] > errs[2]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        ok &= min(orders) >= 0.9
    else:
        ok = True  # already exact at every h: the limit is attained
    announce(capsys, 9, "continuum limit", ok)


def test_criterion_10_affine_reduction(capsys):
    forms, rep = affine_forms(AffineSurfacePair(f=HYPAR.f3_grid, nu=HYPAR.nu3_grid))
    ok = bool(np.max(np.abs(forms.F + 1.0)) < 1e-10)
    ok &= bool(np.max(np.abs(forms.A_cubic)) < 1e-10)
    ok &= bool(np.max(np.abs(forms.B_cubic)) < 1e-10)
    ok &= rep["blaschke_squared"].max_residual < 1e-10
    h = HYPAR.meta["h"]
    f0 = HYPAR.f3_grid.values[0, 0]
    f = classical_lelieuvre_integrate(HYPAR.nu3_grid, f0)
    ok &= bool(np.max(np.abs(f.values - HYPAR.f3_grid.values)) <= 5 * h * h)
    announce(capsys, 10, "affine reduction", ok)


def test_criterion_11_convention_pinning(capsys):
    e = np.eye(4)
    ok = np.array_equal(cross_n([e[0], e[1], e[2]]), -e[3])
    ok &= np.array_equal(hodge_star(wedge2(e[0], e[1])), wedge2(e[2], e[3]))
    # packed pair order (12, 13, 14, 23, 24, 34): star(e1 ^ e2) = e3 ^ e4
    ok &= wedge2(e[2], e[3]).shape == (6,) and np.array_equal(wedge2(e[2], e[3]), [0, 0, 0, 0, 0, 1])
    rng = np.random.default_rng(5)
    for _ in range(10):
        ints = rng.integers(-9, 10, size=(4, 4, 2))
        ints[..., 1] = np.abs(ints[..., 1]) + 1
        rows = [
            [Fraction(int(ints[r, c, 0]), int(ints[r, c, 1])) for c in range(4)]
            for r in range(4)
        ]
        b, a1, a2, a3 = (np.array(r, dtype=object) for r in rows)
        lhs = pair(b, cross_n([a1, a2, a3]))
        rhs = sum(
            perm_sign(p) * rows[0][p[0]] * rows[1][p[1]] * rows[2][p[2]] * rows[3][p[3]]
            for p in itertools.permutations(range(4))
        )
        ok &= lhs == rhs
    announce(capsys, 11, "convention pinning", ok)
