"""Exterior-algebra kernel: oracles, exact-arithmetic anchors, properties."""

import ast
import importlib
import inspect
import itertools
import pathlib
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import plmkit
from plmkit import affine, discrete, hyper, report
from plmkit.errors import DegeneratePointError, DomainError
from plmkit.fields import JetGrid, LatticeField
from plmkit.multilinear import (
    _degeneracy_bound,
    _dot,
    _fro,
    _norm,
    _norm_product,
    _pairing_gap,
    _planes,
    _rejection_gap,
    _scalar_gap,
    cross_n,
    det_n,
    hodge_star,
    pair,
    perm_sign,
    star_of_wedge,
    wedge2,
)
from plmkit.projective import projective_distance
from plmkit.report import IdentityRecord


def det_oracle(rows):
    """Permutation-sum determinant; exact for Fraction input."""
    d = len(rows)
    total = rows[0][0] * 0
    for perm in itertools.permutations(range(d)):
        term = rows[0][perm[0]]
        for i in range(1, d):
            term = term * rows[i][perm[i]]
        total = total + perm_sign(perm) * term
    return total


# --- reference: the stacked-matrix cofactor recursion the kernel replaced ---


def _minor(M, row, col):
    keep_r = [r for r in range(M.shape[-2]) if r != row]
    keep_c = [c for c in range(M.shape[-1]) if c != col]
    return M[..., keep_r, :][..., :, keep_c]


def _det_rec(M):
    d = M.shape[-1]
    if d == 1:
        return M[..., 0, 0]
    if d == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    acc = None
    sign = 1
    for j in range(d):
        term = sign * M[..., 0, j] * _det_rec(_minor(M, 0, j))
        acc = term if acc is None else acc + term
        sign = -sign
    return acc


def _stack(vectors):
    return np.stack(np.broadcast_arrays(*(np.asarray(v) for v in vectors)), axis=-2)


def det_ref(vectors):
    return _det_rec(_stack(vectors))


def cross_ref(vectors):
    M = _stack(vectors)
    d = M.shape[-1]
    comps = []
    sign = 1
    for i in range(d):
        comps.append(sign * _det_rec(M[..., :, [c for c in range(d) if c != i]]))
        sign = -sign
    return np.stack(comps, axis=-1)


def star_of_wedge_ref(vectors):
    M = _stack(vectors)
    d = M.shape[-1]
    out = np.zeros(M.shape[:-2] + (d, d), dtype=M.dtype)
    for k, l in itertools.combinations(range(d), 2):
        cols = [c for c in range(d) if c not in (k, l)]
        v = perm_sign(cols + [k, l]) * _det_rec(M[..., :, cols])
        out[..., k, l] = v
        out[..., l, k] = -v
    return out


# --- reference: the dense (..., d, d) bivector layout the packed one replaced ---


def wedge2_dense(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


# (k, l) -> (i, j, sign) with  (*B)_{kl} = sign * B_{ij},  0-based
_STAR4_DENSE = {
    (0, 1): (2, 3, 1),
    (0, 2): (1, 3, -1),
    (0, 3): (1, 2, 1),
    (1, 2): (0, 3, 1),
    (1, 3): (0, 2, -1),
    (2, 3): (0, 1, 1),
}


def hodge_star_dense(B):
    out = np.zeros_like(B)
    for (k, l), (i, j, s) in _STAR4_DENSE.items():
        v = s * B[..., i, j]
        out[..., k, l] = v
        out[..., l, k] = -v
    return out


def fro_dense(B):
    return np.sqrt((np.asarray(B, dtype=float) ** 2).sum(axis=(-2, -1)))


def upper(B):
    """The packed layout of a dense bivector: B[k, l] for k < l, lexicographic."""
    k, l = np.triu_indices(B.shape[-1], 1)
    return B[..., k, l]


def dense(P, d):
    """The dense antisymmetric matrix of a packed bivector, zero diagonal."""
    B = np.zeros(P.shape[:-1] + (d, d), dtype=P.dtype)
    for p, (k, l) in enumerate(itertools.combinations(range(d), 2)):
        B[..., k, l] = P[..., p]
        B[..., l, k] = -P[..., p]
    return B


def assert_antisymmetric(B):
    """B[l, k] == -B[k, l] and B[k, k] == 0: the upper triangle holds all of B."""
    d = B.shape[-1]
    k, l = np.triu_indices(d, 1)
    assert np.array_equal(B[..., l, k], -B[..., k, l])
    assert np.all(B[..., range(d), range(d)] == 0)


def assert_same_bits(ours, ref):
    """Equal shape, dtype and bytes: sign bits of zeros included."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert ours.tobytes() == ref.tobytes()


def e(i, d=4):
    v = np.zeros(d)
    v[i - 1] = 1.0
    return v


# --- convention anchors, bit-exact ---------------------------------------


def test_levi_civita_identity_permutation():
    assert perm_sign((0, 1, 2, 3)) == 1
    assert perm_sign((1, 0, 2, 3)) == -1
    assert perm_sign((0, 0, 2, 3)) == 0


def test_cross_anchor_is_minus_e4():
    assert np.array_equal(cross_n([e(1), e(2), e(3)]), -e(4))


def test_cross_cyclic_anchors():
    assert np.array_equal(cross_n([e(2), e(3), e(4)]), e(1))
    assert np.array_equal(cross_n([e(1), e(2), e(4)]), e(3))


def test_hodge_anchor_e12_to_e34():
    B = wedge2(e(1), e(2))
    S = hodge_star(B)
    assert np.array_equal(S, wedge2(e(3), e(4)))
    # packed pair order (12, 13, 14, 23, 24, 34)
    assert B.shape == S.shape == (6,)
    assert np.array_equal(B, [1, 0, 0, 0, 0, 0]) and np.array_equal(S, [0, 0, 0, 0, 0, 1])


def test_hodge_is_the_signed_permutation():
    P = np.array([1.0, 2, 3, 4, 5, 6])
    assert_same_bits(hodge_star(P), np.array([6.0, -5, 4, 3, -2, 1]))


def test_hodge_all_basis_bivectors():
    expect = {
        (1, 2): (3, 4),
        (1, 3): (4, 2),
        (1, 4): (2, 3),
        (2, 3): (1, 4),
        (2, 4): (3, 1),
        (3, 4): (1, 2),
    }
    for (i, j), (k, l) in expect.items():
        assert np.array_equal(hodge_star(wedge2(e(i), e(j))), wedge2(e(k), e(l))), (i, j)


def test_hodge_is_involution_in_signature_plus():
    rng = np.random.default_rng(3)
    B = wedge2(rng.standard_normal(4), rng.standard_normal(4))
    assert B.shape == (6,)
    assert_same_bits(hodge_star(hodge_star(B)), B)


def test_pairing_identity_rational_exact():
    """<b, [a1 a2 a3]> = det|b a1 a2 a3| in exact rational arithmetic."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        ints = rng.integers(-9, 10, size=(4, 4, 2))
        ints[..., 1] = np.abs(ints[..., 1]) + 1
        rows = [
            [Fraction(int(ints[r, c, 0]), int(ints[r, c, 1])) for c in range(4)]
            for r in range(4)
        ]
        b, a1, a2, a3 = (np.array(r, dtype=object) for r in rows)
        lhs = pair(b, cross_n([a1, a2, a3]))
        rhs = det_oracle([rows[0], rows[1], rows[2], rows[3]])
        assert lhs == rhs  # bit-exact Fractions


def test_det_rational_exact_matches_oracle():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 5):
        ints = rng.integers(-6, 7, size=(d, d))
        rows = [[Fraction(int(v)) for v in row] for row in ints]
        arrs = [np.array(r, dtype=object) for r in rows]
        assert det_n(arrs) == det_oracle(rows)


# --- float properties -----------------------------------------------------

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def matrix(draw, d):
    return [[draw(finite) for _ in range(d)] for _ in range(d)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: matrix(d)))
# a subnormal entry: numpy's LU divides by it and warns, while det_n does not
@example([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [2.225073858507e-311, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
def test_det_matches_numpy_and_oracle(rows):
    arrs = [np.array(r) for r in rows]
    ours = float(det_n(arrs))
    with np.errstate(divide="ignore", invalid="ignore"):  # only the reference
        ref = float(np.linalg.det(np.array(rows)))
    scale = max(abs(ours), abs(ref), np.prod([np.linalg.norm(r) + 1 for r in rows]))
    assert abs(ours - ref) <= 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(matrix(4), st.permutations(range(4)))
def test_det_antisymmetry_under_row_swap(rows, perm):
    arrs = [np.array(r) for r in rows]
    permuted = [arrs[p] for p in perm]
    sgn = perm_sign(perm)
    assert np.isclose(float(det_n(permuted)), sgn * float(det_n(arrs)), atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(matrix(4))
def test_pairing_equals_full_determinant(rows):
    b, a1, a2, a3 = (np.array(r) for r in rows)
    lhs = float(pair(b, cross_n([a1, a2, a3])))
    rhs = float(det_n([b, a1, a2, a3]))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(matrix(4))
def test_cross_is_orthogonal_to_arguments(rows):
    _, a1, a2, a3 = (np.array(r) for r in rows)
    c = cross_n([a1, a2, a3])
    for a in (a1, a2, a3):
        assert abs(float(pair(a, c))) <= 1e-8 * (np.linalg.norm(a) * np.linalg.norm(c) + 1)


@settings(max_examples=40, deadline=None)
@given(matrix(4), finite, finite)
def test_wedge_bilinear_antisymmetric(rows, s, t):
    u, v, w, _ = (np.array(r) for r in rows)
    B = wedge2(u, v)
    assert B.shape == (6,)
    assert_same_bits(B, upper(wedge2_dense(u, v)))
    assert_antisymmetric(wedge2_dense(u, v))
    assert np.array_equal(B, -wedge2(v, u))
    assert np.allclose(wedge2(s * u + t * w, v), s * wedge2(u, v) + t * wedge2(w, v), atol=1e-6)


# --- the cofactor engine against the stacked-matrix reference ---------------

# leading shapes that broadcast to (2, 3)
_LEADS = [(), (3,), (1, 3), (2, 1), (2, 3)]


def vector_batch(d):
    """Float vectors of dimension d, signed zeros included, with leading
    axes that broadcast to (2, 3)."""
    elements = st.one_of(finite, st.sampled_from([0.0, -0.0]))
    return st.sampled_from(_LEADS).flatmap(lambda lead: hnp.arrays(np.float64, lead + (d,), elements=elements))


def float_batch(missing):
    """d - missing float vectors of dimension d, for d in 2..6."""
    return st.integers(max(2, missing + 1), 6).flatmap(
        lambda d: st.lists(vector_batch(d), min_size=d - missing, max_size=d - missing))


@settings(max_examples=40, deadline=None)
@given(float_batch(0))
def test_det_matches_reference_bitwise(vecs):
    assert_same_bits(det_n(vecs), det_ref(vecs))


@settings(max_examples=40, deadline=None)
@given(float_batch(1))
def test_cross_matches_reference_bitwise(vecs):
    assert_same_bits(cross_n(vecs), cross_ref(vecs))


@settings(max_examples=40, deadline=None)
@given(float_batch(2))
def test_star_of_wedge_matches_reference_bitwise(vecs):
    assert_same_bits(star_of_wedge(vecs), upper(star_of_wedge_ref(vecs)))


@settings(max_examples=40, deadline=None)
@given(vector_batch(4), vector_batch(4))
def test_star_of_wedge_matches_composition(u, v):
    assert_same_bits(star_of_wedge([u, v]), hodge_star(wedge2(u, v)))


# --- packed bivectors against the dense layout they replaced ---------------


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(lambda d: st.tuples(
    vector_batch(d), vector_batch(d), st.lists(vector_batch(d), min_size=d - 2, max_size=d - 2))))
def test_packed_entries_are_the_dense_upper_triangle_bitwise(batches):
    u, v, vecs = batches
    assert_same_bits(wedge2(u, v), upper(wedge2_dense(u, v)))
    assert_antisymmetric(wedge2_dense(u, v))
    assert_antisymmetric(star_of_wedge_ref(vecs))
    if u.shape[-1] == 4:
        assert_same_bits(hodge_star(wedge2(u, v)), upper(hodge_star_dense(wedge2_dense(u, v))))
        assert_same_bits(hodge_star(star_of_wedge(vecs)), upper(hodge_star_dense(star_of_wedge_ref(vecs))))


# d up to 13 reaches numpy's pairwise split above 128 summed entries
@st.composite
def packed_batch(draw):
    d = draw(st.integers(2, 13))
    lead = draw(st.sampled_from([(), (3,), (2, 5)]))
    elements = st.one_of(finite, st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200, -3e200]))
    return d, draw(hnp.arrays(np.float64, lead + (d * (d - 1) // 2,), elements=elements))


@settings(max_examples=80, deadline=None)
@given(packed_batch())
def test_packed_norm_is_the_dense_frobenius_norm_bitwise(batch):
    d, P = batch
    with np.errstate(over="ignore"):
        assert_same_bits(_fro(P), fro_dense(dense(P, d)))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_packed_norm_matches_on_tile_sized_batches(d):
    # numpy sums each site's d*d entries as one contiguous run at this size too
    rng = np.random.default_rng(d)
    P = rng.standard_normal((41, 401, d * (d - 1) // 2)) * 10.0 ** rng.integers(-150, 150, (41, 401, 1))
    P[rng.random(P.shape) < 0.05] = -0.0
    assert_same_bits(_fro(P), fro_dense(dense(P, d)))


def test_packed_norm_overflows_to_inf():
    with np.errstate(over="ignore"):
        assert_same_bits(_fro(np.array([1e200, 0, 0, 0, 0, 0])), np.float64(np.inf))
    assert_same_bits(_fro(np.array([1e-200, 0, 0, 0, 0, 0])), np.float64(0.0))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda d: st.lists(st.lists(st.lists(fraction, min_size=d, max_size=d), min_size=3, max_size=3),
                       min_size=2, max_size=2)))
def test_packed_kernel_exact_on_fraction_arrays(raw):
    u, v = (np.array(r, dtype=object) for r in raw)  # each (3, d), object dtype
    checks = [(wedge2(u, v), upper(wedge2_dense(u, v)))]
    if u.shape[-1] == 4:
        checks.append((hodge_star(wedge2(u, v)), upper(hodge_star_dense(wedge2_dense(u, v)))))
    for got, want in checks:
        assert got.dtype == object and got.shape == want.shape
        assert all(isinstance(x, Fraction) for x in got.ravel() if x != 0)
        assert np.all(got == want)


# --- reference: the axis sums the unrolled _norm and pair replaced ---


def pair_ref(f, nu):
    return (f * nu).sum(axis=-1)


def norm_ref(a):
    return np.sqrt((np.asarray(a, dtype=float) ** 2).sum(axis=-1))


@st.composite
def vector_views(draw):
    """Two float vector batches of dimension 2..6 (signed zeros and
    magnitudes from 1e-200 to 1e200 included) as plain, strided,
    transposed or broadcast views."""
    d = draw(st.integers(2, 6))
    elements = st.one_of(finite, st.sampled_from([0.0, -0.0, 1e-200, -3e200]))
    u, v = (draw(hnp.arrays(np.float64, (3, 2, 2 * d), elements=elements)) for _ in range(2))
    view = draw(st.sampled_from(["plain", "strided", "transposed", "broadcast"]))
    if view == "plain":
        return u[..., :d].copy(), v[..., :d].copy()
    if view == "strided":
        return u[..., ::2], v[..., 1::2]
    if view == "transposed":
        return u.transpose(1, 0, 2)[..., d:], v.transpose(1, 0, 2)[..., :d]
    return u[..., :d], v[0, 1, :d]


@settings(max_examples=80, deadline=None)
@given(vector_views())
def test_pair_and_norm_match_the_axis_sum_bitwise(views):
    u, v = views
    with np.errstate(over="ignore"):  # the magnitudes reach 3e200: squares overflow on both sides
        assert_same_bits(pair(u, v), pair_ref(u, v))
        assert_same_bits(pair(v, u), pair_ref(v, u))
        assert_same_bits(_norm(u), norm_ref(u))
        assert_same_bits(_norm(v), norm_ref(v))


fraction = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(st.lists(fraction, min_size=d, max_size=d), min_size=6,
                                                     max_size=6)))
def test_pair_exact_on_fraction_arrays(raw):
    a = np.array(raw, dtype=object).reshape(3, 2, -1)
    got = pair(a, a[::-1])
    assert got.dtype == object and got.shape == (3, 2)
    assert np.all(got == pair_ref(a, a[::-1]))
    assert all(isinstance(x, Fraction) for x in got.ravel() if x != 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda d: st.lists(st.lists(st.lists(fraction, min_size=d, max_size=d), min_size=2, max_size=2),
                       min_size=d, max_size=d)))
def test_kernel_exact_on_fraction_arrays(raw):
    d = len(raw)
    vecs = [np.array(v, dtype=object) for v in raw]  # each (2, d), object dtype
    for ours, ref, k in ((det_n, det_ref, d), (cross_n, cross_ref, d - 1),
                         (star_of_wedge, lambda v: upper(star_of_wedge_ref(v)), d - 2)):
        if k == 0:
            continue
        got, want = ours(vecs[:k]), ref(vecs[:k])
        assert got.dtype == object and got.shape == want.shape
        assert all(isinstance(x, Fraction) for x in got.ravel() if x != 0)
        assert np.all(got == want)
    # one vector each: the cofactor terms are Fraction scalars, summed in place
    single = [v[0] for v in vecs]
    assert isinstance(det_n(single), Fraction) and det_n(single) == det_oracle([list(r[0]) for r in raw])


# --- layout: the same bits from interleaved and component-major inputs ------


def component_major(a):
    """The (..., d) array ``a`` stored one C-contiguous plane per component."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def is_planar(a):
    return all(a[..., c].flags.c_contiguous for c in range(a.shape[-1]))


def assert_same_bits_nan_as_one(ours, ref):
    """``assert_same_bits`` with every NaN read as one NaN.  Where two NaNs
    meet, numpy's add and multiply return one or the other by whether the
    loop for contiguous or the one for strided operands runs, so no layout
    fixes a NaN's sign bit; a report prints each NaN as NaN."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    assert_same_bits(np.where(np.isnan(ours), np.nan, ours), np.where(np.isnan(ref), np.nan, ref))


# NaN, infinities, signed zeros, subnormals and magnitudes whose products over- or underflow
_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e-200, -3e200])


@st.composite
def layout_batch(draw):
    """d vectors of dimension d, 2 <= d <= 6, on one batch of two axes or more."""
    d = draw(st.integers(2, 6))
    lead = draw(st.sampled_from([(3, 2), (2, 1, 3), (5, 4)]))
    elements = st.one_of(finite, _SPECIAL)
    return [draw(hnp.arrays(np.float64, lead + (d,), elements=elements)) for _ in range(d)]


@settings(max_examples=60, deadline=None)
@given(layout_batch())
def test_kernels_give_the_same_bits_on_either_layout(vecs):
    d = len(vecs)
    with np.errstate(all="ignore"):
        W = np.ascontiguousarray(wedge2(vecs[0], vecs[1]))  # packed, d(d-1)/2 components
    L = np.concatenate(vecs, axis=-1)  # d*d components: from 8 on, _dot sums them with numpy's sum

    def results(layout):
        v, P, M = [layout(x) for x in vecs], layout(W), layout(L)
        out = dict(det_n=det_n(v), cross_n=cross_n(v[:-1]), wedge2=wedge2(v[0], v[1]), _dot=_dot(v[0], v[1]),
                   long_dot=_dot(M, M[..., ::-1]), _norm=_norm(v[0]), _fro=_fro(P))
        if d >= 3:
            out["star_of_wedge"] = star_of_wedge(v[:-2])
        if d in (4, 6):  # the star takes the 6 components of a packed bivector of dimension 4
            out["hodge_star"] = hodge_star(P if d == 4 else v[0])
        return out

    with np.errstate(all="ignore"):
        interleaved, planar = results(lambda a: a), results(component_major)
    for name, want in interleaved.items():
        assert_same_bits_nan_as_one(planar[name], want)
        if name in ("wedge2", "cross_n", "star_of_wedge", "hodge_star"):  # stacked one plane per component
            assert is_planar(want) and is_planar(planar[name]), name


# --- reference: the stacked components the kernels replaced ---------------


def wedge2_planes(a, b):
    d = a.shape[-1]
    return _planes([a[..., k] * b[..., l] - b[..., k] * a[..., l] for k, l in itertools.combinations(range(d), 2)])


def cross_planes(vecs):
    d = len(vecs) + 1
    return _planes([(-1) ** i * det_n([v[..., [c for c in range(d) if c != i]] for v in vecs]) for i in range(d)])


def star_of_wedge_planes(vecs):
    d = len(vecs) + 2
    comps = []
    for k, l in itertools.combinations(range(d), 2):
        cols = [c for c in range(d) if c not in (k, l)]
        comps.append(perm_sign(cols + [k, l]) * det_n([v[..., cols] for v in vecs]))
    return _planes(comps)


def _kernel_pairs(vecs):
    """(kernel result, its stacked-components reference) for every kernel
    that computes its components into the planes of one output."""
    pairs = [(wedge2(vecs[0], vecs[1]), wedge2_planes(vecs[0], vecs[1])), (cross_n(vecs[:-1]), cross_planes(vecs[:-1]))]
    if len(vecs) >= 3:
        pairs.append((star_of_wedge(vecs[:-2]), star_of_wedge_planes(vecs[:-2])))
    return pairs


@st.composite
def broadcast_batch(draw):
    """d vectors of dimension d whose leading axes broadcast: a single
    vector, a row and a column of sites."""
    d = draw(st.integers(2, 6))
    elements = st.one_of(finite, _SPECIAL)
    leads = draw(st.lists(st.sampled_from([(), (3, 1), (1, 2), (3, 2)]), min_size=d, max_size=d))
    return [draw(hnp.arrays(np.float64, lead + (d,), elements=elements)) for lead in leads]


@settings(max_examples=60, deadline=None)
@given(st.one_of(layout_batch(), broadcast_batch()), st.booleans())
def test_kernels_write_the_stacked_components_bitwise(vecs, planar):
    # interleaved, component-major and broadcast input alike: each kernel's
    # one output holds the bits its stacked components held, one plane each
    vecs = [component_major(v) if planar else v for v in vecs]
    with np.errstate(all="ignore"):
        pairs = _kernel_pairs(vecs)
    for got, want in pairs:
        assert is_planar(got) and got.base is not None and got.base.flags.c_contiguous
        assert_same_bits_nan_as_one(got, want)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 5).flatmap(
    lambda d: st.lists(st.lists(st.lists(fraction, min_size=d, max_size=d), min_size=2, max_size=2),
                       min_size=d, max_size=d)))
def test_kernels_write_the_stacked_components_exactly_on_fractions(raw):
    for vecs in ([np.array(v, dtype=object) for v in raw], [np.array(v[0], dtype=object) for v in raw]):
        for got, want in _kernel_pairs(vecs):
            assert got.dtype == object and got.shape == want.shape and is_planar(got)
            assert all(isinstance(x, Fraction) for x in got.ravel() if x != 0)
            assert np.all(got == want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_results_are_not_views_of_inputs(d):
    rng = np.random.default_rng(d)
    vecs = [rng.standard_normal((3, d)) for _ in range(d)]
    calls = [det_n(vecs)]
    if d >= 2:
        calls += [cross_n(vecs[: d - 1]), wedge2(vecs[0], vecs[-1])]
    if d >= 3:
        calls.append(star_of_wedge(vecs[: d - 2]))
    if d == 4:
        calls.append(hodge_star(calls[-1]))
    for out in calls:
        for v in vecs:
            assert not np.shares_memory(out, v)
    before = [v.copy() for v in vecs]
    for out in calls:
        out[...] = 0.0
    assert all(np.array_equal(v, b) for v, b in zip(vecs, before))


def test_wedge_batched():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((5, 7, 4))
    v = rng.standard_normal((5, 7, 4))
    B = wedge2(u, v)
    assert B.shape == (5, 7, 6)
    assert_same_bits(B[2, 3], wedge2(u[2, 3], v[2, 3]))
    assert_same_bits(B, upper(wedge2_dense(u, v)))


def test_dimension_guards():
    for B in (np.zeros((3, 3)), np.zeros((4, 4)), np.zeros(5), np.float64(0.0)):
        with pytest.raises(DomainError):
            hodge_star(B)
    with pytest.raises(DomainError):
        wedge2(np.zeros(1), np.zeros(1))
    with pytest.raises(DomainError):
        wedge2(np.zeros(4), np.zeros(3))
    for m in (2, 4, 5, 7):
        with pytest.raises(DomainError):
            _fro(np.zeros(m))
    with pytest.raises(DomainError):
        cross_n([np.zeros(4), np.zeros(4)])
    with pytest.raises(DomainError):
        det_n([np.zeros(3), np.zeros(3)])
    for kernel in (det_n, cross_n, star_of_wedge):
        with pytest.raises(DomainError):
            kernel([])


# --- residual rules: reference, the inline expressions each one replaced ---

_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-320, 1e300, -1e300])


def _operands(rng, shape):
    """Signed 10**e with e uniform in [-320, 300]; a fifth of the entries
    are zeros of either sign, NaN, infinities or extremes."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320, 300, shape)
    special = rng.random(shape) < 0.2
    x[special] = rng.choice(_SPECIALS, int(special.sum()))
    return x


def _vectors(rng, n, d):
    """n vectors of dimension d from ``_operands``, a tenth of them zero."""
    v = _operands(rng, (n, d))
    v[rng.random(n) < 0.1] = 0.0
    return v


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_scalar_gap_equals_the_inline_denominators_bitwise(seed):
    rng = np.random.default_rng(seed)
    x, y, s = (_operands(rng, 4000) for _ in range(3))
    s[:400] = 0.0  # a zero scale
    ax, ay = np.abs(x), np.abs(y)
    with np.errstate(all="ignore"):
        pairs = [
            # smooth pairing equality, discrete pairings, Omega identities, affine forms
            ((x - y) / np.maximum(s, 1e-300), _scalar_gap(x, y, s)),
            # det_mixed_vanishes
            (x / np.maximum(s, 1e-300), _scalar_gap(x, 0.0, s)),
            # asymptotic det invariance: floor 1
            ((x - y) / np.maximum(np.maximum(ax, ay), 1.0), _scalar_gap(x, y, np.maximum(np.maximum(ax, ay), 1.0))),
            # lattice volume identities: a scale beside the two sides
            ((x - y) / np.maximum(np.maximum(ax, ay), np.maximum(s, 1e-300)),
             _scalar_gap(x, y, np.maximum(np.maximum(ax, ay), s))),
        ]
        for ref, got in pairs:
            assert_same_bits(got, ref)
        # an absolute residual, taken before or after the division, and a sum
        # written as a difference: the same bits but for the sign of a NaN
        pairs = [
            # discrete_compat_coeffs and the scale-propagation cross-check
            (np.abs(x - y) / np.maximum(ax + ay, 1.0), np.abs(_scalar_gap(x, y, np.maximum(ax + ay, 1.0)))),
            (np.abs(x - y) / np.maximum(ax + ay, 1e-300), np.abs(_scalar_gap(x, y, ax + ay))),
            # compat_coeffs' squared-coefficient checks: floor 1e-12
            (np.abs(x - y) / np.maximum(s, 1e-12), np.abs(_scalar_gap(x, y, np.maximum(s, 1e-12)))),
            # the Omega variant readings in discrete_forms
            (np.abs(x - y) / np.maximum(s, 1e-300), np.abs(_scalar_gap(x, y, s))),
            (np.abs(x + y) / np.maximum(s, 1e-300), np.abs(_scalar_gap(x, -y, s))),
            # the conjugate det sign flip
            ((x + y) / np.maximum(np.maximum(ax, ay), 1.0), _scalar_gap(x, -y, np.maximum(np.maximum(ax, ay), 1.0))),
        ]
        for ref, got in pairs:
            assert_same_bits_but_nan_sign(got, ref)


def assert_same_bits_but_nan_sign(ours, ref):
    """Equal bits, except that a NaN may differ in its sign bit: inf / inf
    makes a NaN with the sign bit set, which abs clears, and x - (-y) keeps
    the sign a NaN y had after the negation.  No output shows that bit:
    ``IdentityRecord.from_field`` takes abs, and either NaN prints as nan."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(ours), nan)
    assert_same_bits(np.where(nan, np.nan, ours), np.where(nan, np.nan, ref))


def _moutard_ref(a, b):
    """moutard_residual before the rejection rule."""
    bb = np.maximum((b * b).sum(axis=-1), 1e-300)
    proj = (a * b).sum(axis=-1) / bb
    defect = a - proj[..., None] * b
    return _norm(defect) / np.maximum(_norm(a), 1e-300)


def _closure_ref(d_xy, v):
    """closure_residual before the rejection rule."""
    vv = np.maximum((v * v).sum(axis=-1), 1e-300)
    u4 = (d_xy * v).sum(axis=-1) / vv
    defect = d_xy - u4[..., None] * v
    scale = np.maximum(_norm(d_xy), 1e-12 * np.sqrt(vv))
    return _norm(defect) / scale, u4


@settings(max_examples=50, deadline=None)
@given(seeds, st.sampled_from([3, 4]))
def test_rejection_gap_equals_the_moutard_and_closure_residuals_bitwise(seed, d):
    rng = np.random.default_rng(seed)
    a, b = _vectors(rng, 1000, d), _vectors(rng, 1000, d)
    b[:50] = 3.0 * a[:50]  # a on the line of b
    with np.errstate(all="ignore"):
        assert_same_bits(_rejection_gap(a, b)[0], _moutard_ref(a, b))
        got, ref = _rejection_gap(a, b, floor=1e-12), _closure_ref(a, b)
        assert_same_bits(got[0], ref[0])
        assert_same_bits(got[1], ref[1])


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_degeneracy_bound_gives_the_inline_verdicts(seed):
    rng = np.random.default_rng(seed)
    det, s = _operands(rng, 4000), _operands(rng, 4000)
    s[:400] = 0.0
    with np.errstate(all="ignore"):
        ref = 1e-10 * np.maximum(s, 1e-300)
        assert_same_bits(_degeneracy_bound(s), ref)
        # the sign tests of fubini_forms and affine_forms, and the
        # degeneracy tests of reconstruct_*, hyper_reconstruct and recover_A
        assert np.array_equal(det < -_degeneracy_bound(s), det < -1e-10 * np.maximum(s, 1e-300))
        assert np.array_equal(det > _degeneracy_bound(s), det > ref)
        assert np.array_equal(np.abs(det) <= _degeneracy_bound(s), np.abs(det) <= ref)
        # the point tests of reconstruct_point(_alt) took Python's max
        for v in s[:200].tolist():
            assert_same_bits(_degeneracy_bound(v), np.float64(1e-10 * max(v, 1e-300)))


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(2, 6))
def test_pairing_gap_equals_the_inline_floors_bitwise(seed, d):
    rng = np.random.default_rng(seed)
    a, b = _vectors(rng, 1000, d), _vectors(rng, 1000, d)
    floor = np.abs(_operands(rng, 1000))
    floor[:100] = 0.0
    with np.errstate(all="ignore"):
        assert_same_bits(_pairing_gap(a, b), pair(a, b) / np.maximum(_norm(a) * _norm(b), 1e-300))
        # orthogonality_report's floor |f| |nu|, itself floored at 1e-300
        ref = pair(a, b) / np.maximum(_norm(a) * _norm(b), np.maximum(floor, 1e-300))
        assert_same_bits(_pairing_gap(a, b, floor), ref)


# --- the one dot product: the inline axis sums ``_dot`` and ``_norm`` replaced ---


def _finite_vectors(rng, n, d, spread=150):
    """n finite vectors of dimension d, entries 10**e with |e| <= ``spread``,
    a fifth of the entries zeros of either sign and a tenth of the vectors zero."""
    v = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-spread, spread, (n, d))
    v[rng.random((n, d)) < 0.2] = rng.choice([0.0, -0.0])
    v[rng.random(n) < 0.1] = 0.0
    return v


def _homogeneous_lift_ref(bf, bn):
    f4 = np.concatenate([bf, -np.ones(bf.shape[:2] + (1,))], axis=-1)
    return f4, np.concatenate([bn, (bf * bn).sum(axis=-1)[..., None]], axis=-1)


def _projective_distance_ref(u, v):
    nu, nv = np.sqrt((u * u).sum(axis=-1)), np.sqrt((v * v).sum(axis=-1))
    uh, vh = u / nu[..., None], v / nv[..., None]
    rej = uh - (uh * vh).sum(axis=-1)[..., None] * vh
    return np.minimum(np.sqrt((rej * rej).sum(axis=-1)), 1.0)


def _recover_A_ref(f_jet, nu_jet):
    m = cross_n([nu_jet.value, *nu_jet.d1])
    mm = (m * m).sum(axis=-1)
    if np.any(np.sqrt(mm) <= _degeneracy_bound(_norm_product(nu_jet.value, *nu_jet.d1))):
        raise DegeneratePointError("conormal frame is degenerate: [nu, nu_x1, ..., nu_xn] ~ 0")
    c = pair(f_jet.value, m) / mm
    return np.stack([np.stack(np.broadcast_arrays(*[-pair(f_jet.d1[a], nu_jet.d1[g]) * c for g in range(nu_jet.n)]),
                              axis=-1) for a in range(nu_jet.n)], axis=-2)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_homogeneous_lift_equals_the_axis_sum_bitwise(seed):
    rng = np.random.default_rng(seed)
    bf, bn = (_finite_vectors(rng, 60, 3).reshape(6, 10, 3) for _ in range(2))
    with np.errstate(all="ignore"):
        for got, ref in zip(affine._homogeneous_lift(bf, bn), _homogeneous_lift_ref(bf, bn)):
            assert_same_bits(got, ref)
        # the windows affine_forms lifts are strided views
        for got, ref in zip(affine._homogeneous_lift(bf[1:, ::2], bn[:-1, 1::2]),
                            _homogeneous_lift_ref(bf[1:, ::2], bn[:-1, 1::2])):
            assert_same_bits(got, ref)


@settings(max_examples=50, deadline=None)
@given(seeds, st.sampled_from([3, 4]))
def test_projective_distance_equals_the_axis_sum_bitwise(seed, d):
    rng = np.random.default_rng(seed)
    u, v = _finite_vectors(rng, 400, d), _finite_vectors(rng, 400, d)
    keep = (np.abs(u).max(axis=-1) > 0) & (np.abs(v).max(axis=-1) > 0)  # a zero vector is a DomainError
    u, v = u[keep], v[keep]
    v[:40] = -2.5 * u[:40]  # projectively equal
    with np.errstate(all="ignore"):
        assert_same_bits(projective_distance(u, v), _projective_distance_ref(u, v))
        assert_same_bits(projective_distance(u[0], v[0]), _projective_distance_ref(u[0], v[0]))
    with pytest.raises(DomainError):
        projective_distance(np.zeros(d), np.ones(d))


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(2, 4))
def test_recover_A_equals_the_axis_sum_bitwise(seed, n):
    rng = np.random.default_rng(seed)
    d, k = n + 2, 50

    def jet():
        return JetGrid(_finite_vectors(rng, k, d, 60), _finite_vectors(rng, n * k, d, 60).reshape(n, k, d),
                       np.zeros((n * (n + 1) // 2, k, d)))

    f_jet, nu_jet = jet(), jet()
    with np.errstate(all="ignore"):
        for index in (slice(None), 0):  # a batch and one site
            f, nu = f_jet[index], nu_jet[index]
            try:
                ref = _recover_A_ref(f, nu)
            except DegeneratePointError:
                with pytest.raises(DegeneratePointError):
                    hyper.recover_A(f, nu)
                continue
            assert_same_bits(hyper.recover_A(f, nu), ref)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_affine_sphere_check_equals_the_axis_sum_bitwise(seed):
    rng = np.random.default_rng(seed)
    bf, bn = (_finite_vectors(rng, 48, 3, 100).reshape(6, 8, 3) for _ in range(2))
    with np.errstate(all="ignore"):
        got = discrete.affine_sphere_check(discrete.DiscreteSurfacePair(nu=LatticeField(bn), f=LatticeField(bf)))
        ref = IdentityRecord.from_field("<bf,bnu>-1", (bf * bn).sum(axis=-1) - 1.0, report.LATTICE_TOL)
    assert got.records[0].to_dict() == ref.to_dict()


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(2, 5), st.sampled_from([3, 4]))
def test_norm_product_is_the_left_to_right_product_but_zero_at_a_zero_factor(seed, k, d):
    # an inf norm, or an overflowing product of the other norms, times a zero
    # norm was inf * 0 = NaN; a zero factor now gives a zero product, and every
    # other site keeps the bits of the product of norm_ref, NaN and inf included
    rng = np.random.default_rng(seed)
    vecs = [_vectors(rng, 500, d) for _ in range(k)]
    vecs[0][:20] = 1e200  # its norm overflows
    for v in vecs[:-1]:
        v[20:30] = 1e150  # finite norms whose product overflows from the third on
    vecs[-1][:30] = 0.0
    with np.errstate(all="ignore"):
        norms = [norm_ref(v) for v in vecs]
        ref = norms[0]
        for nrm in norms[1:]:
            ref = ref * nrm
        got = _norm_product(*vecs)
        zero = np.any([nrm == 0 for nrm in norms], axis=0)
    assert np.isnan(ref[:20 if k < 4 else 30]).all() and zero[:30].all()
    assert_same_bits(got[zero], np.zeros(int(zero.sum())))
    assert_same_bits(got[~zero], ref[~zero])
    # so the product keeps its bits wherever it was not inf * 0
    kept = ~np.isnan(ref)
    assert_same_bits(got[kept], ref[kept])
    with np.errstate(all="ignore"):  # one vector per factor
        assert_same_bits(np.asarray(_norm_product(*(v[0] for v in vecs))), np.asarray(0.0))


# --- one threshold table ---

_KNOBS = {"tol", "eps_deg", "sign_tol", "span_tol", "closure_tol", "sigma"}


def _public_callables():
    """(qualified name, callable) for every name in a plmkit module's
    ``__all__``, and the public methods of the classes among them."""
    for info in pkgutil.iter_modules(plmkit.__path__):
        module = importlib.import_module(f"plmkit.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_threshold():
    found = []
    for qualname, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        found += [f"{qualname}({p})" for p in params if p in _KNOBS]
    assert found == []
    assert len(list(_public_callables())) > 50


def test_each_threshold_is_written_once_in_the_table():
    table = {report.SMOOTH_TOL, report.HYPER_TOL, report.AFFINE_TOL, report.LATTICE_TOL, report.DEGENERACY,
             report.SPAN_TOL, report.SCALE_TOL}
    assert table == {1e-6, 1e-8, 1e-10}
    for path in pathlib.Path(plmkit.__file__).parent.glob("*.py"):
        if path.name == "report.py":
            continue
        literals = [node.value for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant) and isinstance(node.value, float)]
        assert table.isdisjoint(literals), path.name
