"""Exact small-dimension exterior algebra.

Permutation signs, generalized cross products, wedge products, the Hodge
star on bivectors in dimension 4, determinants and the dual pairing.
``det_n``, ``cross_n`` and ``star_of_wedge`` share one cofactor engine,
``_det_cols``: it expands along the first vector, reads columns as views of
the broadcast inputs (no stacked matrix, no copied minors) and memoizes the
minors of the trailing vectors, so the column sets of one call share them.
Everything is written with plain +, -, * and indexing only, so the same
code runs on float arrays, on ``fractions.Fraction`` scalars and on numpy
object arrays (the exact-rational test mode).  The one exception is the span
solver ``_Span``, which calls ``np.linalg`` and so runs on floats only.
Every dot product and squared norm of the package is one function,
``_dot``, which adds in numpy's own order.  The norms (``_norm``, ``_fro``)
return floats, and so do the rules of every suite, one per kind of
relation: ``_bivector_gap`` (packed bivectors lhs = rhs), ``_pairing_gap``
(<a, b> = 0), ``_scalar_gap`` (scalars lhs = rhs, over a scale the caller
gives), ``_rejection_gap`` (a vector on the line of another) and
``_degeneracy_bound`` (the size at or below which a determinant of vectors
is degenerate, from their ``_norm_product``).  Each floors its scale at
1e-300; the tolerances the residuals are judged by are ``report``'s.

A bivector in dimension d is packed: an array of shape ``(..., d(d-1)/2)``
holding its Plücker coordinates P_kl = B[k, l] for k < l, pairs in
lexicographic order.  In dimension 4 the pair order is (12, 13, 14, 23, 24,
34), and the Hodge star is the signed permutation
``[P34, -P24, P23, P14, -P13, P12]``.  ``_fro`` gives the Frobenius norm of
the dense antisymmetric matrix bit for bit.

Sign conventions are anchored by eps(1,2,...,d) = +1, which pins
``cross_n((e1, e2, e3)) == -e4`` in dimension 4 and
``hodge_star(wedge2(e1, e2)) == wedge2(e3, e4)``, that is, star maps the
packed (1, 0, 0, 0, 0, 0) to (0, 0, 0, 0, 0, 1).

All functions accept either a single vector of shape ``(d,)`` or a batch
with arbitrary leading axes, shape ``(..., d)``, in any memory layout, and
give the same bits on each, but for the sign bit of a NaN.  Every kernel
reads its inputs one component ``a[..., c]`` at a time, so it runs on
unit-stride memory when a field is stored component-major, as every field
of the package is (see ``fields``): each component one C-contiguous plane.
``wedge2``, ``hodge_star``, ``cross_n`` and ``star_of_wedge`` return that
layout: ``_planar`` allocates a field in it, and ``wedge2``, ``cross_n`` and
``star_of_wedge`` compute each component into its plane of that one output,
so no list of components is held beside it; ``hodge_star``, whose components
are views of its input, stacks them with ``_planes``.
"""

import operator
from functools import partial, reduce
from itertools import combinations

import numpy as np

from .errors import DegeneratePointError, DomainError
from .report import DEGENERACY

__all__ = [
    "perm_sign",
    "wedge2",
    "hodge_star",
    "cross_n",
    "det_n",
    "pair",
    "star_of_wedge",
]


def _dot(a, b):
    """sum_k a_k b_k over the last axis.

    For float vectors of dimension below 8 the sum is unrolled into one
    array operation per component, ``0.0 + a0*b0 + a1*b1 + ...``: this is
    the order in which numpy's sum over the last axis adds so short an axis,
    signed zeros included, so the result is bit-identical, without the
    per-site inner loop.  Other inputs (object arrays of ``Fraction``,
    integers, empty or longer vectors) keep numpy's sum, exact on
    ``Fraction``, over the C-contiguous product: numpy adds a contiguous
    axis pairwise and a strided one in sequence, so a component-major input
    would otherwise give other bits.  Every dot product and squared norm of
    the package is this one function.
    """
    d = a.shape[-1]
    if not 0 < d < 8 or np.result_type(a, b).kind != "f":
        return np.ascontiguousarray(a * b).sum(axis=-1)
    s = 0.0
    for k in range(d):
        s = s + a[..., k] * b[..., k]
    return s


def _norm(a):
    """Euclidean norm over the last axis, in floats."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(_dot(a, a))


def _norm_product(*vecs):
    """|v1| |v2| ... |vk|, multiplied left to right: the degeneracy scale of
    a determinant or cross product of these vectors.  A zero factor gives a
    zero product, also where the product of the others overflowed to inf
    (inf * 0 is NaN)."""
    norms = [_norm(v) for v in vecs]
    return np.where(reduce(np.logical_or, [n == 0 for n in norms]), 0.0, reduce(operator.mul, norms))


def _add(x, y):
    """x + y, added into x, a partial sum of ``_pairwise_sum``'s own; None
    stands for an exact zero term."""
    if x is None:
        return y
    if y is not None:
        x += y
    return x


def _pairwise_sum(terms):
    """Sum ``terms`` in the order numpy's pairwise summation adds a
    contiguous axis of that many entries: a plain loop below 8 entries, 8
    interleaved accumulators up to 128, halves (cut at a multiple of 8)
    above.  Each term is a function that makes it, called when the sum
    takes it, so no term is held before its turn.  A ``None`` term is an
    exact zero and is left out, which changes no bit of a sum of squares.
    """
    n = len(terms)
    if n < 8:
        res = None
        for t in terms:
            res = _add(res, t and t())
        return res
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _add(_pairwise_sum(terms[:half]), _pairwise_sum(terms[half:]))
    stop = n - n % 8

    def lane(j):
        # accumulator j; built when the combination needs it, so that at
        # most four partial sums are held at a time
        res = terms[j] and terms[j]()
        for i in range(j + 8, stop, 8):
            res = _add(res, terms[i] and terms[i]())
        return res

    res = _add(_add(_add(lane(0), lane(1)), _add(lane(2), lane(3))),
               _add(_add(lane(4), lane(5)), _add(lane(6), lane(7))))
    for t in terms[stop:]:
        res = _add(res, t and t())
    return res


def _bivector_dim(m):
    """The dimension d of a packed bivector with m = d(d-1)/2 components."""
    d = (1 + int(np.sqrt(1 + 8 * m))) // 2
    if d * (d - 1) // 2 != m:
        raise DomainError(f"{m} is not the length d(d-1)/2 of a packed bivector")
    return d


def _fro(P):
    """Norm of packed bivectors, in floats.

    Equal bit for bit to the Frobenius norm ``sqrt((B**2).sum(axis=(-2,
    -1)))`` of the dense antisymmetric (..., d, d) matrix B: the squares
    are added in the order numpy sums B's d*d row-major entries, each packed
    square standing for B[k, l] and B[l, k], the zero diagonal left out.
    """
    P = np.asarray(P, dtype=float)
    return _packed_norm(lambda p: P[..., p] * P[..., p], P.shape)


def _packed_norm(square, shape):
    """``_fro`` of the packed bivectors of ``shape`` (..., m) whose p-th
    packed square ``square(p)`` makes, as a new float array.  Each square is
    made when its lane of the sum takes it, and dropped once added, so at
    most one is held beside the partial sums; every square is made twice,
    once for B[k, l] and once for B[l, k]."""
    d = _bivector_dim(shape[-1])
    slot = {kl: p for p, kl in enumerate(combinations(range(d), 2))}
    terms = [None if k == l else partial(square, slot[min(k, l), max(k, l)]) for k in range(d) for l in range(d)]
    total = _pairwise_sum(terms)
    return np.sqrt(np.zeros(shape[:-1]) if total is None else total)


def _bivector_gap(lhs, rhs):
    """Residual of the packed bivector relation lhs = rhs: the norm of the
    difference over the mean of the two norms.  The difference is taken one
    component at a time, when its square is added: no lhs - rhs is held."""
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    denom = np.maximum(0.5 * (_fro(lhs) + _fro(rhs)), 1e-300)

    def square(p):
        diff = np.asarray(lhs[..., p] - rhs[..., p], dtype=float)
        diff *= diff
        return diff

    return _packed_norm(square, lhs.shape) / denom


def _pairing_gap(a, b, floor=None):
    """Residual of the vanishing pairing <a, b> = 0, relative to |a| |b|,
    which ``floor`` (a scalar or a per-site array), if given, bounds below."""
    scale = _norm(a) * _norm(b)
    if floor is not None:
        scale = np.maximum(scale, floor)
    return pair(a, b) / np.maximum(scale, 1e-300)


def _scalar_gap(lhs, rhs, scale):
    """Residual of the scalar relation lhs = rhs: (lhs - rhs) / scale.  A
    caller that needs a floor above 1e-300 folds it into ``scale``."""
    return (lhs - rhs) / np.maximum(scale, 1e-300)


def _rejection_gap(a, b, floor=0.0):
    """Residual of a on the line of b, |a - c b| over |a| floored at ``floor``
    |b|, and c = <a, b> / |b|^2 (|b|^2 floored at 1e-300)."""
    bb = np.maximum(_dot(b, b), 1e-300)
    c = _dot(a, b) / bb
    defect = a - c[..., None] * b
    # the defect's norm first, then the scale, none kept: another order raised
    # the peak RSS of a 300^2 lattice build (glibc's allocator) by about 1 MiB
    return _norm(defect) / np.maximum(np.maximum(_norm(a), floor * np.sqrt(bb)) if floor else _norm(a), 1e-300), c


def _degeneracy_bound(scale):
    """``report.DEGENERACY`` times the norm product ``scale``: a determinant at
    or below it in size is degenerate, a radicand below minus it of wrong sign."""
    return DEGENERACY * np.maximum(scale, 1e-300)


def perm_sign(indices):
    """Sign of a permutation given as a 0-based index sequence.

    Returns 0 when an index repeats.
    """
    idx = list(indices)
    n = len(idx)
    if len(set(idx)) != n:
        return 0
    sign = 1
    idx = idx[:]
    for i in range(n):
        while idx[i] != i:
            j = idx[i]
            idx[i], idx[j] = idx[j], idx[i]
            sign = -sign
    return sign


def _planes(comps):
    """The components ``comps``, arrays of one shape (or numbers), as one
    (..., k) array stored component-major: each ``[..., c]`` is a C-contiguous
    plane, so a kernel that reads it reads unit-stride memory.  Elementwise
    numpy keeps that layout in its results."""
    return np.moveaxis(np.stack(comps), 0, -1)


def _planar(shape, alloc=np.empty, dtype=float):
    """``alloc`` (np.empty or np.zeros) of ``shape`` (..., d) and ``dtype``,
    stored component-major as ``_planes`` stacks; each [k][..., c] of a
    stack of fields (k, ..., d) is a C-contiguous plane too."""
    return np.moveaxis(alloc(shape[-1:] + shape[:-1], dtype=dtype), 0, -1)


def _as_vec(a):
    a = np.asarray(a)
    if a.ndim < 1:
        raise DomainError("expected a vector, got a scalar")
    return a


def wedge2(a, b):
    """Wedge of two vectors as a packed bivector (..., d(d-1)/2).

    Component (k, l), k < l, is ``a_k b_l - b_k a_l``.
    """
    a = _as_vec(a)
    b = _as_vec(b)
    d = a.shape[-1]
    if b.shape[-1] != d:
        raise DomainError("wedge2: dimension mismatch")
    if d < 2:
        raise DomainError("wedge2: need vectors of dimension 2 or more")
    out = _planar(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (d * (d - 1) // 2,), dtype=np.result_type(a, b))
    for p, (k, l) in enumerate(combinations(range(d), 2)):
        np.multiply(a[..., k], b[..., l], out=out[..., p])
        out[..., p] -= b[..., k] * a[..., l]
    return out


# (*P)_p = sign * P_q for packed bivectors in dimension 4, as (q, sign):
# (*B)_{kl} = 1/2 eps_{ijkl} B_{ij} with eps(1,2,3,4) = +1.
_STAR4 = ((5, 1), (4, -1), (3, 1), (2, 1), (1, -1), (0, 1))


def hodge_star(P):
    """Hodge star of a packed bivector in dimension 4 (an involution):
    ``[P34, -P24, P23, P14, -P13, P12]``."""
    P = np.asarray(P)
    if P.ndim < 1 or P.shape[-1] != 6:
        raise DomainError("hodge_star: expected a (..., 6) packed bivector")
    return _planes([P[..., q] if s > 0 else s * P[..., q] for q, s in _STAR4])


def _rows(vectors, count, name):
    """Check for d - count vectors of dimension d; broadcast views, one dtype."""
    vecs = [_as_vec(v) for v in vectors]
    if not vecs:
        raise DomainError(f"{name}: no vectors given")
    d = vecs[0].shape[-1]
    if len(vecs) != d - count:
        raise DomainError(f"{name}: need {d - count} vectors of dimension {d}, got {len(vecs)}")
    if any(v.shape[-1] != d for v in vecs):
        raise DomainError(f"{name}: dimension mismatch")
    dtype = np.result_type(*vecs)
    return [v.astype(dtype, copy=False) for v in np.broadcast_arrays(*vecs)]


def _det_cols(rows, cols, memo, out=None):
    """Determinant of ``rows`` on the columns ``cols``, expanded along rows[0].

    The terms are added to the first one in place, the odd ones subtracted:
    v - x m has the bits of the signed sum v + (-x) m (a NaN's sign bit
    aside), with no signed copy and no new sum allocated; exact on Fraction.
    A minor of k columns is read by each of the d - k column sets one column
    larger that hold it (d the vectors' dimension): ``memo`` keeps it, with
    the count of reads left, until its last read.  With ``out`` (a kernel's
    top-level column set, read once) the determinant is computed into it."""
    key = (len(rows), cols)
    if key in memo:
        val, reads = memo.pop(key)
        if reads > 1:
            memo[key] = val, reads - 1
        return val
    r0 = rows[0]
    if len(cols) == 1:
        val = np.empty_like(r0[..., cols[0]]) if out is None else out
        val[...] = r0[..., cols[0]]
    else:
        if len(cols) == 2:
            minors = [rows[1][..., cols[1]], rows[1][..., cols[0]]]
        else:
            minors = (_det_cols(rows[1:], cols[:j] + cols[j + 1 :], memo) for j in range(len(cols)))
        for j, minor in enumerate(minors):
            if j == 0:
                val = np.multiply(r0[..., cols[0]], minor, out=out)
            elif j % 2:
                val -= r0[..., cols[j]] * minor
            else:
                val += r0[..., cols[j]] * minor
    reads = r0.shape[-1] - len(cols)
    if out is None and reads > 1:
        memo[key] = val, reads - 1
    return val


def det_n(vectors):
    """Determinant of d vectors of dimension d by cofactor expansion.

    Cofactor recursion keeps the result exact on integer and rational
    inputs; intended for d <= 6.
    """
    rows = _rows(vectors, 0, "det_n")
    return _det_cols(rows, tuple(range(len(rows))), {})


def cross_n(vectors):
    """Generalized cross product of d-1 vectors in dimension d.

    ``cross_n((a1, ..., a_{d-1}))_i = eps_{i, i2, ..., id} a1_{i2} ... ``,
    multilinear and alternating.  Pinned convention:
    ``cross_n((e1, e2, e3)) == -e4`` in d = 4.
    """
    rows = _rows(vectors, 1, "cross_n")
    d = len(rows) + 1
    memo = {}
    out = _planar(rows[0].shape, dtype=rows[0].dtype)
    for i in range(d):
        _det_cols(rows, tuple(c for c in range(d) if c != i), memo, out=out[..., i])
        if i % 2:
            out[..., i] *= -1
    return out


def pair(f, nu):
    """Dual pairing <f, nu> = sum_i f_i nu_i."""
    f = _as_vec(f)
    nu = _as_vec(nu)
    if f.shape[-1] != nu.shape[-1]:
        raise DomainError("pair: dimension mismatch")
    return _dot(f, nu)


def star_of_wedge(vectors):
    """Hodge star of the wedge of d-2 vectors, as a packed bivector.

    ``star_of_wedge((a1, ..., a_n))_{kl} = eps_{i1..in k l} a1_{i1}...an_{in}``
    for k < l, with d = n + 2.  For d = 4 this coincides with
    ``hodge_star(wedge2(a, b))``.
    """
    rows = _rows(vectors, 2, "star_of_wedge")
    d = len(rows) + 2
    memo = {}
    out = _planar(rows[0].shape[:-1] + (d * (d - 1) // 2,), dtype=rows[0].dtype)
    for p, (k, l) in enumerate(combinations(range(d), 2)):
        cols = tuple(c for c in range(d) if c not in (k, l))
        _det_cols(rows, cols, memo, out=out[..., p])
        if perm_sign(cols + (k, l)) < 0:
            out[..., p] *= -1
    return out


class _Span:
    """The pointwise span of k vectors of dimension d, factored once for any
    number of right-hand sides: the stacked basis, its Gram matrix and its
    scale (the geometric mean of the basis norms).  Raises
    DegeneratePointError(``message``) where the Gram determinant is not above
    1e-24 times the product of the squared basis norms."""

    def __init__(self, basis, message):
        M = np.stack(np.broadcast_arrays(*basis), axis=-1)  # (..., d, k)
        G = np.swapaxes(M, -1, -2) @ M
        detG = np.linalg.det(G)
        scale2 = np.ones(np.asarray(detG).shape)
        for v in basis:
            v = np.asarray(v, dtype=float)
            scale2 = scale2 * _dot(v, v)
        if np.any(detG <= 1e-24 * np.maximum(scale2, 1e-300)):
            raise DegeneratePointError(message)
        self.M, self.G = M, G
        self.scale = np.sqrt(np.maximum(scale2, 1e-300)) ** (1.0 / len(basis))

    def fit(self, rhs):
        """Least-squares coefficients (..., k) of rhs (..., d) in the span and
        the distance of rhs from it, relative to |rhs| (floored at 1e-12 times
        the basis scale)."""
        b = np.swapaxes(self.M, -1, -2) @ rhs[..., :, None]
        coeff = np.linalg.solve(self.G, b)
        recon = (self.M @ coeff)[..., 0]
        return coeff[..., 0], _norm(rhs - recon) / np.maximum(_norm(rhs), 1e-12 * self.scale)
