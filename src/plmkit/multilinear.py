"""Exact small-dimension exterior algebra.

Levi-Civita signs, generalized cross products, wedge products, the Hodge
star on bivectors in dimension 4, determinants and the dual pairing.
``det_n``, ``cross_n`` and ``star_of_wedge`` share one cofactor engine,
``_det_cols``: it expands along the first vector, reads columns as views of
the broadcast inputs (no stacked matrix, no copied minors) and memoizes the
minors of the trailing vectors, so the column sets of one call share them.
Everything is written with plain +, -, * and indexing only, so the same
code runs on float arrays, on ``fractions.Fraction`` scalars and on numpy
object arrays (the exact-rational test mode).

Sign conventions are anchored by eps(1,2,...,d) = +1, which pins
``cross_n((e1, e2, e3)) == -e4`` in dimension 4 and
``hodge_star(wedge2(e1, e2)) == wedge2(e3, e4)``.

All functions accept either a single vector of shape ``(d,)`` or a batch
with arbitrary leading axes, shape ``(..., d)``.
"""

from itertools import combinations

import numpy as np

from .errors import DomainError

__all__ = [
    "levi_civita_sign",
    "perm_sign",
    "wedge2",
    "hodge_star",
    "cross_n",
    "det_n",
    "pair",
    "star_of_wedge",
    "is_antisymmetric",
]


def _dot(a, b):
    """sum_k a_k b_k over the last axis.

    For float vectors of dimension below 8 the sum is unrolled into one
    array operation per component, ``0.0 + a0*b0 + a1*b1 + ...``: this is
    the order numpy's ``.sum(axis=-1)`` adds so short an axis in, signed
    zeros included, so the result is bit-identical, without the per-site
    inner loop.  Other inputs (object arrays of ``Fraction``, integers,
    empty or longer vectors) keep ``.sum``, exact on ``Fraction``.
    """
    d = a.shape[-1]
    if not 0 < d < 8 or np.result_type(a, b).kind != "f":
        return (a * b).sum(axis=-1)
    s = 0.0
    for k in range(d):
        s = s + a[..., k] * b[..., k]
    return s


def _norm(a):
    """Euclidean norm over the last axis, in floats."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(_dot(a, a))


def _fro(B):
    """Frobenius norm over the last two axes, in floats."""
    return np.sqrt((np.asarray(B, dtype=float) ** 2).sum(axis=(-2, -1)))


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


def levi_civita_sign(p):
    """Levi-Civita symbol eps_p for a 1-based index tuple.

    eps(1, 2, ..., d) = +1; repeated indices give 0; indices outside
    1..d raise :class:`DomainError`.
    """
    p = tuple(int(i) for i in p)
    d = len(p)
    for i in p:
        if not 1 <= i <= d:
            raise DomainError(f"index {i} out of range 1..{d}")
    return perm_sign(tuple(i - 1 for i in p))


def _as_vec(a):
    a = np.asarray(a)
    if a.ndim < 1:
        raise DomainError("expected a vector, got a scalar")
    return a


def wedge2(a, b):
    """Wedge of two vectors as an antisymmetric (..., d, d) array."""
    a = _as_vec(a)
    b = _as_vec(b)
    if a.shape[-1] != b.shape[-1]:
        raise DomainError("wedge2: dimension mismatch")
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


# (k, l) -> (i, j, sign) with  (*B)_{kl} = sign * B_{ij},  0-based,
# from (*B)_{kl} = 1/2 eps_{ijkl} B_{ij} with eps(1,2,3,4) = +1.
_STAR4 = {
    (0, 1): (2, 3, 1),
    (0, 2): (1, 3, -1),
    (0, 3): (1, 2, 1),
    (1, 2): (0, 3, 1),
    (1, 3): (0, 2, -1),
    (2, 3): (0, 1, 1),
}


def hodge_star(B):
    """Hodge star of a bivector in dimension 4 (an involution)."""
    B = np.asarray(B)
    if B.shape[-2:] != (4, 4):
        raise DomainError("hodge_star: expected (..., 4, 4) bivector")
    out = np.zeros_like(B)
    for (k, l), (i, j, s) in _STAR4.items():
        v = s * B[..., i, j]
        out[..., k, l] = v
        out[..., l, k] = -v
    return out


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


def _det_cols(rows, cols, memo):
    """Determinant of ``rows`` on the columns ``cols``, expanded along rows[0]."""
    key = (len(rows), cols)
    if key not in memo:
        r0 = rows[0]
        if len(cols) == 1:
            val = r0[..., cols[0]].copy()
        elif len(cols) == 2:
            a, b = cols
            val = r0[..., a] * rows[1][..., b] - r0[..., b] * rows[1][..., a]
        else:
            val = None
            sign = 1
            for j, c in enumerate(cols):
                term = sign * r0[..., c] * _det_cols(rows[1:], cols[:j] + cols[j + 1 :], memo)
                val = term if val is None else val + term
                sign = -sign
        memo[key] = val
    return memo[key]


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
    comps = []
    sign = 1
    for i in range(d):
        comps.append(sign * _det_cols(rows, tuple(c for c in range(d) if c != i), memo))
        sign = -sign
    return np.stack(comps, axis=-1)


def pair(f, nu):
    """Dual pairing <f, nu> = sum_i f_i nu_i."""
    f = _as_vec(f)
    nu = _as_vec(nu)
    if f.shape[-1] != nu.shape[-1]:
        raise DomainError("pair: dimension mismatch")
    return _dot(f, nu)


def star_of_wedge(vectors):
    """Hodge star of the wedge of d-2 vectors, as a (..., d, d) bivector.

    ``star_of_wedge((a1, ..., a_n))_{kl} = eps_{i1..in k l} a1_{i1}...an_{in}``
    with d = n + 2.  For d = 4 this coincides with
    ``hodge_star(wedge2(a, b))``.
    """
    rows = _rows(vectors, 2, "star_of_wedge")
    d = len(rows) + 2
    memo = {}
    out = np.zeros(rows[0].shape[:-1] + (d, d), dtype=rows[0].dtype)
    for k, l in combinations(range(d), 2):
        cols = tuple(c for c in range(d) if c not in (k, l))
        v = perm_sign(cols + (k, l)) * _det_cols(rows, cols, memo)
        out[..., k, l] = v
        out[..., l, k] = -v
    return out


def is_antisymmetric(B, tol=0.0):
    """True when B[i, j] == -B[j, i] within tol (0 = exact)."""
    B = np.asarray(B)
    diff = B + np.swapaxes(B, -1, -2)
    if B.dtype == object:
        return not np.any(diff != 0)
    return bool(np.max(np.abs(diff), initial=0.0) <= tol)
