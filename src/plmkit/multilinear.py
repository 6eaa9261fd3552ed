"""Exact small-dimension exterior algebra.

Levi-Civita signs, generalized cross products, wedge products, the Hodge
star on bivectors in dimension 4, determinants by cofactor expansion and
the dual pairing.  Everything is written with plain +, -, * and indexing
only, so the same code runs on float arrays, on ``fractions.Fraction``
scalars and on numpy object arrays (the exact-rational test mode).

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


def _norm(a):
    """Euclidean norm over the last axis, in floats."""
    return np.sqrt((np.asarray(a, dtype=float) ** 2).sum(axis=-1))


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


def det_n(vectors):
    """Determinant of d vectors of dimension d by cofactor expansion.

    Cofactor recursion keeps the result exact on integer and rational
    inputs; intended for d <= 6.
    """
    vecs = [_as_vec(v) for v in vectors]
    d = vecs[0].shape[-1]
    if len(vecs) != d:
        raise DomainError(f"det_n: need {d} vectors, got {len(vecs)}")
    for v in vecs:
        if v.shape[-1] != d:
            raise DomainError("det_n: dimension mismatch")
    M = np.stack(np.broadcast_arrays(*vecs), axis=-2)
    return _det_rec(M)


def cross_n(vectors):
    """Generalized cross product of d-1 vectors in dimension d.

    ``cross_n((a1, ..., a_{d-1}))_i = eps_{i, i2, ..., id} a1_{i2} ... ``,
    multilinear and alternating.  Pinned convention:
    ``cross_n((e1, e2, e3)) == -e4`` in d = 4.
    """
    vecs = [_as_vec(v) for v in vectors]
    d = vecs[0].shape[-1]
    if len(vecs) != d - 1:
        raise DomainError(f"cross_n: need {d - 1} vectors of dimension {d}, got {len(vecs)}")
    for v in vecs:
        if v.shape[-1] != d:
            raise DomainError("cross_n: dimension mismatch")
    M = np.stack(np.broadcast_arrays(*vecs), axis=-2)  # (..., d-1, d)
    comps = []
    sign = 1
    for i in range(d):
        keep = [c for c in range(d) if c != i]
        comps.append(sign * _det_rec(M[..., :, keep]))
        sign = -sign
    return np.stack(comps, axis=-1)


def pair(f, nu):
    """Dual pairing <f, nu> = sum_i f_i nu_i."""
    f = _as_vec(f)
    nu = _as_vec(nu)
    if f.shape[-1] != nu.shape[-1]:
        raise DomainError("pair: dimension mismatch")
    return (f * nu).sum(axis=-1)


def star_of_wedge(vectors):
    """Hodge star of the wedge of d-2 vectors, as a (..., d, d) bivector.

    ``star_of_wedge((a1, ..., a_n))_{kl} = eps_{i1..in k l} a1_{i1}...an_{in}``
    with d = n + 2.  For d = 4 this coincides with
    ``hodge_star(wedge2(a, b))``.
    """
    vecs = [_as_vec(v) for v in vectors]
    n = len(vecs)
    d = vecs[0].shape[-1]
    if n != d - 2:
        raise DomainError(f"star_of_wedge: need {d - 2} vectors of dimension {d}")
    for v in vecs:
        if v.shape[-1] != d:
            raise DomainError("star_of_wedge: dimension mismatch")
    M = np.stack(np.broadcast_arrays(*vecs), axis=-2)  # (..., n, d)
    batch = M.shape[:-2]
    out = np.zeros(batch + (d, d), dtype=M.dtype)
    for k, l in combinations(range(d), 2):
        cols = [c for c in range(d) if c not in (k, l)]
        s = perm_sign(cols + [k, l])
        v = s * _det_rec(M[..., :, cols])
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
