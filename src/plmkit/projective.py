"""Helpers for comparing points given in homogeneous coordinates."""

import numpy as np

from .errors import DomainError
from .multilinear import _dot, _norm

__all__ = ["projective_distance", "normalized_last_distance"]


def projective_distance(u, v):
    """Sine of the angle between the lines spanned by u and v.

    0 for projectively equal points (any nonzero scaling, either sign),
    1 for orthogonal representatives.  Supports batched input.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = _norm(u)
    nv = _norm(v)
    if np.any(nu == 0) or np.any(nv == 0):
        raise DomainError("projective comparison of a zero vector")
    # rejection norm, accurate near zero (1 - cos^2 cancels there)
    uh = u / nu[..., None]
    vh = v / nv[..., None]
    rej = uh - _dot(uh, vh)[..., None] * vh
    return np.minimum(_norm(rej), 1.0)


def normalized_last_distance(u, v):
    """Max-norm distance after scaling both vectors to last component 1."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u[..., -1] == 0) or np.any(v[..., -1] == 0):
        raise DomainError("cannot normalize: last component vanishes")
    du = u / u[..., -1:]
    dv = v / v[..., -1:]
    return np.max(np.abs(du - dv), axis=-1)
