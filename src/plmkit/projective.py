"""Helpers for comparing points given in homogeneous coordinates."""

import numpy as np

from .errors import DomainError
from .report import PROJECTIVE_TOL

__all__ = ["projective_distance", "normalized_last_distance", "projectively_equal"]


def projective_distance(u, v):
    """Sine of the angle between the lines spanned by u and v.

    0 for projectively equal points (any nonzero scaling, either sign),
    1 for orthogonal representatives.  Supports batched input.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.sqrt((u * u).sum(axis=-1))
    nv = np.sqrt((v * v).sum(axis=-1))
    if np.any(nu == 0) or np.any(nv == 0):
        raise DomainError("projective comparison of a zero vector")
    # rejection norm, accurate near zero (1 - cos^2 cancels there)
    uh = u / nu[..., None]
    vh = v / nv[..., None]
    rej = uh - (uh * vh).sum(axis=-1)[..., None] * vh
    return np.minimum(np.sqrt((rej * rej).sum(axis=-1)), 1.0)


def normalized_last_distance(u, v):
    """Max-norm distance after scaling both vectors to last component 1."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u[..., -1] == 0) or np.any(v[..., -1] == 0):
        raise DomainError("cannot normalize: last component vanishes")
    du = u / u[..., -1:]
    dv = v / v[..., -1:]
    return np.max(np.abs(du - dv), axis=-1)


def projectively_equal(u, v):
    """Whether ``projective_distance(u, v)`` is at most ``report.PROJECTIVE_TOL``."""
    return bool(np.all(projective_distance(u, v) <= PROJECTIVE_TOL))
