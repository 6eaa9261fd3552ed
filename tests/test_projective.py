"""Homogeneous-coordinate comparison helpers."""

import numpy as np
import pytest

from plmkit.errors import DomainError
from plmkit.projective import normalized_last_distance, projective_distance


def test_scaling_and_sign_invariance():
    u = np.array([1.0, 2.0, -3.0, 4.0])
    assert projective_distance(u, 2.5 * u) < 1e-15
    assert projective_distance(u, -u) < 1e-15
    assert projective_distance(u, -1e6 * u) <= 1e-10


def test_orthogonal_representatives():
    assert projective_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_small_angle_accuracy():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([1.0, 1e-9, 0.0, 0.0])
    d = projective_distance(u, v)
    assert abs(d - 1e-9) < 1e-15


def test_batched():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 4))
    s = rng.uniform(0.5, 2.0, size=(6, 1)) * np.where(rng.random((6, 1)) < 0.5, -1, 1)
    d = projective_distance(u, s * u)
    assert d.shape == (6,)
    assert np.max(d) < 1e-12


def test_zero_vector_rejected():
    with pytest.raises(DomainError):
        projective_distance([0.0, 0.0], [1.0, 0.0])


def test_normalized_last_distance():
    u = np.array([2.0, 4.0, 2.0])
    v = np.array([1.0, 2.0, 1.0])
    assert normalized_last_distance(u, v) == 0.0
    assert normalized_last_distance(u, -v) == 0.0  # sign divides out
    with pytest.raises(DomainError):
        normalized_last_distance([1.0, 0.0], [1.0, 1.0])
