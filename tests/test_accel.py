"""Batched kernels: whole stacks of matrices handled in one numpy call."""

import numpy as np

from ctlab.linalg import _phase_corrected_qr


def _gaussian_batch(rng, count, d):
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return np.ascontiguousarray(g / np.sqrt(2.0))


def test_haar_batch_outputs_unitaries():
    rng = np.random.default_rng(0)
    us = _phase_corrected_qr(_gaussian_batch(rng, 64, 3))
    assert us.shape == (64, 3, 3)
    eye = np.eye(3)
    for u in us:
        assert np.abs(u.conj().T @ u - eye).max() < 1e-10
