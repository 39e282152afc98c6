"""Pauli matrices and fixed two-qubit operator constants."""

from __future__ import annotations

import numpy as np

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)

# PAIR[j, k] = sigma_j (x) sigma_k
PAIR = np.array([[np.kron(a, b) for b in PAULI] for a in PAULI])

# sum_k sigma_k (x) sigma_k, spectrum {1, 1, 1, -3}
SIGMA_DOT_SIGMA = sum(PAIR[k, k] for k in (1, 2, 3))

SWAP = 0.5 * (np.eye(4, dtype=complex) + SIGMA_DOT_SIGMA)

IDENTITY4 = np.eye(4, dtype=complex)


# the two antisymmetric combinations generated by conjugating the
# spin-exchange term with x-axis single-spin rotations
SIGMA_32 = PAIR[3, 2] - PAIR[2, 3]
SIGMA_10 = PAIR[1, 0] - PAIR[0, 1]


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """max |m - m^+| of a matrix (a float), or of each matrix of a stack
    (an array over the leading axes)."""
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect
