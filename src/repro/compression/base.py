"""Sparsifier interface: select which entries of a layer's update to send."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Sparsifier", "sparsify", "unsparsify"]


class Sparsifier(ABC):
    """Chooses a boolean send-mask per layer tensor.

    The paper's notation (Algorithms 1–3): ``sparsify(x)`` zeroes entries
    below the threshold; ``unsparsify(x)`` zeroes entries above it; the two
    partition ``x``.
    """

    @abstractmethod
    def mask(self, arr: np.ndarray) -> np.ndarray:
        """Return a boolean array marking the entries to transmit."""

    def select(self, arr: np.ndarray):
        """Fused mask+encode: the selected entries as a ``SparseTensor``.

        Optional fast path: sparsifiers that can produce the wire tensor
        directly (without materialising the boolean mask) override this.
        The default returns ``None``,
        telling callers to fall back to ``encode_mask(arr, self.mask(arr))``
        — both routes must select the identical entry set.
        """
        return None

    def split(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(mask, sent, kept)`` with ``sent + kept == arr``."""
        m = self.mask(arr)
        sent = np.where(m, arr, 0.0)
        kept = np.where(m, 0.0, arr)
        return m, sent, kept


def sparsify(arr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Keep entries above threshold (paper's ``sparsify``): ``arr ⊙ mask``."""
    return np.where(mask, arr, 0.0)


def unsparsify(arr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Keep entries below threshold (paper's ``unsparsify``): ``arr ⊙ ¬mask``."""
    return np.where(mask, 0.0, arr)
