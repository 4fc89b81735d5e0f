"""Loader for the real CIFAR-10 dataset (binary version).

The offline reproduction trains on synthetic data (DESIGN.md §2), but a
downstream user with the actual dataset can point this loader at the
standard ``cifar-10-batches-bin`` directory (from
``cifar-10-binary.tar.gz``) and run every experiment on real CIFAR-10.
Pure NumPy parsing of the binary record format:

    <1 byte label><3072 bytes pixels (R, G, B planes, 32×32 row-major)>

Images come out as float32 ``(N, 3, 32, 32)`` normalised to zero mean and
unit variance per channel (the statistics are computed from the training
batches themselves, accumulated in double, so no magic constants).
"""

from __future__ import annotations

import pathlib

import numpy as np

from .synthetic import Dataset

__all__ = ["load_cifar10", "read_cifar10_batch", "CIFAR10_LABELS"]

CIFAR10_LABELS = (
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
)

_RECORD_BYTES = 1 + 3 * 32 * 32
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"


def read_cifar10_batch(path: "str | pathlib.Path") -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch file into ((N,3,32,32) float32, (N,) labels)."""
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % _RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {raw.size} is not a multiple of the CIFAR-10 "
            f"record length {_RECORD_BYTES}"
        )
    records = raw.reshape(-1, _RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise ValueError(f"{path}: labels out of range — not a CIFAR-10 batch?")
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32)
    return images, labels


def load_cifar10(
    root: "str | pathlib.Path",
    val_from_test: bool = True,
    limit: int | None = None,
    seed: int = 0,
) -> Dataset:
    """Load CIFAR-10 from a ``cifar-10-batches-bin`` directory.

    ``val_from_test=True`` uses the official test batch as the validation
    split (the paper reports test accuracy); otherwise the last 10% of the
    training set is held out.  ``limit`` caps the training-set size (for
    quick runs).
    """
    root = pathlib.Path(root)
    missing = [f for f in TRAIN_FILES if not (root / f).exists()]
    if missing:
        raise FileNotFoundError(
            f"{root} does not look like cifar-10-batches-bin (missing {missing[0]})"
        )
    xs, ys = zip(*(read_cifar10_batch(root / f) for f in TRAIN_FILES))
    x_train = np.concatenate(xs)
    y_train = np.concatenate(ys)

    # Per-channel standardisation from the training data, in place: the
    # statistics accumulate in double and are applied at the images' width.
    mean = x_train.mean(axis=(0, 2, 3), keepdims=True, dtype=float).astype(np.float32)
    std = x_train.std(axis=(0, 2, 3), keepdims=True, dtype=float).astype(np.float32)
    std[std == 0] = 1.0
    x_train -= mean
    x_train /= std

    if val_from_test and (root / TEST_FILE).exists():
        x_val, y_val = read_cifar10_batch(root / TEST_FILE)
        x_val -= mean
        x_val /= std
    else:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(x_train))
        n_val = max(1, len(x_train) // 10)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        x_val, y_val = x_train[val_idx], y_train[val_idx]
        x_train, y_train = x_train[train_idx], y_train[train_idx]

    if limit is not None:
        x_train, y_train = x_train[:limit], y_train[:limit]
    return Dataset(x_train, y_train, x_val, y_val, num_classes=10, name="cifar10")
