"""Synthetic dataset generators.

The paper evaluates on CIFAR-10 and ImageNet, neither of which is available
offline.  Per DESIGN.md §2 we substitute procedurally generated,
class-structured datasets that exercise the identical training pipeline:
multi-class image-shaped inputs, per-worker shards, train/validation split,
and a top-1 accuracy metric whose ordering across methods is meaningful.

Generation model for image datasets: each class draws a smooth random
"template" image; each sample is the template under a random affine-ish
deformation (shift + channel gain) plus Gaussian pixel noise.  The
``difficulty`` knob scales noise relative to template separation so that
reaching high accuracy requires genuine optimisation, not memorisation.

Inputs come out float32, the width the models compute at, so a batch reaches
the first layer without a cast.  The generators still draw from the
``Generator``'s double stream and round once, so every seed names the values
it always did, to float32 rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "make_blobs",
    "make_image_classes",
    "synthetic_cifar10",
    "synthetic_imagenet",
]


@dataclass
class Dataset:
    """An in-memory supervised dataset with a held-out validation split."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ValueError("train inputs/targets length mismatch")
        if len(self.x_val) != len(self.y_val):
            raise ValueError("val inputs/targets length mismatch")

    @property
    def n_train(self) -> int:
        return len(self.x_train)

    @property
    def n_val(self) -> int:
        return len(self.x_val)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.x_train.shape[1:]

    def shard(self, num_shards: int, shard_id: int) -> "Dataset":
        """Return the ``shard_id``-th of ``num_shards`` disjoint training shards.

        The shard's training arrays are read-only strided views of this
        dataset's (rows ``shard_id, shard_id + num_shards, …``), so K
        shards cost no second copy of the training set.  Validation data
        is shared by all shards (evaluation is global).
        """
        if not 0 <= shard_id < num_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {num_shards} shards")
        return Dataset(
            _read_only(self.x_train[shard_id::num_shards]),
            _read_only(self.y_train[shard_id::num_shards]),
            self.x_val,
            self.y_val,
            self.num_classes,
            name=f"{self.name}[shard {shard_id}/{num_shards}]",
        )


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _split(
    x: np.ndarray, y: np.ndarray, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle ``x`` in place and cut it: ``(x_train, y_train, x_val, y_val)``.

    The rows land where ``x[perm]`` would put them, so the values are those
    of the fancy-index split, but ``x_val`` and ``x_train`` are the two
    contiguous halves of ``x`` itself: the samples are never held twice.
    """
    n = len(x)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    _permute_rows(x, perm)
    y = y[perm]  # the labels are small; a copy costs nothing
    return x[n_val:], y[n_val:], x[:n_val], y[:n_val]


def _permute_rows(a: np.ndarray, perm: np.ndarray) -> None:
    """``a[:] = a[perm]`` in place with one row of scratch.

    Follows each cycle of ``perm``: row ``j`` takes row ``perm[j]``, and the
    row that opened the cycle, saved first, closes it.
    """
    order = perm.tolist()
    done = bytearray(len(order))
    saved = np.empty_like(a[:1])
    for start in range(len(order)):
        if done[start]:
            continue
        saved[0] = a[start]
        j = start
        while True:
            done[j] = 1
            k = order[j]
            if k == start:
                a[j] = saved[0]
                break
            a[j] = a[k]
            j = k


#: rows of ``make_blobs`` generated per pass (1.5 MB of doubles at dim 768)
_BLOCK_ROWS = 256


def make_blobs(
    n_samples: int = 1000,
    num_classes: int = 10,
    dim: int = 20,
    sep: float = 2.0,
    noise: float = 1.0,
    val_fraction: float = 0.2,
    seed: int = 0,
) -> Dataset:
    """Gaussian class clusters — the fastest dataset, used in unit tests."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, sep, size=(num_classes, dim))
    y = rng.integers(0, num_classes, size=n_samples)
    # Row blocks drawn in order consume the stream exactly as one
    # (n_samples, dim) draw would; each block is summed in double and rounded
    # as it lands, so the only sample-sized array ever alive is the result.
    x = np.empty((n_samples, dim), dtype=np.float32)
    for start in range(0, n_samples, _BLOCK_ROWS):
        labels = y[start : start + _BLOCK_ROWS]
        x[start : start + _BLOCK_ROWS] = centers[labels] + rng.normal(
            0.0, noise, size=(len(labels), dim)
        )
    xtr, ytr, xv, yv = _split(x, y, val_fraction, rng)
    return Dataset(xtr, ytr, xv, yv, num_classes, name="blobs")


def _smooth_template(
    rng: np.random.Generator, channels: int, size: int, smoothness: int = 3
) -> np.ndarray:
    """Draw a smooth random image by upsampling low-frequency noise."""
    coarse = rng.normal(0.0, 1.0, size=(channels, smoothness, smoothness))
    # Bilinear upsample via separable linear interpolation (vectorised).
    grid = np.linspace(0, smoothness - 1, size)
    lo = np.floor(grid).astype(int)
    hi = np.minimum(lo + 1, smoothness - 1)
    frac = grid - lo
    rows = coarse[:, lo, :] * (1 - frac)[None, :, None] + coarse[:, hi, :] * frac[None, :, None]
    img = rows[:, :, lo] * (1 - frac)[None, None, :] + rows[:, :, hi] * frac[None, None, :]
    return img


def make_image_classes(
    n_samples: int = 2000,
    num_classes: int = 10,
    channels: int = 3,
    size: int = 8,
    difficulty: float = 1.0,
    val_fraction: float = 0.2,
    seed: int = 0,
    name: str = "images",
) -> Dataset:
    """Class-template image dataset (the CIFAR/ImageNet stand-in)."""
    rng = np.random.default_rng(seed)
    templates = np.stack([_smooth_template(rng, channels, size) for _ in range(num_classes)])
    y = rng.integers(0, num_classes, size=n_samples)

    x = templates[y]  # fancy indexing: already a fresh array
    # Random spatial shift by up to 1 pixel (np.roll per-sample, vectorised
    # by grouping the nine possible shifts).
    shifts = rng.integers(-1, 2, size=(n_samples, 2))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            mask = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            if mask.any() and (dy or dx):
                x[mask] = np.roll(x[mask], shift=(dy, dx), axis=(2, 3))
    # Per-sample channel gain and additive noise.
    gain = 1.0 + 0.1 * rng.normal(size=(n_samples, channels, 1, 1))
    x *= gain
    x += rng.normal(0.0, 0.35 * difficulty, size=x.shape)
    # C order: the templates' upsampling leaves x strided, and the split
    # hands out views of this array
    x = x.astype(np.float32, order="C")

    xtr, ytr, xv, yv = _split(x, y, val_fraction, rng)
    return Dataset(xtr, ytr, xv, yv, num_classes, name=name)


def synthetic_cifar10(
    n_samples: int = 2000, size: int = 8, difficulty: float = 1.0, seed: int = 0
) -> Dataset:
    """10-class RGB image dataset, the CIFAR-10 substitute (DESIGN.md §2)."""
    return make_image_classes(
        n_samples=n_samples,
        num_classes=10,
        channels=3,
        size=size,
        difficulty=difficulty,
        seed=seed,
        name="synthetic-cifar10",
    )


def synthetic_imagenet(
    n_samples: int = 6000,
    num_classes: int = 50,
    size: int = 8,
    difficulty: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Larger many-class image dataset, the ImageNet substitute (DESIGN.md §2)."""
    return make_image_classes(
        n_samples=n_samples,
        num_classes=num_classes,
        channels=3,
        size=size,
        difficulty=difficulty,
        seed=seed,
        name="synthetic-imagenet",
    )
