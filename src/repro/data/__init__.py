"""Synthetic datasets and sharded loading (CIFAR/ImageNet substitutes)."""

from .loader import BatchIterator, DataLoader
from .synthetic import (
    Dataset,
    make_blobs,
    make_image_classes,
    synthetic_cifar10,
    synthetic_imagenet,
)

__all__ = [
    "Dataset",
    "make_blobs",
    "make_image_classes",
    "synthetic_cifar10",
    "synthetic_imagenet",
    "BatchIterator",
    "DataLoader",
]
