"""Communication-volume accounting used by every trainer and benchmark."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["CompressionStats"]


@dataclass
class CompressionStats:
    """Tracks actual vs dense-equivalent bytes for both directions.

    Recording is internally synchronised: the channel layer shares one
    sink across all of a trainer's channels, so any thread may record
    into it.
    """

    upload_bytes: int = 0
    download_bytes: int = 0
    upload_dense_bytes: int = 0
    download_dense_bytes: int = 0
    upload_messages: int = 0
    download_messages: int = 0
    _mu: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_upload(self, actual: int, dense_equiv: int) -> None:
        if actual < 0 or dense_equiv < 0:
            raise ValueError("byte counts must be non-negative")
        with self._mu:
            self.upload_bytes += actual
            self.upload_dense_bytes += dense_equiv
            self.upload_messages += 1

    def record_download(self, actual: int, dense_equiv: int) -> None:
        if actual < 0 or dense_equiv < 0:
            raise ValueError("byte counts must be non-negative")
        with self._mu:
            self.download_bytes += actual
            self.download_dense_bytes += dense_equiv
            self.download_messages += 1

    @property
    def total_bytes(self) -> int:
        return self.upload_bytes + self.download_bytes

    @property
    def upload_ratio(self) -> float:
        """Compression ratio achieved upstream (dense / actual)."""
        return self.upload_dense_bytes / self.upload_bytes if self.upload_bytes else 1.0

    @property
    def download_ratio(self) -> float:
        return self.download_dense_bytes / self.download_bytes if self.download_bytes else 1.0

    @property
    def overall_ratio(self) -> float:
        dense = self.upload_dense_bytes + self.download_dense_bytes
        return dense / self.total_bytes if self.total_bytes else 1.0

    def merge(self, other: "CompressionStats") -> None:
        with self._mu:
            self.upload_bytes += other.upload_bytes
            self.download_bytes += other.download_bytes
            self.upload_dense_bytes += other.upload_dense_bytes
            self.download_dense_bytes += other.download_dense_bytes
            self.upload_messages += other.upload_messages
            self.download_messages += other.download_messages
