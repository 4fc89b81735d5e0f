"""Model checkpointing to ``.npz`` (no pickle — portable and safe)."""

from __future__ import annotations

import pathlib

import numpy as np

from .module import Module

__all__ = ["save_checkpoint", "load_checkpoint"]

_META_KEY = "__repro_checkpoint__"


def save_checkpoint(model: Module, path: "str | pathlib.Path") -> None:
    """Write all parameters and buffers of ``model`` to an .npz file."""
    state = model.state_dict()
    payload = {_sanitize(k): v for k, v in state.items()}
    payload[_META_KEY] = np.array(list(state.keys()), dtype=str)
    np.savez(path, **payload)


def load_checkpoint(model: Module, path: "str | pathlib.Path") -> None:
    """Load an .npz checkpoint into ``model`` (shapes must match)."""
    with np.load(path, allow_pickle=False) as data:
        if _META_KEY not in data:
            raise ValueError(f"{path} is not a repro checkpoint")
        keys = [str(k) for k in data[_META_KEY]]
        state = {k: data[_sanitize(k)] for k in keys}
    model.load_state_dict(state)


def _sanitize(key: str) -> str:
    # np.savez forbids keys that collide with its positional-arg scheme;
    # dots and colons are fine, but be defensive about the reserved name.
    if key == _META_KEY:
        raise ValueError(f"state key collides with reserved name {_META_KEY!r}")
    return key
