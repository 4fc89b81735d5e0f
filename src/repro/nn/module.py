"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autograd import Tensor

__all__ = ["Module", "Parameter", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all network components.

    Submodules and parameters assigned as attributes are auto-registered,
    mirroring the PyTorch convention the paper's implementation relied on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(name)
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[f"buffer:{name}"] = b.copy()
        return state

    def load_state_dict(self, state: "OrderedDict[str, np.ndarray]") -> None:
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer:"):
                self._load_buffer(name[len("buffer:") :], value)
            else:
                if name not in params:
                    raise KeyError(f"unknown parameter {name!r}")
                np.copyto(params[name].data, value)

    def _load_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        mod: Module = self
        for part in parts[:-1]:
            mod = mod._modules[part]
        # Copy into the registered buffer's dtype, as np.copyto does for the
        # parameters above: a float64 checkpoint must not re-widen the model.
        name = parts[-1]
        registered = mod._buffers[name]  # KeyError: not a registered buffer
        value = np.asarray(value)
        if value.shape != registered.shape:
            raise ValueError(
                f"buffer {dotted!r} has shape {registered.shape}, checkpoint has {value.shape}"
            )
        mod.set_buffer(name, value.astype(registered.dtype))

    # ------------------------------------------------------------------
    def astype(self, dtype: "np.dtype | type | str") -> "Module":
        """Convert every parameter and buffer to ``dtype``, in place.

        Models are built float32 (:data:`repro.autograd.DEFAULT_DTYPE`); this
        is the one way to get another width — the float64 model that
        ``gradcheck`` and the parity oracles need.  Widening is exact, so
        ``model.astype(np.float64)`` holds the same θ0 as its float32 twin.
        Gradients are dropped (they belong to the old arrays); returns
        ``self`` for chaining.
        """
        for module in self.modules():
            for p in module._parameters.values():
                p.data = p.data.astype(dtype)
                p.grad = None
            for name, b in list(module._buffers.items()):
                module.set_buffer(name, b.astype(dtype))
        return self


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
