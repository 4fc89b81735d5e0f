"""MicroResNet — the ResNet-18 stand-in (see DESIGN.md §2).

Same ingredients as the ResNet-18 the paper trains — 3×3 convolutions,
BatchNorm, identity/projection shortcuts, stage-wise stride-2 downsampling,
global average pooling — scaled down so an epoch of synthetic data trains in
seconds on one CPU core.  The sparsification algorithms only see per-layer
gradient tensors, so the code paths exercised are identical.
"""

from __future__ import annotations

import numpy as np

from ...autograd import Tensor
from ..conv import Conv2d, GlobalAvgPool2d
from ..layers import Identity, Linear, ReLU
from ..module import Module, Sequential
from ..norm import BatchNorm2d

__all__ = ["BasicBlock", "MicroResNet"]


class BasicBlock(Module):
    """Two 3×3 conv-BN pairs with a residual connection (ResNet 'basic' block)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        if stride != 1 or in_channels != out_channels:
            # Projection shortcut (1×1 conv), as in ResNet option B.
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu(out + self.shortcut(x))


class MicroResNet(Module):
    """Configurable residual network.

    ``blocks_per_stage`` and ``widths`` control depth/width.
    """

    def __init__(
        self,
        in_channels: int = 3,
        num_classes: int = 10,
        widths: tuple[int, ...] = (8, 16, 32),
        blocks_per_stage: int = 1,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(widths[0])
        self.relu = ReLU()

        stages: list[Module] = []
        prev = widths[0]
        for i, width in enumerate(widths):
            for b in range(blocks_per_stage):
                stride = 2 if (i > 0 and b == 0) else 1
                stages.append(BasicBlock(prev, width, stride=stride, rng=rng))
                prev = width
        self.stages = Sequential(*stages)
        self.gap = GlobalAvgPool2d()
        self.fc = Linear(prev, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.stem_bn(self.stem(x)))
        x = self.stages(x)
        return self.fc(self.gap(x))
