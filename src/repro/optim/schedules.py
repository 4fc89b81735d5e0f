"""Learning-rate schedules.

The paper decays the LR ×0.1 at fixed epochs (30/40 of 50 on CIFAR,
30/60 of 90 on ImageNet).
"""

from __future__ import annotations

__all__ = ["Schedule", "ConstantLR", "StepDecay"]


class Schedule:
    """Maps an epoch (float — fractional epochs allowed) to a learning rate."""

    def lr_at(self, epoch: float) -> float:
        raise NotImplementedError

    def __call__(self, epoch: float) -> float:
        lr = self.lr_at(epoch)
        if lr <= 0:
            raise ValueError(f"schedule produced non-positive lr {lr} at epoch {epoch}")
        return lr


class ConstantLR(Schedule):
    def __init__(self, lr: float) -> None:
        self.lr = lr

    def lr_at(self, epoch: float) -> float:
        return self.lr


class StepDecay(Schedule):
    """Multiply the base LR by ``factor`` at each milestone epoch.

    ``StepDecay(0.1, milestones=(30, 60), factor=0.1)`` reproduces the
    paper's ImageNet schedule.
    """

    def __init__(self, base_lr: float, milestones: tuple[float, ...], factor: float = 0.1) -> None:
        self.base_lr = base_lr
        self.milestones = tuple(sorted(milestones))
        self.factor = factor

    def lr_at(self, epoch: float) -> float:
        drops = sum(1 for m in self.milestones if epoch >= m)
        return self.base_lr * self.factor**drops
