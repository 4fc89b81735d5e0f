"""Worker node: local model replica + gradient computation + strategy.

Implements the worker loops of Algorithms 1 and 3: download → apply →
sample → backward → compress → upload.  The same class is driven through
one :class:`~repro.comm.session.WorkerSession` by both the remote engine's
worker processes (real time) and the event-driven simulator (virtual
time) — only the scheduling differs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autograd import Tensor
from ..core.layerops import add_payload, copy_payload, gradients_of
from ..core.methods import Hyper, MethodSpec
from ..core.strategies import WorkerStrategy
from ..data.loader import BatchIterator
from ..nn.loss import cross_entropy
from ..nn.module import Module
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from ..optim.schedules import ConstantLR, Schedule
from .messages import DiffMessage, GradientMessage, ModelMessage

__all__ = ["WorkerNode"]


class WorkerNode:
    """One asynchronous training worker (worker ``k`` of the paper)."""

    def __init__(
        self,
        worker_id: int,
        model: Module,
        batches: BatchIterator,
        strategy: WorkerStrategy,
        schedule: "Schedule | None" = None,
        loss_fn: Callable[[Tensor, np.ndarray], Tensor] = cross_entropy,
    ) -> None:
        self.worker_id = worker_id
        self.model = model
        self.batches = batches
        self.strategy = strategy
        self.schedule = schedule if schedule is not None else ConstantLR(0.1)
        self.loss_fn = loss_fn
        self.iteration = 0
        self.last_loss: float = float("nan")
        self.samples_processed = 0
        self._params = dict(model.named_parameters())

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> float:
        """Local epoch (fractional) — drives the LR schedule."""
        return self.batches.batches_served / max(self.batches.batches_per_epoch, 1)

    def current_lr(self) -> float:
        return self.schedule(self.epoch)

    # ------------------------------------------------------------------
    def compute_step(self) -> GradientMessage:
        """Run one forward/backward pass and build the upload message.

        The gradients live only until the strategy has consumed them: a
        worker between steps holds its replica and its strategy state,
        nothing model-sized besides (every ``.grad`` is ``None`` on return,
        and when ``prepare`` raises).

        The three parts are spans of their own (``data.next_batch``,
        ``nn.forward_backward``, ``strategy.prepare``) on the caller's lane.
        """
        tracer = current_tracer()
        wid = self.worker_id
        with tracer.span(obs_names.DATA_NEXT_BATCH, cat="data", worker=wid):
            x, y = self.batches.next_batch()
        with tracer.span(obs_names.NN_FORWARD_BACKWARD, cat="nn", worker=wid):
            logits = self.model(Tensor(x))
            loss = self.loss_fn(logits, y)
            self.model.zero_grad()
            loss.backward()
        self.last_loss = float(loss.data)
        self.samples_processed += len(x)

        grads = gradients_of(self.model)
        lr = self.current_lr()
        try:
            with tracer.span(obs_names.STRATEGY_PREPARE, cat="strategy", worker=wid):
                payload = self.strategy.prepare(grads, lr)
        finally:
            self.model.zero_grad()
        self.strategy.on_iteration()
        msg = GradientMessage(self.worker_id, payload, self.iteration)
        self.iteration += 1
        return msg

    def apply_reply(self, reply: "DiffMessage | ModelMessage") -> None:
        """Update the local model from the server's answer.

        * :class:`DiffMessage`: ``θ ← θ + G`` (the ``SGD(θ, decode(G))`` of
          Algorithms 1/3 — G is a ready-to-apply delta);
        * :class:`ModelMessage`: replace the local model (vanilla ASGD).
        """
        if isinstance(reply, DiffMessage):
            add_payload(self._params, reply.payload)
        elif isinstance(reply, ModelMessage):
            copy_payload(self._params, reply.payload)
        else:
            raise TypeError(f"unexpected reply type {type(reply).__name__}")

    # ------------------------------------------------------------------
    def worker_state_bytes(self) -> int:
        """Strategy buffer memory at this worker (§5.6.2 accounting)."""
        return self.strategy.state_bytes()
