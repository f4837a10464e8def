"""Adam with decoupled weight decay and linear learning-rate warmup."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tensor

if TYPE_CHECKING:  # model imports this module
    from .model import TrainConfig


class NonFiniteGradientError(RuntimeError):
    """A gradient went NaN/inf; training must halt and report."""


class Adam:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Every setting comes from `train`: `lr`, `betas`, `eps`, `weight_decay`
    and `warmup_steps`. Weight decay is applied directly to the parameter
    (scaled by the current learning rate) before the moment update. With
    `warmup_steps` > 0 the effective rate is `lr * min(1, step / warmup_steps)`.
    """

    def __init__(self, params: dict[str, Tensor], train: TrainConfig):
        self.params = dict(params)
        self.train = train
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def effective_lr(self, step: int | None = None) -> float:
        t = self.step_count if step is None else step
        lr, warmup = self.train.lr, self.train.warmup_steps
        if warmup > 0:
            return lr * min(1.0, t / warmup)
        return lr

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        lr_t = self.effective_lr()
        b1, b2 = self.train.betas
        decay, eps = self.train.weight_decay, self.train.eps
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in parameter '{name}'")
            if decay:
                p.data -= (lr_t * decay) * p.data
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= (lr_t * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)
