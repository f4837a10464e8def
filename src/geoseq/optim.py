"""Adam with decoupled weight decay and linear learning-rate warmup."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tensor

if TYPE_CHECKING:  # model imports this module
    from .model import TrainConfig


class NonFiniteGradientError(RuntimeError):
    """A gradient went NaN/inf; training must halt and report."""


# Elements per in-place update slice: two scratch slices of this many stay in
# cache while a parameter of millions of elements streams through once.
CHUNK = 32768


class Adam:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Every setting comes from `train`: `lr`, `betas`, `eps`, `weight_decay`
    and `warmup_steps`. Weight decay is applied directly to the parameter
    (scaled by the current learning rate) before the moment update. With
    `warmup_steps` > 0 the effective rate is `lr * min(1, step / warmup_steps)`.

    `step` updates each parameter in place, `CHUNK` elements at a time, with
    the same operations in the same order as the whole-array formula, so the
    result is bit-identical to it; only the temporaries shrink.
    """

    def __init__(self, params: dict[str, Tensor], train: TrainConfig):
        self.params = dict(params)
        self.train = train
        self.step_count = 0
        self._m = {k: np.zeros(p.data.shape, p.data.dtype) for k, p in self.params.items()}
        self._v = {k: np.zeros(p.data.shape, p.data.dtype) for k, p in self.params.items()}
        self._scratch = {}  # dtype -> two CHUNK-sized buffers

    def effective_lr(self) -> float:
        lr, warmup = self.train.lr, self.train.warmup_steps
        if warmup > 0:
            return lr * min(1.0, self.step_count / warmup)
        return lr

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """One update of every parameter with a gradient.

        Every gradient is checked first: a non-finite one raises
        `NonFiniteGradientError` before any parameter, moment or the step
        count moves.
        """
        finite = np.empty(CHUNK, dtype=bool)
        grads = {}  # name -> the C-order flat gradient in its parameter's dtype
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = grads[name] = np.asarray(p.grad, dtype=p.data.dtype).reshape(-1)
            for lo in range(0, g.size, CHUNK):
                gc = g[lo:lo + CHUNK]
                if not np.isfinite(gc, out=finite[:gc.size]).all():
                    raise NonFiniteGradientError(f"non-finite gradient in parameter '{name}'")
        self.step_count += 1
        lr_t = self.effective_lr()
        b1, b2 = self.train.betas
        decay, eps = self.train.weight_decay, self.train.eps
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, g in grads.items():
            p = self.params[name]
            # C-order flat views; a non-contiguous parameter is updated in a
            # contiguous copy that is written back below
            contiguous = p.data.flags.c_contiguous
            data = p.data if contiguous else np.ascontiguousarray(p.data)
            flat = data.reshape(-1)
            m = self._m[name].reshape(-1)
            v = self._v[name].reshape(-1)
            if data.dtype not in self._scratch:
                self._scratch[data.dtype] = np.empty((2, CHUNK), data.dtype)
            buf_a, buf_b = self._scratch[data.dtype]
            for lo in range(0, flat.size, CHUNK):
                pc, gc = flat[lo:lo + CHUNK], g[lo:lo + CHUNK]
                mc, vc = m[lo:lo + CHUNK], v[lo:lo + CHUNK]
                ta, tb = buf_a[:pc.size], buf_b[:pc.size]
                if decay:
                    pc -= np.multiply(lr_t * decay, pc, out=ta)
                mc *= b1
                mc += np.multiply(1.0 - b1, gc, out=ta)
                vc *= b2
                np.multiply(1.0 - b2, gc, out=ta)
                vc += np.multiply(ta, gc, out=ta)
                np.divide(vc, bias2, out=ta)  # v_hat
                np.sqrt(ta, out=ta)
                ta += eps
                np.divide(mc, bias1, out=tb)  # m_hat
                np.multiply(lr_t, tb, out=tb)
                pc -= np.divide(tb, ta, out=tb)
            if not contiguous:
                p.data[...] = data
