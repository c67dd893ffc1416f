"""AdamW with decoupled weight decay over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .tensor import Tensor


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Decay is applied to matrices and embeddings only; 1-D parameters
    (biases, norm gains/biases) are excluded. Per step, for each parameter
    with a populated gradient:

        m <- b1*m + (1-b1)*g            v <- b2*v + (1-b2)*g^2
        p <- p * (1 - lr*wd)            (if decayed)
        p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)

    Parameters whose grad is None (untouched by the step's loss) are skipped
    entirely: no moment update, no decay. The new values are written into
    each parameter's own array, which so keeps its buffer and alignment.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-5,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            # The formulas above through two fresh buffers and the parameter's
            # own array: the whole-array expressions' bits when g has the
            # parameter's dtype. One check refuses a non-finite g and a
            # bias-corrected second moment past float32 (it would stop its element).
            m, v = self._m[name], self._v[name]
            with np.errstate(over="ignore"):
                scratch = np.multiply(g, 1.0 - self.beta2)
                scratch *= g
                v *= self.beta2
                v += scratch
                denom = np.divide(v, bc2, out=scratch)
            if not np.isfinite(denom).all():
                problem = "gradient whose square overflows" if np.isfinite(g).all() else "non-finite gradient"
                raise InputError(f"{problem} for parameter {name!r}")
            np.sqrt(denom, out=denom)
            denom += self.eps
            m *= self.beta1
            update = np.multiply(g, 1.0 - self.beta1)
            m += update
            np.divide(m, bc1, out=update)
            update /= denom
            update *= self.lr
            if self.weight_decay != 0.0 and p.ndim > 1:
                np.subtract(np.multiply(p.data, 1.0 - self.lr * self.weight_decay, out=denom), update, out=p.data)
            else:
                np.subtract(p.data, update, out=p.data)

    # Checkpoint plumbing: moments exported under reserved name prefixes.

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self._m[name]
            out[f"opt.v.{name}"] = self._v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for name in self.params:
            self._m[name] = arrays[f"opt.m.{name}"].copy()
            self._v[name] = arrays[f"opt.v.{name}"].copy()
        self.step_count = step_count
