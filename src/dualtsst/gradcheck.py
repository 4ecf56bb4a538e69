"""Finite-difference verification of analytic gradients.

Central differences with step ``FD_STEP`` compared against one reverse-mode
pass.  Relative error uses a magnitude floor, ``REL_FLOOR``, so that near-zero
gradients are compared on an absolute scale instead of blowing up the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, backward, no_grad

FD_STEP = 1e-6
REL_FLOOR = 1e-6


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def central_difference(loss_fn, param: Tensor) -> np.ndarray:
    """d loss / d param by central differences, perturbing in place."""
    flat = param.data.reshape(-1)
    num = np.empty_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            lp = float(loss_fn().data)
            flat[i] = orig - FD_STEP
            lm = float(loss_fn().data)
            flat[i] = orig
            num[i] = (lp - lm) / (2.0 * FD_STEP)
    return num.reshape(param.data.shape)


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str


def check_gradients(loss_fn, params: dict[str, Tensor]) -> GradCheckResult:
    """Compare reverse-mode gradients of ``loss_fn()`` against central FD.

    ``loss_fn`` must rebuild the forward pass from the live ``params`` on
    every call and return a scalar Tensor.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"parameter {name} received no gradient")
        analytic[name] = p.grad.copy()

    worst = ("", -1.0)
    for name, p in params.items():
        err = max_relative_error(analytic[name], central_difference(loss_fn, p))
        if err > worst[1]:
            worst = (name, err)
    return GradCheckResult(max_rel_error=worst[1], worst_param=worst[0])
