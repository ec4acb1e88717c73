"""Central finite-difference verification of analytic gradients, the
weighted-sum loss the gradient tests differentiate, and the tiny
deterministic model that the gradient and batching tests share."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mmfnd import encoders as enc
from mmfnd.model import ItemFeatures, Model, ModelConfig
from mmfnd.rng import Rng
from mmfnd.tensor import Param, ShapeError, Tensor


def weighted_sum(x: Tensor, w) -> Tensor:
    """sum(x * w) for constant weights ``w`` shaped like x, as one 0-d node;
    x gets the gradient w times the output's."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != x.data.shape:
        raise ShapeError(f"weighted_sum shapes disagree: {x.data.shape} vs {w.shape}")
    out = Tensor((x.data * w).sum(), (x,))

    def _backward():
        x.grad += out.grad * w

    out._backward = _backward
    return out


@dataclass
class GradCheckReport:
    """Worst relative error per parameter and overall."""

    per_param: dict[str, float] = field(default_factory=dict)
    max_rel_err: float = 0.0


def finite_diff_check(f, params: list[Param], h: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of ``f`` against central differences.

    ``f`` takes no arguments, reads the given params, and returns a 0-d
    tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|); the report keeps the worst
    coordinate per parameter.
    """
    for p in params:
        p.grad[...] = 0.0
    out = f()
    if not math.isfinite(float(out.data)):
        raise FloatingPointError(f"objective evaluated to {float(out.data)}")
    out.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    report = GradCheckReport()
    for p in params:
        flat = p.data.reshape(-1)
        grad = analytic[p.name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError(f"objective non-finite while perturbing {p.name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(grad[i] - numeric) / max(1.0, abs(grad[i]))
            if rel > worst:
                worst = rel
        report.per_param[p.name] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report


def build_gradcheck_problem(
    d: int = 8, n_items: int = 4, n_desc: int = 2, seed: int = 7, ablation: str = "none"
) -> tuple[Model, list[ItemFeatures]]:
    """A tiny deterministic model plus batch for gradient verification."""
    rng = Rng(seed)
    vocab = enc.Vocabulary([f"tok{i}" for i in range(12)])
    model = Model.initialize(
        ModelConfig(d=d, d_raw=d, max_len=8, tau=0.5, ablation=ablation), vocab, rng
    )
    feats = []
    for i in range(n_items):
        gen = rng.stream("item", i)
        n_tok = int(gen.integers(3, 7))
        text_seq = enc.TokenSequence(ids=[int(t) for t in gen.integers(0, len(vocab), size=n_tok)])
        desc_seqs = []
        for j in range(n_desc):
            m = int(gen.integers(2, 5))
            desc_seqs.append(enc.TokenSequence(ids=[int(t) for t in gen.integers(0, len(vocab), size=m)]))
        feats.append(
            ItemFeatures(
                item_id=f"probe-{i}",
                label=int(gen.integers(0, 2)),
                image=gen.normal(size=d),
                text=text_seq,
                descs=desc_seqs if model.config.uses_enhancement else [],
            )
        )
    return model, feats
