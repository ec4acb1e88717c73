"""Mini-batch training loop with the adaptive-moment optimizer.

A fixed seed pins parameter initialization and the per-epoch shuffle, so
repeated runs over the same data produce bit-identical models, losses and
metrics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import Dataset
from .encoders import Vocabulary
from .errors import ConfigError, require_integers
from .model import Model, ModelConfig
from .rng import Rng
from .tensor import ParamRegistry


@dataclass
class TrainConfig(ModelConfig):
    batch: int = 32
    epochs: int = 30
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def validate(self) -> None:
        super().validate()
        require_integers(self, "epochs", "batch", "seed")
        for name in ("epochs", "batch", "lr", "eps"):
            self._require(name, lambda v: v > 0, "positive")
        if self.uses_interaction and self.batch < 2:
            raise ConfigError(f"batch must be at least 2 when the contrastive loss is on, got {self.batch}")
        for name in ("beta1", "beta2"):
            self._require(name, lambda v: 0.0 < v < 1.0, "in (0, 1)")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def to_dict(self) -> dict:
        return asdict(self)


# Coordinates per block of an Adam step. A step walks the flat arrays block
# by block, so its six arrays (parameters, gradients, both moments and the
# two scratch rows) take 256 KB each per block and fit a 2 MB L2 together.
# Median ms per step, 2-vCPU Xeon VM (2 MB L2 per core), one BLAS thread,
# alternating rounds of 30 steps. d=64 (61,573 coordinates): one loop
# iteration per parameter 0.79, blocks of 32,768 0.52. d=256 (885,253):
# per parameter 9.2; blocks of 8,192 10.0, 16,384 9.2, 32,768 9.0, 65,536
# 8.6, 131,072 9.6; one block 10.1, with 14 MB of scratch. 32,768 and
# 65,536 are within the noise; the smaller halves the scratch.
_ADAM_BLOCK = 32768


class Adam:
    """Standard adaptive-moment estimation over a ``ParamRegistry``.

    The moments are flat arrays laid out like the registry's ``data`` and
    ``grad``. A step walks the four in blocks of ``_ADAM_BLOCK`` coordinates
    and updates each block in place, in the same operation order as
    ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``. So it allocates nothing,
    and its results are bit-identical to that formula. The numerator and
    denominator of a block's update are two scratch rows one block long.
    The step writes through the registry's buffers, so it reaches a
    parameter only while that parameter's arrays are still views into them.
    """

    def __init__(self, params: ParamRegistry, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        size = params.data.size
        m, v = np.zeros(size), np.zeros(size)
        scratch = np.empty((2, min(size, _ADAM_BLOCK)))
        bounds = [(s, min(s + _ADAM_BLOCK, size)) for s in range(0, size, _ADAM_BLOCK)]
        self._blocks = [
            (params.data[s:e], params.grad[s:e], m[s:e], v[s:e], scratch[0, :e - s], scratch[1, :e - s])
            for s, e in bounds
        ]

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v, num, den in self._blocks:
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=num)
            m += num
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=den)
            den *= g
            v += den
            np.divide(m, b1c, out=num)
            num *= self.lr
            np.divide(v, b2c, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p -= num


class TrainingDiverged(RuntimeError):
    """Loss or a parameter gradient became non-finite; carries a dump of the
    offending batch and, for a gradient, the first such parameter."""

    def __init__(self, epoch: int, batch_ids: list[str], parts: dict, param: str | None = None):
        self.epoch = epoch
        self.batch_ids = batch_ids
        self.parts = parts
        self.param = param
        what = "loss" if param is None else f"gradient of parameter {param!r}"
        super().__init__(
            f"non-finite {what} at epoch {epoch} (parts={parts}); batch items: {', '.join(batch_ids)}"
        )


@dataclass
class EpochStats:
    epoch: int
    total: float
    detection: float
    contrastive: float


@dataclass
class TrainResult:
    model: Model
    curve: list[EpochStats]
    diagnostics: dict = field(default_factory=dict)


def build_vocabulary(dataset: Dataset, include_descriptions: bool) -> Vocabulary:
    corpus = [item.text for item in dataset.items]
    if include_descriptions:
        for item in dataset.items:
            corpus.extend(item.descriptions)
    return Vocabulary.build(corpus)


def train(cfg: TrainConfig, train_ds: Dataset, progress=None) -> TrainResult:
    """Run the full optimization and return the model plus the loss curve."""
    cfg.validate()
    train_ds.require_labels("training")
    rng = Rng(cfg.seed)
    vocab = build_vocabulary(train_ds, include_descriptions=cfg.uses_enhancement)
    model = Model.initialize(cfg.model_config(), vocab, rng)
    feats = [model.featurize(item) for item in train_ds.items]
    opt = Adam(model.params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    diagnostics: dict = {}
    curve: list[EpochStats] = []
    n = len(feats)
    for epoch in range(cfg.epochs):
        order = rng.stream("shuffle", epoch).permutation(n)
        sums = {"total": 0.0, "detection": 0.0, "contrastive": 0.0}
        for start in range(0, n, cfg.batch):
            batch = [feats[int(i)] for i in order[start:start + cfg.batch]]
            loss, parts = model.batch_loss(batch, diagnostics)
            if not math.isfinite(parts["total"]):
                raise TrainingDiverged(epoch, [b.item_id for b in batch], parts)
            model.params.reset_gradients()
            loss.backward()
            if not np.isfinite(model.params.grad).all():
                bad = next(p.name for p in model.params if not np.isfinite(p.grad).all())
                raise TrainingDiverged(epoch, [b.item_id for b in batch], parts, param=bad)
            opt.step()
            for key in sums:
                sums[key] += parts[key] * len(batch)
        stats = EpochStats(epoch=epoch, **{key: total / n for key, total in sums.items()})
        curve.append(stats)
        if progress is not None:
            progress(stats)
    return TrainResult(model=model, curve=curve, diagnostics=diagnostics)
