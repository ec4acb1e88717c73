"""Mini-batch training loop with the adaptive-moment optimizer.

A fixed seed pins parameter initialization and the per-epoch shuffle, so
repeated runs over the same data produce bit-identical models, losses and
metrics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .encoders import Vocabulary
from .errors import ConfigError
from .model import ABLATIONS, Model, ModelConfig
from .rng import Rng
from .tensor import Param


@dataclass
class TrainConfig:
    d: int = 64
    d_raw: int = 128
    tau: float = 0.07
    lambda_c: float = 1.0
    batch: int = 32
    epochs: int = 30
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    max_len: int = 64
    ablation: str = "none"

    def validate(self) -> None:
        self.model_config().validate()
        if self.epochs <= 0 or self.batch <= 0:
            raise ConfigError("epochs and batch size must be positive")
        if self.ablation != "no_M" and self.batch < 2:
            raise ConfigError("contrastive training needs batches of at least 2 items")
        if self.lr <= 0 or self.eps <= 0:
            raise ConfigError("lr and eps must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in (0, 1)")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            d=self.d, d_raw=self.d_raw, tau=self.tau, lambda_c=self.lambda_c,
            max_len=self.max_len, ablation=self.ablation,
        )

    def to_dict(self) -> dict:
        return asdict(self)


class Adam:
    """Standard adaptive-moment estimation over a fixed parameter list.

    A step updates in place, in the same operation order as
    ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``, so it allocates nothing
    and its results are bit-identical to that formula. The numerator and
    denominator of each parameter's update are views into two scratch rows
    shared by all parameters, sized to the largest.
    """

    def __init__(self, params: list[Param], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))
        self._num = [scratch[0, :p.data.size].reshape(p.data.shape) for p in self.params]
        self._den = [scratch[1, :p.data.size].reshape(p.data.shape) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v, num, den in zip(self.params, self._m, self._v, self._num, self._den):
            g = p.grad
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
            p.data -= num


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


def train(cfg: TrainConfig, train_ds: Dataset, precomputed=None, progress=None) -> TrainResult:
    """Run the full optimization and return the model plus the loss curve."""
    cfg.validate()
    if not train_ds.items:
        raise ConfigError("training dataset is empty")
    rng = Rng(cfg.seed)
    vocab = build_vocabulary(train_ds, include_descriptions=cfg.ablation != "no_E")
    model = Model.initialize(cfg.model_config(), vocab, rng)
    feats = [model.featurize(item, precomputed) for item in train_ds.items]
    opt = Adam(list(model.params), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
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
            bad = next((p.name for p in model.params if not np.isfinite(p.grad).all()), None)
            if bad is not None:
                raise TrainingDiverged(epoch, [b.item_id for b in batch], parts, param=bad)
            opt.step()
            for key in sums:
                sums[key] += parts[key] * len(batch)
        stats = EpochStats(
            epoch=epoch,
            total=sums["total"] / n,
            detection=sums["detection"] / n,
            contrastive=sums["contrastive"] / n,
        )
        curve.append(stats)
        if progress is not None:
            progress(stats)
    return TrainResult(model=model, curve=curve, diagnostics=diagnostics)


def write_loss_curve(path, curve: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,total,detection,contrastive\n")
        for s in curve:
            fh.write(f"{s.epoch},{s.total!r},{s.detection!r},{s.contrastive!r}\n")
