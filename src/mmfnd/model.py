"""End-to-end detection model: parameter registry, forward pass, batch loss.

The model assembles the encoder, enrichment, alignment, interaction and
fusion stages. A forward pass covers a whole batch on one tape: items are
featurized one by one, then stacked into (B, ...) arrays, with each item's
descriptions padded to the widest item in the batch. Ablation variants
rewire the graph: ``no_E`` drops the description channel, ``no_M`` drops
the contrastive loss and the interaction feature (the classifier then
fuses two channels), ``no_A`` fixes every fusion gate at one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import align, enrich, fuse, interact
from . import encoders as enc
from . import tensor as T
from .errors import ConfigError
from .rng import Rng

ABLATIONS = ("none", "no_A", "no_M", "no_E")


@dataclass
class ModelConfig:
    d: int = 64
    d_raw: int = 128
    tau: float = 0.07
    lambda_c: float = 1.0
    max_len: int = 64
    ablation: str = "none"

    def validate(self) -> None:
        if self.d <= 0 or self.d_raw <= 0 or self.max_len <= 0:
            raise ConfigError("model dimensions must be positive")
        if self.tau <= 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        if self.lambda_c < 0:
            raise ConfigError(f"contrastive weight must be non-negative, got {self.lambda_c}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")

    @property
    def uses_enhancement(self) -> bool:
        return self.ablation != "no_E"

    @property
    def uses_interaction(self) -> bool:
        return self.ablation != "no_M"

    @property
    def uses_gates(self) -> bool:
        return self.ablation != "no_A"

    @property
    def n_channels(self) -> int:
        return 3 if self.uses_interaction else 2


@dataclass
class ItemFeatures:
    """Numeric inputs for one item, ready for the forward pass."""

    item_id: str
    label: int
    image: np.ndarray
    text_seq: enc.TokenSequence | None = None
    text_vec: np.ndarray | None = None
    desc_seqs: list[enc.TokenSequence] = field(default_factory=list)
    desc_vecs: list[np.ndarray] = field(default_factory=list)


@dataclass
class Trace:
    """Intermediate tensors of one batched forward pass, one row per item."""

    r_t: T.Tensor
    m_d: T.Tensor | None
    r_t_enh: T.Tensor
    e_t: T.Tensor | None
    e_v: T.Tensor | None
    r_f: T.Tensor | None
    features: list[T.Tensor]
    gates: T.Tensor | None
    fused: T.Tensor
    probs: T.Tensor
    labels: np.ndarray


def param_specs(config: ModelConfig, n_vocab: int) -> dict[str, tuple[tuple[int, ...], int | None]]:
    """Every parameter of a model, in registry order: name -> (shape, fan_in).

    A fan_in of None marks a zero-initialised bias; the embedding table
    draws unit normals (fan_in 1).
    """
    d, d_raw, k = config.d, config.d_raw, config.n_channels
    specs = {"emb": ((n_vocab, d), 1), "w_tf": ((d, d), d), "w_vf": ((d, d_raw), d_raw), "w_t": ((d, d), d)}
    if config.uses_enhancement:
        specs.update(w_df=((d, d), d), w_d=((d, d), d))
    if config.uses_interaction:
        for layer in ("st", "sv", "i1", "i2"):
            specs[f"w_{layer}"] = ((d, d), d)
            specs[f"b_{layer}"] = ((d,), None)
    if config.uses_gates:
        specs.update(w_g=((k, d), d), b_g=((k,), None))
    specs.update(w_c1=((d, k * d), k * d), b_c1=((d,), None), w_c2=((2, d), d), b_c2=((2,), None))
    return specs


class Model:
    """All trainable state plus the wiring between pipeline stages."""

    def __init__(self, config: ModelConfig, vocab: enc.Vocabulary, arrays: dict[str, np.ndarray]):
        """A model holding the given parameter arrays, which must match
        ``param_specs`` name for name and shape for shape. Each parameter is
        also an attribute of the same name (``self.w_tf``, ...)."""
        config.validate()
        self.config = config
        self.vocab = vocab
        self.params = T.ParamRegistry()
        specs = param_specs(config, len(vocab))
        missing = [name for name in specs if name not in arrays]
        unexpected = [name for name in arrays if name not in specs]
        if missing or unexpected:
            raise ConfigError(
                f"parameters do not match the {config.ablation!r} model: "
                f"missing {missing}, unexpected {unexpected}"
            )
        for name, (shape, _) in specs.items():
            data = np.asarray(arrays[name], dtype=np.float64)
            if data.shape != shape:
                raise ConfigError(f"parameter {name} has shape {data.shape}, expected {shape}")
            setattr(self, name, self.params.register(name, data))

    @classmethod
    def initialize(cls, config: ModelConfig, vocab: enc.Vocabulary, rng: Rng) -> "Model":
        """Fresh weights: scaled normals per ``param_specs``, zero biases."""
        arrays = {}
        for name, (shape, fan_in) in param_specs(config, len(vocab)).items():
            if fan_in is None:
                arrays[name] = np.zeros(shape)
            else:
                arrays[name] = rng.stream("init", name).normal(size=shape) / math.sqrt(fan_in)
        return cls(config, vocab, arrays)

    # -- input preparation --------------------------------------------------

    def featurize(self, item) -> ItemFeatures:
        """Tokenize one news item, or take its precomputed ``text_vec`` and
        ``desc_vecs`` in place of its text and descriptions.

        Description inputs are prepared only when the enhancement channel
        is active; the ``no_E`` variant never reads them. Vector widths and
        texts without word tokens are rejected here, naming the item and
        the field.
        """
        cfg = self.config

        def checked(name, vec, width):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (width,):
                raise ConfigError(f"item {item.id!r}: {name} has shape {vec.shape}, expected ({width},)")
            return vec

        def tokens(name, text):
            seq = self.vocab.encode(text, cfg.max_len)
            if not seq.ids:
                raise enc.EmptyTextError(f"item {item.id!r}: {name} has no word tokens")
            return seq

        feats = ItemFeatures(item_id=item.id, label=item.label, image=checked("image_vec", item.image, cfg.d_raw))
        if item.text_vec is not None:
            feats.text_vec = checked("text_vec", item.text_vec, cfg.d)
        else:
            feats.text_seq = tokens("text", item.text)
        if cfg.uses_enhancement:
            if item.desc_vecs is not None:
                feats.desc_vecs = [checked("desc_vecs", v, cfg.d) for v in item.desc_vecs]
            else:
                feats.desc_seqs = [tokens(f"desc_sentences[{i}]", s) for i, s in enumerate(item.descriptions)]
        return feats

    # -- forward ------------------------------------------------------------

    def forward(self, batch: list[ItemFeatures]) -> Trace:
        """One tape over the whole batch: every tensor is (B, ...)."""
        cfg, n = self.config, len(batch)
        text = [f.text_vec if f.text_vec is not None else f.text_seq for f in batch]
        r_t = T.matvec(self.w_tf, enc.embed_rows(self.emb, text, (n,)))
        r_v = enc.encode_image(self.w_vf, T.Tensor(np.stack([f.image for f in batch])))

        m_d = None
        if cfg.uses_enhancement:
            # each item's precomputed vectors, then its token sequences, padded to the widest item
            descs = [list(f.desc_vecs) + list(f.desc_seqs) for f in batch]
            counts = np.array([len(x) for x in descs])
            width = int(counts.max())
            if width:
                slots = [s for x in descs for s in x + [None] * (width - len(x))]
                m_d = enc.encode_description(self.emb, self.w_df, slots, (n, width))
            r_t_enh = enrich.enhance(r_t, m_d, counts, self.w_t, self.w_d)
        else:
            r_t_enh = T.matvec(self.w_t, r_t)

        e_t = e_v = r_f = None
        if cfg.uses_interaction:
            e_t = align.shared_encode(r_t, self.w_st, self.b_st)
            e_v = align.shared_encode(r_v, self.w_sv, self.b_sv)
            m_f_v, m_f_t = interact.modality_update(e_t, e_v)
            r_f = interact.interaction_feature(
                m_f_v, m_f_t, self.w_i1, self.b_i1, self.w_i2, self.b_i2
            )

        features = [r_t_enh, r_v] + ([r_f] if r_f is not None else [])
        gates = fuse.adaptive_weights(features, self.w_g, self.b_g) if cfg.uses_gates else None
        fused = fuse.fuse(features, gates)
        probs, labels = fuse.classify(fused, self.w_c1, self.b_c1, self.w_c2, self.b_c2)
        return Trace(
            r_t=r_t, m_d=m_d, r_t_enh=r_t_enh, e_t=e_t, e_v=e_v, r_f=r_f,
            features=features, gates=gates, fused=fused, probs=probs, labels=labels,
        )

    def batch_loss(
        self, batch: list[ItemFeatures], diagnostics: dict | None = None
    ) -> tuple[T.Tensor, dict]:
        """Total objective over a batch: mean detection loss plus the
        batch-level contrastive loss (when the interaction module is on)."""
        if not batch:
            raise ConfigError("batch_loss over an empty batch")
        trace = self.forward(batch)
        l_d = fuse.detection_loss(trace.probs, [f.label for f in batch])
        parts = {"detection": float(l_d.data)}
        if self.config.uses_interaction:
            p_vt = align.similarity_matrix(trace.e_v, trace.e_t, self.config.tau)
            p_tv = align.similarity_matrix(trace.e_t, trace.e_v, self.config.tau)
            l_c = align.contrastive_loss(p_vt, p_tv, diagnostics)
            parts["contrastive"] = float(l_c.data)
            loss = fuse.total_loss(l_c, l_d, self.config.lambda_c)
        else:
            parts["contrastive"] = 0.0
            loss = l_d
        parts["total"] = float(loss.data)
        return loss, parts

    # -- inference ----------------------------------------------------------

    def predict_batch(self, batch: list[ItemFeatures]) -> list[fuse.Prediction]:
        """Class distribution, label and gates of every item, in batch order."""
        if not batch:
            return []
        trace = self.forward(batch)
        T.release(trace.probs)
        gates = trace.gates.data.tolist() if trace.gates is not None else None
        return [
            fuse.Prediction(
                probs=trace.probs.data[i].copy(),
                label=int(trace.labels[i]),
                gates=tuple(gates[i]) if gates is not None else None,
            )
            for i in range(len(batch))
        ]

    def predict(self, feats: ItemFeatures) -> fuse.Prediction:
        return self.predict_batch([feats])[0]

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        meta = {"config": asdict(self.config), "vocab": self.vocab.tokens}
        arrays = {f"param/{name}": self.params[name].data for name in self.params.names()}
        np.savez(path, __meta__=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path) -> "Model":
        """The model a ``save`` call wrote. A checkpoint without ``__meta__``
        or whose ``__meta__`` is not a JSON object with an object ``config``
        and a string list ``vocab``, with an unknown config key or a config
        value of the wrong type, or with parameters that do not fit its
        config raises ``ConfigError`` naming the file and the key."""
        with np.load(path, allow_pickle=False) as archive:
            if "__meta__" not in archive.files:
                raise ConfigError(f"{path}: checkpoint has no '__meta__' entry")
            meta_text = str(archive["__meta__"])
            arrays = {
                key.removeprefix("param/"): archive[key]
                for key in archive.files if key.startswith("param/")
            }
        try:
            meta = json.loads(meta_text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: '__meta__' is not JSON ({exc.msg})") from exc
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}: '__meta__' must be a JSON object")
        for key in ("config", "vocab"):
            if key not in meta:
                raise ConfigError(f"{path}: '__meta__' has no {key!r} key")
        if not isinstance(meta["config"], dict):
            raise ConfigError(f"{path}: '__meta__' key 'config' must be an object")
        if not isinstance(meta["vocab"], list) or not all(isinstance(t, str) for t in meta["vocab"]):
            raise ConfigError(f"{path}: '__meta__' key 'vocab' must be a list of strings")
        defaults = asdict(ModelConfig())
        for key, value in meta["config"].items():
            if key not in defaults:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            want = type(defaults[key])
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                raise ConfigError(f"{path}: config key {key!r} must be {want.__name__}, got {value!r}")
        try:
            return cls(ModelConfig(**meta["config"]), enc.Vocabulary(meta["vocab"]), arrays)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


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
                text_seq=text_seq,
                desc_seqs=desc_seqs if model.config.uses_enhancement else [],
            )
        )
    return model, feats
