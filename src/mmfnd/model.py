"""End-to-end detection model: parameter registry, forward pass, batch loss.

The model assembles the encoder, enrichment, alignment, interaction and
fusion stages. Items are featurized one by one, then stacked into (B, ...)
arrays, with each item's descriptions padded to the widest item in the
batch. ``featurize`` decides once per text whether it enters as token ids
or as a precomputed embedding; only ``encoders.slot_operands`` reads that
choice. Ablation variants rewire the graph: ``no_E`` drops the description
channel, ``no_M`` drops the contrastive loss and the interaction feature
(the classifier then fuses two channels), ``no_A`` fixes every fusion gate
at one.

There are two forward passes with one wiring. ``forward`` records a whole
training batch on one tape, which ``batch_loss`` and the backward sweep
need. ``predict_batch`` scores through ``_score``, the same steps on plain
arrays: it builds no tape node, because a score needs no gradient. Both
call the same array kernels of ``tensor`` (and of ``encoders``, ``enrich``
and ``interact``), so the two give bit-identical probabilities.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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

    def _require(self, name: str, holds, rule: str) -> None:
        """Raise ``ConfigError`` naming field ``name`` unless its value is
        finite and ``holds`` for it, so NaN and ±inf fail whatever the
        rule."""
        value = getattr(self, name)
        if not (math.isfinite(value) and holds(value)):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")

    def _require_integers(self, *names: str) -> None:
        """Raise ``ConfigError`` naming the first of ``names`` whose value is
        not an integer: a float such as 8.0, or a bool, fails; a numpy
        integer passes."""
        for name in names:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")

    def validate(self) -> None:
        self._require_integers("d", "d_raw", "max_len")
        for name in ("d", "d_raw", "max_len", "tau"):
            self._require(name, lambda v: v > 0, "positive")
        self._require("lambda_c", lambda v: v >= 0, "non-negative")
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
    """Numeric inputs for one item, ready for the forward pass.

    ``text`` and each entry of ``descs`` is an encoder slot (see
    ``encoders.embed_rows``): the token ids of the text, or its precomputed
    (d,) embedding. ``descs`` is empty when the item mentions no entity or
    the model has no enhancement channel.
    """

    item_id: str
    label: int
    image: np.ndarray
    text: enc.TokenSequence | np.ndarray
    descs: list[enc.TokenSequence | np.ndarray]


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


def _padded_descs(batch: list[ItemFeatures]) -> tuple[np.ndarray, int, list]:
    """Each item's description count, the widest count, and the description
    slots of every item padded with None to that width, in row-major order."""
    lens = [len(f.descs) for f in batch]
    width = max(lens)
    return np.array(lens), width, [s for f in batch for s in f.descs + [None] * (width - len(f.descs))]


class Model:
    """All trainable state plus the wiring between pipeline stages."""

    def __init__(self, config: ModelConfig, vocab: enc.Vocabulary, arrays: dict[str, np.ndarray]):
        """A model holding the given parameter arrays, which must match
        ``param_specs`` name for name and shape for shape. Each parameter is
        also an attribute of the same name (``self.w_tf``, ...)."""
        config.validate()
        self.config = config
        self.vocab = vocab
        specs = param_specs(config, len(vocab))
        missing = [name for name in specs if name not in arrays]
        unexpected = [name for name in arrays if name not in specs]
        if missing or unexpected:
            raise ConfigError(
                f"parameters do not match the {config.ablation!r} model: "
                f"missing {missing}, unexpected {unexpected}"
            )
        checked = []
        for name, (shape, _) in specs.items():
            data = np.asarray(arrays[name], dtype=np.float64)
            if data.shape != shape:
                raise ConfigError(f"parameter {name} has shape {data.shape}, expected {shape}")
            checked.append((name, data))
        self.params = T.ParamRegistry(checked)
        for p in self.params:
            setattr(self, p.name, p)

    @classmethod
    def initialize(cls, config: ModelConfig, vocab: enc.Vocabulary, rng: Rng) -> "Model":
        """Fresh weights: scaled normals per ``param_specs``, zero biases.

        Each weight is drawn straight into its view of the registry, so no
        second full-size copy of the weights exists at any point.
        """
        specs = param_specs(config, len(vocab))
        # read-only zero views: they hold no memory of their own
        model = cls(config, vocab, {name: np.broadcast_to(0.0, shape) for name, (shape, _) in specs.items()})
        for name, (_, fan_in) in specs.items():
            if fan_in is not None:
                view = model.params[name].data
                rng.stream("init", name).standard_normal(out=view)
                view /= math.sqrt(fan_in)
        return model

    # -- input preparation --------------------------------------------------

    def featurize(self, item) -> ItemFeatures:
        """Tokenize one news item, or take its precomputed ``text_vec`` and
        ``desc_vecs`` in place of its text and descriptions.

        Description inputs are prepared only when the enhancement channel
        is active; the ``no_E`` variant never reads them. Vector widths,
        non-finite vector values and texts without word tokens are rejected
        here, naming the item and the field.
        """
        cfg = self.config

        def checked(name, vec, width):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (width,):
                raise ConfigError(f"item {item.id!r}: {name} has shape {vec.shape}, expected ({width},)")
            if not np.isfinite(vec).all():
                raise ConfigError(f"item {item.id!r}: {name} has a non-finite value")
            return vec

        def tokens(name, text):
            seq = self.vocab.encode(text, cfg.max_len)
            if not seq.ids:
                raise enc.EmptyTextError(f"item {item.id!r}: {name} has no word tokens")
            return seq

        image = checked("image_vec", item.image, cfg.d_raw)
        if item.text_vec is not None:
            text = checked("text_vec", item.text_vec, cfg.d)
        else:
            text = tokens("text", item.text)
        descs = []
        if cfg.uses_enhancement:
            if item.desc_vecs is not None:
                descs = [checked(f"desc_vecs[{i}]", v, cfg.d) for i, v in enumerate(item.desc_vecs)]
            else:
                descs = [tokens(f"desc_sentences[{i}]", s) for i, s in enumerate(item.descriptions)]
        return ItemFeatures(item_id=item.id, label=item.label, image=image, text=text, descs=descs)

    # -- forward ------------------------------------------------------------

    def forward(self, batch: list[ItemFeatures]) -> Trace:
        """One tape over the whole batch: every tensor is (B, ...)."""
        cfg, n = self.config, len(batch)
        r_t = T.matvec(self.w_tf, enc.embed_rows(self.emb, [f.text for f in batch], (n,)))
        r_v = enc.encode_image(self.w_vf, np.stack([f.image for f in batch]))

        m_d = None
        if cfg.uses_enhancement:
            counts, width, slots = _padded_descs(batch)
            if width:
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
            l_c = align.contrastive_loss(trace.e_v, trace.e_t, self.config.tau, diagnostics)
            parts["contrastive"] = float(l_c.data)
            loss = fuse.total_loss(l_c, l_d, self.config.lambda_c)
        else:
            parts["contrastive"] = 0.0
            loss = l_d
        parts["total"] = float(loss.data)
        return loss, parts

    # -- inference ----------------------------------------------------------

    def _rows(self, slots: list, lead: tuple[int, ...]) -> np.ndarray:
        """``encoders.embed_rows`` on plain arrays; ``T.affine(rows, 1.0,
        pre)`` is ``rows + pre`` exactly."""
        bag, pre = enc.slot_operands(slots, lead, *self.emb.data.shape)
        rows = None if bag is None else T._matmul(bag, self.emb.data)
        if pre is not None:
            rows = pre if rows is None else rows + pre
        return rows

    def _score(self, batch: list[ItemFeatures]) -> tuple[np.ndarray, np.ndarray | None]:
        """``forward``'s probabilities (B, 2) and gates (B, k), or None under
        ``no_A``, computed step for step on plain arrays, without a tape."""
        cfg, n = self.config, len(batch)
        r_t = T._matvec(self.w_tf.data, self._rows([f.text for f in batch], (n,)), None)
        r_v = T._matvec(self.w_vf.data, np.array([f.image for f in batch]), None)

        r_t_enh = T._matvec(self.w_t.data, r_t, None)
        if cfg.uses_enhancement:
            counts, width, slots = _padded_descs(batch)
            if width:
                m_d = T._matvec(self.w_df.data, self._rows(slots, (n, width)), None)
                pooled, _ = T._attention_pool(r_t, m_d, *enrich.pool_operands(counts, width))
                r_t_enh = r_t_enh + T._matvec(self.w_d.data, pooled, None)

        features = [r_t_enh, r_v]
        if cfg.uses_interaction:
            e_t, _ = T._l2_normalize(T._matvec(self.w_st.data, r_t, self.b_st.data))
            e_v, _ = T._l2_normalize(T._matvec(self.w_sv.data, r_v, self.b_sv.data))
            c = interact.logit_scale(e_t, e_v)
            m_f_v, _, _ = T._rank1_attention(e_t, e_v, c)
            m_f_t, _, _ = T._rank1_attention(e_v, e_t, c)
            pooled, _, _ = T._rank1_max_pool(m_f_v, m_f_t)
            hidden = np.maximum(T._matvec(self.w_i1.data, pooled, self.b_i1.data), 0.0)
            features.append(T._matvec(self.w_i2.data, hidden, self.b_i2.data))

        gates = None
        if cfg.uses_gates:
            pooled = np.array(features).mean(axis=0)
            gates = T._sigmoid(T._matvec(self.w_g.data, pooled, self.b_g.data))
            fused, _ = T._gated_concat(features, gates)
        else:
            fused = np.concatenate(features, axis=-1)
        hidden = np.maximum(T._matvec(self.w_c1.data, fused, self.b_c1.data), 0.0)
        return T.softmax(T._matvec(self.w_c2.data, hidden, self.b_c2.data)), gates

    def predict_batch(self, batch: list[ItemFeatures]) -> list[fuse.Prediction]:
        """Class distribution, label and gates of every item, in batch order.

        Scoring runs ``_score``, which builds no tape, and gives the same
        bits as ``forward`` on the same items.
        """
        if not batch:
            return []
        probs, gates = self._score(batch)
        labels = probs.argmax(axis=-1)
        gates = gates.tolist() if gates is not None else None
        return [
            fuse.Prediction(
                probs=probs[i].copy(),
                label=int(labels[i]),
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

            def entry(key):
                try:
                    return archive[key]
                except ValueError as exc:  # an object array, which needs pickle
                    raise ConfigError(f"{path}: entry {key!r} cannot be read ({exc})") from exc

            meta_text = str(entry("__meta__"))
            arrays = {
                key.removeprefix("param/"): entry(key)
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
