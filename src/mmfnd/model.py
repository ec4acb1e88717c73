"""End-to-end detection model: parameter registry, forward pass, batch loss.

The model assembles the encoder, enrichment, alignment, interaction and
fusion stages. Items are featurized one by one, then stacked into (B, ...)
arrays, with each item's descriptions padded to the widest item in the
batch. ``featurize`` decides once per text whether it enters as token ids
or as a precomputed embedding; only ``encoders.embed_rows`` reads that
choice. Work that repeats within an item or across items is done once:
a description sentence, which recurs in every item that mentions its
entity, is tokenized once per model; the text and description slots of a
batch share one embedding product; and both cross-modal attention
directions share one ``rank1_attention`` pass. Each of the shared
computations still gives one tape node per result, so the tape and the
trained parameters are those of separate calls. Ablation variants rewire
the graph: ``no_E`` drops the description channel, ``no_M`` drops the
contrastive loss and the interaction feature (the classifier then fuses
two channels), ``no_A`` fixes every fusion gate at one. Each stage has one
path for every variant: ``featurize`` gives a ``no_E`` item no
descriptions, so ``enrich.enhance`` returns the text projection alone.

``forward`` is the one wiring of the stages, for training and scoring
alike. Like the ``tensor`` ops it calls, every stage function takes plain
arrays in place of tensors and then returns plain arrays. On the
registry's ``Param``s, ``forward`` records a whole batch on one tape, which
``batch_loss`` and the backward sweep need; on their arrays it builds no
node, because a score needs no gradient, and ``predict_batch`` scores that
way and returns that plain-array ``Trace``; ``predict`` reads its row 0.
The arithmetic is the same either way, so scores are bit-identical to the
tape's probabilities.
"""

from __future__ import annotations

import json
import math
import numbers
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import align, enrich, fuse, interact
from . import encoders as enc
from . import tensor as T
from .errors import ConfigError, require_integers
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
        """Raise ``ConfigError`` naming field ``name`` unless its value is a
        real number, finite, and ``holds`` for it: a bool, a string or None
        fails, and so do NaN and ±inf whatever the rule."""
        value = getattr(self, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(value) and holds(value)):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")

    def validate(self) -> None:
        require_integers(self, "d", "d_raw", "max_len")
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
    """Intermediate tensors of one batched forward pass, one row per item:
    tape nodes, or plain arrays when the pass read plain weights, as
    ``predict_batch`` does. Fields of an absent module or input are None."""

    r_t: T.Tensor | np.ndarray
    m_d: T.Tensor | np.ndarray | None
    r_t_enh: T.Tensor | np.ndarray
    e_t: T.Tensor | np.ndarray | None
    e_v: T.Tensor | np.ndarray | None
    r_f: T.Tensor | np.ndarray | None
    features: list
    gates: T.Tensor | np.ndarray | None
    fused: T.Tensor | np.ndarray
    probs: T.Tensor | np.ndarray
    labels: np.ndarray


def param_specs(config: ModelConfig, n_vocab: int) -> dict[str, tuple[tuple[int, ...], int | None]]:
    """Every parameter of a model, in registry order: name -> (shape, fan_in).

    A fan_in of None marks a zero-initialised bias; the embedding table
    draws unit normals (fan_in 1).
    """
    d, d_raw, k = config.d, config.d_raw, 3 if config.uses_interaction else 2
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


def _shared_encode(batch: list[ItemFeatures], channel: str, r, w, b):
    """``align.shared_encode`` of the "text" or "image" features, naming each
    item whose row projects to a zero vector, and the field it came from."""
    try:
        return align.shared_encode(r, w, b)
    except T.DegenerateInputError as exc:
        def field(f):
            return "image_vec" if channel == "image" else "text_vec" if isinstance(f.text, np.ndarray) else "text"

        named = ", ".join(f"item {batch[i].item_id!r} ({field(batch[i])})" for i in exc.rows)
        raise T.DegenerateInputError(f"{named}: the shared-space projection is a zero vector", exc.rows) from exc


class Model:
    """All trainable state plus the wiring between pipeline stages."""

    def __init__(self, config: ModelConfig, vocab: enc.Vocabulary, arrays: dict[str, np.ndarray]):
        """A model holding the given parameter arrays, which must match
        ``param_specs`` name for name and shape for shape."""
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
        # description sentence -> its tokens: one entry per distinct sentence
        # that featurize has read (one per entity); shared, so read-only
        self._desc_tokens: dict[str, enc.TokenSequence] = {}

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
        is active; the ``no_E`` variant never reads them. A description
        sentence recurs across every item that mentions its entity, so it is
        tokenized once per model and its ``TokenSequence`` is shared, read
        only, by those items; item texts are not kept. Vector widths,
        non-finite vector values and texts without word tokens are rejected
        here, naming the item and the field, on every item that holds one.
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
                for i, s in enumerate(item.descriptions):
                    seq = self._desc_tokens.get(s)
                    if seq is None:
                        seq = self._desc_tokens[s] = tokens(f"desc_sentences[{i}]", s)
                    descs.append(seq)
        return ItemFeatures(item_id=item.id, label=item.label, image=image, text=text, descs=descs)

    # -- forward ------------------------------------------------------------

    def forward(self, batch: list[ItemFeatures], weights: dict[str, np.ndarray] | None = None) -> Trace:
        """One pass over the whole batch: every tensor is (B, ...).

        ``weights`` maps each parameter name to what the stages read. The
        default, the registry's ``Param``s, records the pass on one tape;
        ``self.params.arrays`` gives plain arrays and no node. An empty
        batch raises ``ConfigError``.
        """
        if not batch:
            raise ConfigError("a forward pass over an empty batch")
        cfg, n = self.config, len(batch)
        w = self.params if weights is None else weights
        counts, width, slots = _padded_descs(batch)
        groups = [([f.text for f in batch], (n,))]
        if width:
            groups.append((slots, (n, width)))
        rows = enc.embed_rows(w["emb"], groups)
        r_t = T.matvec(w["w_tf"], rows[0])
        r_v = enc.encode_image(w["w_vf"], np.array([f.image for f in batch]))
        m_d = enc.encode_description(w["w_df"], rows[1]) if width else None
        r_t_enh = enrich.enhance(r_t, m_d, counts, w["w_t"], w["w_d"] if width else None)

        e_t = e_v = r_f = None
        if cfg.uses_interaction:
            e_t = _shared_encode(batch, "text", r_t, w["w_st"], w["b_st"])
            e_v = _shared_encode(batch, "image", r_v, w["w_sv"], w["b_sv"])
            m_f_v, m_f_t = interact.modality_update(e_t, e_v)
            r_f = interact.interaction_feature(m_f_v, m_f_t, w["w_i1"], w["b_i1"], w["w_i2"], w["b_i2"])

        features = [r_t_enh, r_v] + ([r_f] if r_f is not None else [])
        gates = fuse.adaptive_weights(features, w["w_g"], w["b_g"]) if cfg.uses_gates else None
        fused = fuse.fuse(features, gates)
        probs, labels = fuse.classify(fused, w["w_c1"], w["b_c1"], w["w_c2"], w["b_c2"])
        return Trace(
            r_t=r_t, m_d=m_d, r_t_enh=r_t_enh, e_t=e_t, e_v=e_v, r_f=r_f,
            features=features, gates=gates, fused=fused, probs=probs, labels=labels,
        )

    def batch_loss(
        self, batch: list[ItemFeatures], diagnostics: dict | None = None
    ) -> tuple[T.Tensor, dict]:
        """Total objective over a batch: mean detection loss plus the
        batch-level contrastive loss (when the interaction module is on)."""
        trace = self.forward(batch)
        l_d = fuse.detection_loss(trace.probs, [f.label for f in batch])
        loss, parts = l_d, {"detection": float(l_d.data), "contrastive": 0.0}
        if self.config.uses_interaction:
            l_c = align.contrastive_loss(trace.e_v, trace.e_t, self.config.tau, diagnostics)
            parts["contrastive"] = float(l_c.data)
            loss = fuse.total_loss(l_c, l_d, self.config.lambda_c)
        parts["total"] = float(loss.data)
        return loss, parts

    # -- inference ----------------------------------------------------------

    def predict_batch(self, batch: list[ItemFeatures]) -> Trace:
        """The ``Trace`` of ``forward`` on the parameters' arrays: class
        distributions, labels, gates and intermediates as plain arrays, one
        row per item in batch order. It builds no tape, and gives the same
        bits as the tape forward on the same items."""
        return self.forward(batch, self.params.arrays)

    def predict(self, feats: ItemFeatures) -> fuse.Prediction:
        """The record of one item: row 0 of ``predict_batch([feats])``."""
        trace = self.predict_batch([feats])
        gates = None if trace.gates is None else tuple(trace.gates[0].tolist())
        return fuse.Prediction(probs=trace.probs[0], label=int(trace.labels[0]), gates=gates)

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
        config raises ``ConfigError`` naming the file and the key. So does a
        file that is not an ``.npz`` archive; a missing file raises
        ``FileNotFoundError``."""
        with open(path, "rb") as fh:  # a missing file raises FileNotFoundError here
            if fh.read(4) != b"PK\x03\x04" or not zipfile.is_zipfile(fh):
                raise ConfigError(f"{path}: not an .npz archive")
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
