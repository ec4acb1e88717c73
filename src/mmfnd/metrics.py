"""Confusion-matrix metrics with per-class precision/recall/F1 columns."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    """Accuracy plus one metric column block per class.

    The confusion counts treat fake as the positive class; the real-class
    block reads the same counts with real as positive.
    """

    accuracy: float
    fake: ClassMetrics
    real: ClassMetrics
    tp: int
    fp: int
    fn: int
    tn: int
    n_items: int
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "fake": vars(self.fake).copy(),
            "real": vars(self.real).copy(),
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "n_items": self.n_items,
            "warnings": list(self.warnings),
        }


def _prf(tp: int, fp: int, fn: int, label: str, warnings: list[str]) -> ClassMetrics:
    if tp + fp == 0:
        warnings.append(f"no items predicted {label}; precision reported as 0")
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        warnings.append(f"no true {label} items in the evaluation set; recall reported as 0")
        recall = 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def report_from_confusion(tp: int, fp: int, fn: int, tn: int) -> MetricsReport:
    n = tp + fp + fn + tn
    if n == 0:
        raise ValueError("empty confusion matrix")
    warnings: list[str] = []
    fake = _prf(tp, fp, fn, "fake", warnings)
    real = _prf(tn, fn, fp, "real", warnings)
    return MetricsReport(
        accuracy=(tp + tn) / n, fake=fake, real=real,
        tp=tp, fp=fp, fn=fn, tn=tn, n_items=n, warnings=warnings,
    )


def confusion_from_predictions(y_true: list[int], y_pred: list[int]) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with fake (1) as the positive class.

    Raises ``ValueError`` when the lists differ in length, or at the first
    position where either holds a label other than 0 or 1.
    """
    if len(y_true) != len(y_pred):
        raise ValueError(f"{len(y_true)} true labels but {len(y_pred)} predictions")
    for i, (t, p) in enumerate(zip(y_true, y_pred)):
        if t not in (0, 1) or p not in (0, 1):
            raise ValueError(f"labels must be 0 or 1: position {i} has true {t!r}, predicted {p!r}")
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
    return tp, fp, fn, tn


def evaluate(model, dataset) -> MetricsReport:
    """Classify every item and score the hard predictions.

    Each item goes through ``model.featurize`` and ``model.predict`` exactly
    once, one item at a time: the traced benchmark run divides the time of
    these calls by their counts. Scoring in ``predict_batch`` chunks changes
    what that run measures, so it waits for the benchmark revision of
    ROADMAP direction 2. ``predict`` scores on plain arrays and builds no
    tape. An empty dataset raises ``ConfigError`` naming its provenance."""
    if not dataset.items:
        raise ConfigError(f"evaluation dataset {dataset.provenance!r} is empty")
    feats = [model.featurize(item) for item in dataset.items]
    preds = [model.predict(f).label for f in feats]
    tp, fp, fn, tn = confusion_from_predictions(dataset.labels(), preds)
    return report_from_confusion(tp, fp, fn, tn)
