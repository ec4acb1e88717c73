"""Confusion-matrix metrics with per-class precision/recall/F1 columns."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"accuracy  {self.accuracy:.4f}   ({self.tp + self.tn}/{self.n_items} correct)",
            "",
            f"{'class':<6}  {'precision':>9}  {'recall':>7}  {'f1-score':>8}  {'support':>7}",
            f"{'fake':<6}  {self.fake.precision:>9.4f}  {self.fake.recall:>7.4f}  {self.fake.f1:>8.4f}  {self.tp + self.fn:>7d}",
            f"{'real':<6}  {self.real.precision:>9.4f}  {self.real.recall:>7.4f}  {self.real.f1:>8.4f}  {self.tn + self.fp:>7d}",
            "",
            f"confusion  tp={self.tp} fp={self.fp} fn={self.fn} tn={self.tn}",
        ]
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


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
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
    return tp, fp, fn, tn


def evaluate(model, dataset, precomputed=None) -> MetricsReport:
    """Classify every item and score the hard predictions. Items go through
    ``model.predict`` one at a time, not in ``predict_batch`` chunks: the
    traced benchmark run times these calls per item (ROADMAP item 2)."""
    feats = [model.featurize(item, precomputed) for item in dataset.items]
    preds = [model.predict(f).label for f in feats]
    tp, fp, fn, tn = confusion_from_predictions(dataset.labels(), preds)
    return report_from_confusion(tp, fp, fn, tn)
