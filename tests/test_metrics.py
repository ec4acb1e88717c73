import dataclasses
import json

import numpy as np
import pytest

from mmfnd import data, metrics
from mmfnd.errors import ConfigError
from mmfnd.model import Model
from mmfnd.train import TrainConfig, train

from gradcheck import build_gradcheck_problem


def test_no_predicted_fakes_warns_and_reports_zero_precision():
    report = metrics.report_from_confusion(tp=0, fp=0, fn=3, tn=5)
    assert report.fake.precision == 0.0 and report.fake.f1 == 0.0
    assert any("no items predicted fake" in w for w in report.warnings)
    assert report.accuracy == pytest.approx(5 / 8)


@pytest.mark.parametrize("label,counts", [("fake", dict(tp=0, fp=2, fn=0, tn=6)), ("real", dict(tp=5, fp=0, fn=3, tn=0))])
def test_no_true_items_of_a_class_warns_and_reports_zero_recall(label, counts):
    report = metrics.report_from_confusion(**counts)
    block = getattr(report, label)
    assert block.recall == 0.0 and block.f1 == 0.0
    assert f"no true {label} items in the evaluation set; recall reported as 0" in report.warnings
    assert report.accuracy == pytest.approx(6 / 8 if label == "fake" else 5 / 8)


def test_report_to_dict_is_plain_json_of_every_field():
    report = metrics.report_from_confusion(tp=3, fp=1, fn=2, tn=4)
    out = report.to_dict()
    assert json.loads(json.dumps(out)) == out
    assert out == {
        "accuracy": 0.7,
        "fake": {"precision": 0.75, "recall": 0.6, "f1": pytest.approx(2 / 3)},
        "real": {"precision": 4 / 6, "recall": 0.8, "f1": pytest.approx(8 / 11)},
        "confusion": {"tp": 3, "fp": 1, "fn": 2, "tn": 4},
        "n_items": 10,
        "warnings": [],
    }
    # the dict is a copy: editing it leaves the report as it was
    out["fake"]["precision"] = 0.0
    out["warnings"].append("edited")
    assert report.fake.precision == 0.75 and report.warnings == []


def test_evaluating_an_empty_dataset_names_its_provenance():
    model, _ = build_gradcheck_problem(d=6)
    with pytest.raises(ConfigError, match="evaluation dataset 'x' is empty"):
        metrics.evaluate(model, data.Dataset([], "test", "x"))


def test_empty_confusion_matrix_raises():
    with pytest.raises(ValueError):
        metrics.report_from_confusion(0, 0, 0, 0)


def test_confusion_counts_by_hand():
    assert metrics.confusion_from_predictions([1, 0, 1, 0, 1], [1, 1, 0, 0, 1]) == (2, 1, 1, 1)


def test_confusion_rejects_lists_of_unequal_length():
    with pytest.raises(ValueError, match="3 true labels but 2 predictions"):
        metrics.confusion_from_predictions([1, 0, 1], [1, 0])


@pytest.mark.parametrize(
    "y_true,y_pred,where",
    [([1, 0, 2], [1, 0, 1], "position 2 has true 2"), ([1, 0, 1], [1, -1, 1], "position 1 has true 0, predicted -1")],
)
def test_confusion_rejects_a_label_outside_0_and_1(y_true, y_pred, where):
    with pytest.raises(ValueError, match=where):
        metrics.confusion_from_predictions(y_true, y_pred)


@pytest.fixture(scope="module")
def trained():
    art = data.synth_generate(40, 70, seed=3, d_raw=8)
    cfg = TrainConfig(d=8, d_raw=8, batch=8, epochs=2, max_len=16)
    return train(cfg, art.train).model, art.test


def test_evaluate_featurizes_and_predicts_each_item_exactly_once(trained, monkeypatch):
    """The traced benchmark times ``Model.featurize`` and ``Model.predict``
    and divides by their call counts, so ``evaluate`` calls each once per
    item. Scoring in ``predict_batch`` chunks changes what the benchmark
    measures; it belongs with the benchmark revision of ROADMAP direction 2,
    after which a chunk's labels are ``model.predict_batch(chunk).labels``."""
    model, test = trained
    calls = {"featurize": 0, "predict": 0}
    for name in calls:
        def counted(self, arg, _name=name, _original=getattr(Model, name)):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(Model, name, counted)
    metrics.evaluate(model, test)
    assert calls == {"featurize": len(test), "predict": len(test)}


@pytest.mark.parametrize("label", [2, None, True, 0.5])
def test_evaluate_rejects_a_label_other_than_0_or_1_before_scoring(trained, monkeypatch, label):
    """The check ``train`` runs, naming the dataset and the item, before
    any item is featurized or scored."""
    model, test = trained
    items = list(test.items)
    items[3] = dataclasses.replace(items[3], label=label)
    test = data.Dataset(items, test.split, test.provenance)
    for name in ("featurize", "predict"):
        monkeypatch.setattr(Model, name, lambda self, arg: pytest.fail("scored a dataset with a bad label"))
    message = rf"^evaluation dataset {test.provenance!r}: item {test.items[3].id!r} has label {label!r}, expected 0 or 1$"
    with pytest.raises(ConfigError, match=message):
        metrics.evaluate(model, test)


def test_evaluate_matches_item_by_item_and_batched_predictions(trained, tmp_path):
    model, test = trained
    # a mix of tokenized items and items that carry text/description vectors
    gen = np.random.default_rng(1)
    for k, item in enumerate(test.items[::2]):
        item.text_vec = gen.normal(size=8) if k % 2 else None
        item.desc_vecs = gen.normal(size=(1, 8)) if k % 3 == 0 else None
    report = metrics.evaluate(model, test)
    feats = [model.featurize(item) for item in test.items]
    assert isinstance(feats[2].text, np.ndarray)
    assert len(feats[0].descs) == 1 and isinstance(feats[0].descs[0], np.ndarray)
    by_item = [model.predict(f).label for f in feats]
    batched = np.concatenate([model.predict_batch(chunk).labels for chunk in (feats[:64], feats[64:])])
    assert by_item == batched.tolist()
    counts = metrics.confusion_from_predictions(test.labels(), by_item)
    assert (report.tp, report.fp, report.fn, report.tn) == counts
    assert report.n_items == len(test)

    # the same counts after a save/load round trip
    path = tmp_path / "model.npz"
    model.save(path)
    again = metrics.evaluate(Model.load(path), test)
    assert (again.tp, again.fp, again.fn, again.tn) == counts
