import numpy as np
import pytest

from mmfnd import data, metrics
from mmfnd.encoders import PrecomputedItem
from mmfnd.model import Model
from mmfnd.train import TrainConfig, train


def test_no_predicted_fakes_warns_and_reports_zero_precision():
    report = metrics.report_from_confusion(tp=0, fp=0, fn=3, tn=5)
    assert report.fake.precision == 0.0 and report.fake.f1 == 0.0
    assert any("no items predicted fake" in w for w in report.warnings)
    assert report.accuracy == pytest.approx(5 / 8)


def test_empty_confusion_matrix_raises():
    with pytest.raises(ValueError):
        metrics.report_from_confusion(0, 0, 0, 0)


@pytest.fixture(scope="module")
def trained():
    art = data.synth_generate(40, 70, seed=3, d_raw=8)
    cfg = TrainConfig(d=8, d_raw=8, batch=8, epochs=2, max_len=16)
    return train(cfg, art.train).model, art.test


def test_evaluate_matches_item_by_item_and_batched_predictions(trained, tmp_path):
    model, test = trained
    # a mix of tokenized items and items with precomputed text/description vectors
    gen = np.random.default_rng(1)
    pre = {
        item.id: PrecomputedItem(
            image_vec=np.asarray(item.image),
            text_vec=gen.normal(size=8) if k % 2 else None,
            desc_vecs=[gen.normal(size=8)] if k % 3 == 0 else [],
        )
        for k, item in enumerate(test.items[::2])
    }
    report = metrics.evaluate(model, test, pre)
    feats = [model.featurize(item, pre) for item in test.items]
    by_item = [model.predict(f).label for f in feats]
    batched = [p.label for chunk in (feats[:64], feats[64:]) for p in model.predict_batch(chunk)]
    assert by_item == batched
    counts = metrics.confusion_from_predictions(test.labels(), by_item)
    assert (report.tp, report.fp, report.fn, report.tn) == counts
    assert report.n_items == len(test)

    # the same counts after a save/load round trip
    path = tmp_path / "model.npz"
    model.save(path)
    again = metrics.evaluate(Model.load(path), test, pre)
    assert (again.tp, again.fp, again.fn, again.tn) == counts
