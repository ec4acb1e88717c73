import hashlib
import io
import json
import re

import numpy as np
import pytest

from mmfnd import data, enrich
from mmfnd.enrich import Gazetteer, extract_entities
from mmfnd.errors import ConfigError, DataFormatError
from mmfnd.rng import Rng


def _write(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _line(item_id="a", text="some text", image=(1.0, 2.0), label=0, **extra):
    obj = {"id": item_id, "text": text, "image_vec": list(image), "label": label}
    obj.update(extra)
    return json.dumps(obj)


def test_load_two_valid_lines(tmp_path):
    path = _write(tmp_path, [_line("a"), _line("b", label=1)])
    ds = data.load_jsonl(path)
    assert len(ds) == 2 and ds.skipped == 0
    assert ds.items[1].label == 1
    np.testing.assert_array_equal(ds.items[0].image, [1.0, 2.0])


def test_missing_image_vec_is_skipped_and_counted(tmp_path, caplog):
    bad = json.dumps({"id": "b", "text": "x", "label": 1})
    path = _write(tmp_path, [_line("a"), bad])
    with caplog.at_level("WARNING"):
        ds = data.load_jsonl(path)
    assert len(ds) == 1 and ds.skipped == 1
    assert any("image_vec" in rec.message for rec in caplog.records)


def test_empty_text_is_skipped(tmp_path):
    path = _write(tmp_path, [_line("a"), _line("b", text="")])
    ds = data.load_jsonl(path)
    assert len(ds) == 1 and ds.skipped == 1


def test_malformed_json_names_line(tmp_path):
    path = _write(tmp_path, [_line("a"), "{broken"])
    with pytest.raises(DataFormatError, match="line 2"):
        data.load_jsonl(path)


def test_duplicate_id_rejected(tmp_path):
    path = _write(tmp_path, [_line("a"), _line("a")])
    with pytest.raises(DataFormatError, match="duplicate"):
        data.load_jsonl(path)


def test_inconsistent_image_width_rejected(tmp_path):
    path = _write(tmp_path, [_line("a"), _line("b", image=(1.0,))])
    with pytest.raises(DataFormatError, match="line 2"):
        data.load_jsonl(path)


@pytest.mark.parametrize("field,value", [("id", 5), ("id", ["a"]), ("text", 7), ("text", {"t": "x"})])
def test_non_string_id_or_text_rejected_naming_line_and_field(tmp_path, field, value):
    bad = json.loads(_line("b"))
    bad[field] = value
    path = _write(tmp_path, [_line("a"), json.dumps(bad)])
    with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: line 2: {field} must be a string"):
        data.load_jsonl(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_image_value_rejected_naming_line_and_field(tmp_path, value):
    path = _write(tmp_path, [_line("a"), _line("b", image=(1.0, value))])
    with pytest.raises(DataFormatError, match="line 2: image_vec"):
        data.load_jsonl(path)


@pytest.mark.parametrize(
    "field,first,second",
    [
        ("text_vec", [1.0, 2.0], [1.0]),
        ("desc_vecs", [[1.0, 2.0]], [[1.0, 2.0, 3.0]]),
    ],
)
def test_vector_width_change_rejected_naming_line_and_field(tmp_path, field, first, second):
    path = _write(tmp_path, [_line("a", **{field: first}), _line("b"), _line("c", **{field: second})])
    with pytest.raises(DataFormatError, match=f"line 3: {field} has length"):
        data.load_jsonl(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("image_vec", [[1.0, 2.0]]),
        ("image_vec", ["one", "two"]),
        ("text_vec", ["1.5", "2.5"]),
        ("text_vec", [[1.0], [2.0]]),
        ("desc_vecs", [[1.0, None]]),
        ("desc_vecs", [1.0, 2.0]),
        ("desc_vecs", [[1.0, 2.0], [1.0]]),
    ],
)
def test_malformed_vector_rejected_naming_line_and_field(tmp_path, field, value):
    path = _write(tmp_path, [_line("a"), _line("b", **{field: value})])
    with pytest.raises(DataFormatError, match=f"line 2: {field} must be a"):
        data.load_jsonl(path)


@pytest.mark.parametrize(
    "field,value",
    [("desc_sentences", "Paris is a city."), ("entities", "Paris"), ("entities", ["Paris", 3])],
    ids=["desc_sentences-string", "entities-string", "entities-number"],
)
def test_string_list_fields_reject_other_values_naming_line_and_field(tmp_path, field, value):
    path = _write(tmp_path, [_line("a"), _line("b", **{field: value})])
    with pytest.raises(DataFormatError, match=f"line 2: {field} must be a list of strings"):
        data.load_jsonl(path)


def test_invalid_label_rejected(tmp_path):
    path = _write(tmp_path, [_line("a", label=2)])
    with pytest.raises(DataFormatError, match="label"):
        data.load_jsonl(path)


def test_roundtrip_of_500_synthetic_items_is_lossless(tmp_path):
    art = data.synth_generate(500, 10, seed=3)
    path = tmp_path / "train.jsonl"
    data.save_jsonl(path, art.train)
    keys = {key for line in path.read_text().splitlines() for key in json.loads(line)}
    assert keys == {"id", "text", "image_vec", "label", "entities", "desc_sentences"}
    loaded = data.load_jsonl(path)
    assert len(loaded) == 500
    for a, b in zip(art.train.items, loaded.items):
        assert a.id == b.id and a.text == b.text and a.label == b.label
        assert a.entities == b.entities and a.descriptions == b.descriptions
        np.testing.assert_array_equal(a.image, b.image)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def _dataset_bytes(ds):
    buf = io.StringIO()
    for item in ds.items:
        buf.write(json.dumps(
            [item.id, item.text, item.image.tolist(), item.label, item.entities, item.descriptions]
        ))
    return buf.getvalue()


def test_generator_is_deterministic():
    a = data.synth_generate(50, 20, seed=9)
    b = data.synth_generate(50, 20, seed=9)
    assert _dataset_bytes(a.train) == _dataset_bytes(b.train)
    assert _dataset_bytes(a.test) == _dataset_bytes(b.test)
    assert a.gazetteer == b.gazetteer and a.summaries == b.summaries
    c = data.synth_generate(50, 20, seed=10)
    assert _dataset_bytes(c.train) != _dataset_bytes(a.train)


# SHA-256 of save_jsonl's train and test files plus the summaries of
# synth_generate(50, 20, seed=9, d_raw=16). The generator's constants and draw
# order are part of every corpus, so this must hold across commits.
GOLDEN_CORPUS_SHA256 = "62273d77fa85223f0faecffd5113cb4747cd8ded74c5d5f3e4aa994e4367e340"


def test_generator_bytes_match_the_golden_digest(tmp_path):
    art = data.synth_generate(50, 20, seed=9, d_raw=16)
    h = hashlib.sha256()
    for ds in (art.train, art.test):
        path = tmp_path / f"{ds.split}.jsonl"
        data.save_jsonl(path, ds)
        h.update(path.read_bytes())
    h.update(json.dumps(art.summaries, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    assert h.hexdigest() == GOLDEN_CORPUS_SHA256, (
        "the synthetic corpus bytes changed; only a numpy upgrade that changes its random streams "
        "may re-record GOLDEN_CORPUS_SHA256"
    )


def test_generator_balances_labels():
    art = data.synth_generate(200, 101, seed=4)
    for ds in (art.train, art.test):
        labels = np.array(ds.labels())
        assert abs(int((labels == 0).sum()) - int((labels == 1).sum())) <= max(1, len(ds) // 100)


def test_generator_rejects_tiny_splits():
    with pytest.raises(ConfigError):
        data.synth_generate(5, 100, seed=1)


@pytest.mark.parametrize("field, value, rule", [
    ("seed", 1.5, "an integer"), ("seed", True, "an integer"), ("n_train", 10.5, "an integer"),
    ("n_train", "20", "an integer"), ("n_test", 12.0, "an integer"), ("d_raw", 2.5, "an integer"),
    ("d_raw", None, "an integer"), ("d_raw", 0, "positive"), ("d_raw", -1, "positive"),
])
def test_generator_rejects_bad_arguments_naming_the_field(field, value, rule):
    """A float seed would be truncated into another seed's corpus, and a
    non-positive width would give 0-wide images or a numpy error."""
    args = {"n_train": 20, "n_test": 10, "seed": 1, "d_raw": 8, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be {rule}, got {value!r}$"):
        data.synth_generate(**args)


def test_generator_takes_numpy_integer_arguments():
    art = data.synth_generate(np.int64(20), np.int64(10), seed=np.int64(1), d_raw=np.int64(8))
    assert (len(art.train), len(art.test), art.train.items[0].image.shape) == (20, 10, (8,))


def test_generated_entities_are_extractable_and_described():
    art = data.synth_generate(40, 10, seed=6)
    gaz = Gazetteer(art.gazetteer)
    for item in art.train.items[:20]:
        assert 1 <= len(item.entities) <= 3
        assert len(item.descriptions) == len(item.entities)
        found = [e.canonical_title for e in extract_entities(item.text, gaz)]
        assert set(item.entities) <= set(found)
        for title, sentence in zip(item.entities, item.descriptions):
            assert sentence == enrich.first_sentence(art.summaries[title])


def test_generated_ids_are_unique_and_split_tagged():
    art = data.synth_generate(30, 12, seed=2)
    train_ids = [i.id for i in art.train.items]
    assert len(set(train_ids)) == len(train_ids)
    assert all(i.id.startswith("train-") for i in art.train.items)
    assert all(i.id.startswith("test-") for i in art.test.items)


def _consistency_score(item, art):
    pos_sets = [set(pos) for pos, _ in art.topic_words]
    neg_sets = [set(neg) for _, neg in art.topic_words]
    toks = item.text.lower().split()
    signs = np.array(
        [
            sum(tok in pos_sets[k] for tok in toks) - sum(tok in neg_sets[k] for tok in toks)
            for k in range(len(art.topic_words))
        ],
        dtype=np.float64,
    )
    nu = np.linalg.norm(signs)
    if nu == 0:
        return 0.0
    z_hat, *_ = np.linalg.lstsq(art.mixing, item.image, rcond=None)
    nz = np.linalg.norm(z_hat)
    if nz == 0:
        return 0.0
    return float((signs / nu) @ (z_hat / nz))


def test_linear_probe_on_raw_consistency_reaches_080():
    art = data.synth_generate(400, 200, seed=11)
    train_scores = np.array([_consistency_score(i, art) for i in art.train.items])
    train_labels = np.array(art.train.labels())
    # best threshold on train (real above, fake below), then applied to test
    candidates = np.unique(train_scores)
    best_thr, best_acc = 0.0, 0.0
    for thr in candidates:
        acc = float(((train_scores < thr).astype(int) == train_labels).mean())
        if acc > best_acc:
            best_thr, best_acc = thr, acc
    test_scores = np.array([_consistency_score(i, art) for i in art.test.items])
    test_labels = np.array(art.test.labels())
    test_acc = float(((test_scores < best_thr).astype(int) == test_labels).mean())
    assert test_acc >= 0.8, f"probe accuracy {test_acc}"
