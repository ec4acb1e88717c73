"""The JSON-lines walker (``errors.json_objects``) against ``json.loads``, and
``save_jsonl`` copying the loaded JSON text of unchanged vectors."""

import builtins
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfnd import data
from mmfnd.errors import DataFormatError, json_objects
from mmfnd.rng import Rng

# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------

_scalars = (
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# few distinct keys, so lines often repeat one; "é" puts non-ASCII text before later values
_keys = st.sampled_from(["a", "b", "é", "image_vec"]) | st.text(max_size=6)
_GAPS = ["", "", " ", "\t", " \t "]


def _json_text(rnd, value):
    """JSON for ``value`` with random blanks around every token, ASCII or
    literal non-ASCII strings, and NaN/Infinity as Python writes them."""
    if isinstance(value, list):
        inner = ",".join(rnd.choice(_GAPS) + _json_text(rnd, v) + rnd.choice(_GAPS) for v in value)
        return "[" + (inner or rnd.choice(_GAPS)) + "]"
    if isinstance(value, dict):
        return _object_text(rnd, list(value.items()))
    return json.dumps(value, ensure_ascii=rnd.random() < 0.5)


def _object_text(rnd, pairs):
    inner = ",".join(
        rnd.choice(_GAPS) + _json_text(rnd, k) + rnd.choice(_GAPS) + ":"
        + rnd.choice(_GAPS) + _json_text(rnd, v) + rnd.choice(_GAPS)
        for k, v in pairs
    )
    return "{" + (inner or rnd.choice(_GAPS)) + "}"


@st.composite
def _object_lines(draw):
    rnd = draw(st.randoms(use_true_random=False))
    pairs = draw(st.lists(st.tuples(_keys, _values), max_size=6))
    if draw(st.booleans()):  # a vector after non-ASCII text
        pairs.append(("text", "Ça coûte 5 €, ünïcödé 🙂"))
        pairs.append(("vec", draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5))))
    return rnd.choice(_GAPS) + _object_text(rnd, pairs) + rnd.choice(_GAPS)


@st.composite
def _any_lines(draw):
    """A valid object line, or one truncated, extended with garbage, replaced
    by a non-object value, or with one character changed."""
    line = draw(_object_lines())
    how = draw(st.sampled_from(["valid", "truncated", "garbage", "non-object", "changed"]))
    if how == "truncated":
        line = line[: draw(st.integers(0, max(len(line) - 1, 0)))]
    elif how == "garbage":
        line += draw(st.sampled_from(["x", "}", "{}", ",", "]", " 1", "\t\"a\""]))
    elif how == "non-object":
        line = _json_text(draw(st.randoms(use_true_random=False)), draw(_values))
    elif how == "changed" and line:
        at = draw(st.integers(0, len(line) - 1))
        line = line[:at] + draw(st.sampled_from(list('{}[]:,"\\ 0.-eEx') + ["é"])) + line[at + 1:]
    return line


def _same(a, b):
    """Equal JSON values, NaN equal to NaN, 1 unequal to 1.0 and True."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def _walk_file(lines, ending):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
        try:
            return list(json_objects(path)), None
        except DataFormatError as exc:
            return None, str(exc).replace(str(path), "<path>")


@settings(max_examples=100, deadline=None)
@given(st.lists(_object_lines(), min_size=1, max_size=2), st.sampled_from(["\n", "\r\n"]))
def test_walker_matches_json_loads_and_spans_parse_back(lines, ending):
    got, error = _walk_file(lines, ending)
    assert error is None
    assert [line_no for line_no, _, _ in got] == list(range(1, len(lines) + 1))
    for line, (_, obj, texts) in zip(lines, got):
        assert _same(obj, json.loads(line))
        assert list(texts) == list(obj)
        for key, text in texts.items():
            assert text in line
            assert _same(json.loads(text), obj[key])


@settings(max_examples=100, deadline=None)
@given(_any_lines(), st.sampled_from(["\n", "\r\n"]))
def test_walker_rejects_exactly_what_json_loads_rejects(line, ending):
    got, error = _walk_file([line], ending)
    if not line.strip():
        assert got == [] and error is None
        return
    try:
        want = json.loads(line + "\n")  # the line as a text-mode read gives it
    except json.JSONDecodeError as exc:
        assert error == f"<path>: line 1: invalid JSON ({exc.msg})"
        return
    if not isinstance(want, dict):
        assert error == "<path>: line 1: expected a JSON object"
        return
    assert error is None and len(got) == 1 and _same(got[0][1], want)


def test_walker_counts_lines_like_a_text_mode_read(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n{"b": 2}\r{"c": [1,\n')
    with pytest.raises(DataFormatError, match=r"line 4: invalid JSON"):
        for line_no, obj, _ in json_objects(path):
            assert (line_no, obj) in [(1, {"a": 1}), (3, {"b": 2})]


def test_walker_names_the_line_of_invalid_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(DataFormatError, match="line 2: invalid UTF-8"):
        list(json_objects(path))


# ---------------------------------------------------------------------------
# save_jsonl reusing loaded vectors' JSON text
# ---------------------------------------------------------------------------


def _items(n=30):
    gen = Rng(4).stream("jsonl")
    return [
        data.NewsItem(
            id=f"item-{k}", text=f"Zoë {k} in Ürümqi", image=gen.normal(size=5), label=k % 2,
            entities=["Ürümqi"] if k % 2 else [], descriptions=["Ürümqi is a city."] if k % 2 else [],
            text_vec=gen.normal(size=3) if k % 3 else None,
            desc_vecs=gen.normal(size=(k % 4, 3)) if k % 4 else None,
        )
        for k in range(n)
    ]


def _old_formula(items):
    """The bytes save_jsonl wrote before it could copy vector text."""
    lines = []
    for item in items:
        obj = {"id": item.id, "text": item.text, "image_vec": item.image.tolist(), "label": item.label}
        if item.entities:
            obj["entities"] = item.entities
        if item.descriptions:
            obj["desc_sentences"] = item.descriptions
        if item.text_vec is not None:
            obj["text_vec"] = item.text_vec.tolist()
        if item.desc_vecs is not None:
            obj["desc_vecs"] = item.desc_vecs.tolist()
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


def test_save_of_plain_items_writes_the_json_dumps_bytes(tmp_path):
    items = _items()
    data.save_jsonl(tmp_path / "a.jsonl", data.Dataset(items, "train", "test"))
    assert (tmp_path / "a.jsonl").read_bytes() == _old_formula(items)


def test_load_then_save_reproduces_the_file_byte_for_byte(tmp_path):
    data.save_jsonl(tmp_path / "a.jsonl", data.Dataset(_items(), "train", "test"))
    loaded = data.load_jsonl(tmp_path / "a.jsonl")
    assert all(item.sources for item in loaded.items)
    data.save_jsonl(tmp_path / "b.jsonl", loaded)
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    # changed non-vector fields are written, unchanged vectors still copied
    loaded.items[1].descriptions = ["Ürümqi is a large city."]
    data.save_jsonl(tmp_path / "c.jsonl", loaded)
    assert (tmp_path / "c.jsonl").read_bytes() == _old_formula(loaded.items)


def test_loaded_vectors_are_read_only(tmp_path):
    data.save_jsonl(tmp_path / "a.jsonl", data.Dataset(_items(), "train", "test"))
    item = data.load_jsonl(tmp_path / "a.jsonl").items[5]
    for vec in (item.image, item.text_vec, item.desc_vecs):
        assert not vec.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 1.0


_NON_CANONICAL = '{"id": "a", "text": "t", "image_vec": [1.50, 1e-5, 2], "label": 0, "text_vec": [3, 0.10], "desc_vecs": [[1E2, -0.0]]}\n'


def _non_canonical(tmp_path, name="src.jsonl"):
    path = tmp_path / name
    path.write_text(_NON_CANONICAL, encoding="utf-8")
    return path, data.load_jsonl(path)


def test_non_canonical_vector_text_is_copied_verbatim(tmp_path):
    src, loaded = _non_canonical(tmp_path)
    data.save_jsonl(tmp_path / "out.jsonl", loaded)
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == _NON_CANONICAL
    again = data.load_jsonl(tmp_path / "out.jsonl").items[0]
    np.testing.assert_array_equal(again.image, [1.5, 1e-5, 2.0])
    np.testing.assert_array_equal(again.text_vec, [3.0, 0.1])
    np.testing.assert_array_equal(again.desc_vecs, [[100.0, -0.0]])


def _unfrozen_and_changed(item):
    item.image.flags.writeable = True
    item.image[0] = 7.0


@pytest.mark.parametrize(
    "change",
    [
        lambda item: setattr(item, "image", np.array([1.5, 1e-5, 2.0])),
        _unfrozen_and_changed,
    ],
    ids=["replaced", "made-writeable-and-changed"],
)
def test_vector_is_serialized_from_the_array_when_its_source_text_may_be_stale(tmp_path, change):
    src, loaded = _non_canonical(tmp_path)
    item = loaded.items[0]
    change(item)
    data.save_jsonl(tmp_path / "out.jsonl", loaded)
    out = (tmp_path / "out.jsonl").read_text(encoding="utf-8")
    assert f'"image_vec": {json.dumps(item.image.tolist())}, ' in out
    assert '"text_vec": [3, 0.10], ' in out


@pytest.mark.parametrize(
    "change",
    [
        lambda src: src.write_text(_NON_CANONICAL.replace("1.50", "1.51").replace("0.10", "0.2"), encoding="utf-8"),
        lambda src: src.unlink(),
    ],
    ids=["source-edited", "source-deleted"],
)
def test_vector_text_is_copied_after_the_source_is_edited_or_deleted(tmp_path, change):
    src, loaded = _non_canonical(tmp_path)
    change(src)
    data.save_jsonl(tmp_path / "out.jsonl", loaded)
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == _NON_CANONICAL


def test_saving_onto_its_own_source_keeps_the_loaded_text(tmp_path):
    src, loaded = _non_canonical(tmp_path)
    data.save_jsonl(src, loaded)
    assert src.read_text(encoding="utf-8") == _NON_CANONICAL
    again, item = data.load_jsonl(src).items[0], loaded.items[0]
    for attr in ("image", "text_vec", "desc_vecs"):
        np.testing.assert_array_equal(getattr(again, attr), getattr(item, attr))


def test_save_opens_only_the_output_file(tmp_path, monkeypatch):
    data.save_jsonl(tmp_path / "a.jsonl", data.Dataset(_items(), "train", "test"))
    loaded = data.load_jsonl(tmp_path / "a.jsonl")
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    data.save_jsonl(tmp_path / "b.jsonl", loaded)
    monkeypatch.undo()
    assert opened == [str(tmp_path / "b.jsonl")]
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()


def test_synthetic_corpus_bytes_survive_a_load_save_round_trip(tmp_path):
    art = data.synth_generate(40, 10, seed=5)
    data.save_jsonl(tmp_path / "a.jsonl", art.train)
    assert (tmp_path / "a.jsonl").read_bytes() == _old_formula(art.train.items)
    data.save_jsonl(tmp_path / "b.jsonl", data.load_jsonl(tmp_path / "a.jsonl"))
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
