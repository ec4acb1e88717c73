import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmfnd import enrich
from mmfnd import tensor as T
from mmfnd.data import synth_generate
from mmfnd.errors import DataFormatError
from mmfnd.rng import Rng

from gradcheck import finite_diff_check, weighted_sum
from reference_ops import bmv, masked_softmax_rows, scale_rows, transpose

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# entity extraction
# ---------------------------------------------------------------------------


def test_extract_worked_example():
    text = "shooting of Michael Brown in Ferguson"
    gaz = enrich.Gazetteer(["shooting of Michael Brown", "Ferguson"])
    entities = enrich.extract_entities(text, gaz)
    assert [e.canonical_title for e in entities] == ["shooting of Michael Brown", "Ferguson"]
    assert entities[0].span == (0, 25)
    assert text[slice(*entities[1].span)] == "Ferguson"


def test_extract_no_hits():
    assert enrich.extract_entities("nothing to see", enrich.Gazetteer(["Ferguson"])) == []


def test_extract_longest_match_wins():
    entities = enrich.extract_entities(
        "Visit New York City now", enrich.Gazetteer(["New York", "New York City"])
    )
    assert [e.canonical_title for e in entities] == ["New York City"]
    assert entities[0].surface == "New York City"


def test_extract_case_insensitive_keeps_original_surface():
    entities = enrich.extract_entities("we saw FERGUSON burn", enrich.Gazetteer(["Ferguson"]))
    assert entities[0].canonical_title == "Ferguson"
    assert entities[0].surface == "FERGUSON"


def test_extract_dedupes_by_title_keeping_first():
    entities = enrich.extract_entities(
        "Ferguson stayed calm; Ferguson later erupted", enrich.Gazetteer(["Ferguson"])
    )
    assert len(entities) == 1
    assert entities[0].span == (0, 8)


def test_extract_respects_word_boundaries():
    assert enrich.extract_entities("the fergusonian view", enrich.Gazetteer(["Ferguson"])) == []


def test_gazetteer_file_roundtrip(tmp_path):
    path = tmp_path / "gaz.txt"
    titles = ["Ferguson", "New York City", "哈尔滨"]
    enrich.write_gazetteer(path, titles)
    assert list(enrich.load_gazetteer(path)) == titles


def test_extract_tokenizes_titles_like_text():
    # "İ".lower() is "i" plus a combining dot, which is not a word character:
    # lowercasing the title before splitting it made two tokens of one word
    entities = enrich.extract_entities("Talks in İstanbul today", enrich.Gazetteer(["İstanbul"]))
    assert [(e.canonical_title, e.surface) for e in entities] == [("İstanbul", "İstanbul")]


def test_extract_duplicate_keys_resolve_to_first_title_in_file_order():
    gaz = enrich.Gazetteer(["new york", "New-York", "NEW YORK"])
    entities = enrich.extract_entities("Flights to New York resumed", gaz)
    assert [(e.canonical_title, e.surface) for e in entities] == [("new york", "New York")]


def test_extract_overlaps_resolve_to_longest_title_in_any_file_order():
    text = "The New York City Ballet toured New York"
    titles = ["New York", "York City Ballet", "New York City Ballet", "New York City"]
    for gaz in (titles, titles[::-1]):
        entities = enrich.extract_entities(text, enrich.Gazetteer(gaz))
        assert [(e.canonical_title, e.span) for e in entities] == [
            ("New York City Ballet", (4, 24)), ("New York", (32, 40))]


def test_extract_ignores_titles_without_word_characters():
    gaz = enrich.Gazetteer(["", "!!!", " - ", "Ferguson"])
    assert list(gaz) == ["", "!!!", " - ", "Ferguson"]
    entities = enrich.extract_entities("!!! in Ferguson - now", gaz)
    assert [e.canonical_title for e in entities] == ["Ferguson"]


def test_one_gazetteer_tokenizes_each_title_once_across_calls(tmp_path, monkeypatch):
    calls = []
    title_key = enrich._title_key
    monkeypatch.setattr(enrich, "_title_key", lambda title: calls.append(title) or title_key(title))
    titles = ["Ferguson", "New York", "New York City", "Michael Brown"]
    enrich.write_gazetteer(tmp_path / "gaz.txt", titles)
    gaz = enrich.load_gazetteer(tmp_path / "gaz.txt")
    for _ in range(5):
        entities = enrich.extract_entities("Michael Brown left New York City for Ferguson", gaz)
        assert [e.canonical_title for e in entities] == ["Michael Brown", "New York City", "Ferguson"]
    assert sorted(calls) == sorted(titles)


def _oracle_needles(titles):
    """(token count, space-delimited key, title) for the first title with
    each key, in file order."""
    needles = {}
    for title in titles:
        key = [w.lower() for w in re.findall(r"\w+", title)]
        if key:
            needles.setdefault(" " + " ".join(key) + " ", (len(key), title))
    return [(n, needle, title) for needle, (n, title) in needles.items()]


def _oracle_extract(text, needles):
    """Longest match by brute force: find every occurrence of every key in
    the space-joined token string, keep the longest (then earliest in file
    order) per start token, and take matches greedily left to right."""
    spans = [m.span() for m in re.finditer(r"\w+", text)]
    words = [text[a:b].lower() for a, b in spans]
    joined = " " + " ".join(words) + " "
    token_at, pos = {}, 1
    for k, word in enumerate(words):
        token_at[pos] = k
        pos += len(word) + 1
    best = {}
    for n, needle, title in needles:
        at = joined.find(needle)
        while at != -1:
            k = token_at[at + 1]
            if k not in best or n > best[k][0]:
                best[k] = (n, title)
            at = joined.find(needle, at + 1)
    found, seen, i = [], set(), 0
    while i < len(words):
        if i not in best:
            i += 1
            continue
        n, title = best[i]
        if title not in seen:
            seen.add(title)
            found.append((title, (spans[i][0], spans[i + n - 1][1])))
        i += n
    return found


def test_extract_matches_brute_force_oracle_on_synthetic_corpus():
    art = synth_generate(1024, 512, seed=3)
    items = art.train.items + art.test.items
    # upper-cased prefixes of every title add overlaps and duplicate keys
    variants = [" ".join(t.split()[:k]).upper() for t in art.gazetteer for k in (1, 2, 3)]
    for titles in (art.gazetteer, variants + art.gazetteer):
        gaz, needles = enrich.Gazetteer(titles), _oracle_needles(titles)
        total = 0
        for item in items:
            got = [(e.canonical_title, e.span) for e in enrich.extract_entities(item.text, gaz)]
            assert got == _oracle_extract(item.text, needles), item.id
            total += len(got)
        assert total > len(items)


# ---------------------------------------------------------------------------
# first sentence
# ---------------------------------------------------------------------------


def test_first_sentence_abbreviation_guard():
    got = enrich.first_sentence("A. B. Smith was a mayor. He served twice.")
    assert got == "A. B. Smith was a mayor."


def test_first_sentence_without_terminator():
    assert enrich.first_sentence("No terminator here") == "No terminator here"


def test_first_sentence_empty_rejected():
    with pytest.raises(T.DegenerateInputError):
        enrich.first_sentence("")
    with pytest.raises(T.DegenerateInputError):
        enrich.first_sentence("   ")


def test_first_sentence_fixture_suite():
    cases = [json.loads(line) for line in (DATA / "first_sentence_cases.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
    assert len(cases) == 50
    for case in cases:
        assert enrich.first_sentence(case["text"]) == case["expected"], case["text"]


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_cache_roundtrip_byte_exact(tmp_path):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    sentence = "哈尔滨 is a city — with ünïcode, quotes \"and\" all."
    cache.put("哈尔滨/weird title?", sentence)
    assert cache.get("哈尔滨/weird title?") == sentence
    assert cache.get("missing") is None
    # put appends to the one cache file and leaves no temp file behind
    assert not list((tmp_path / "cache").glob("*.tmp"))


@pytest.mark.parametrize("content", [b"{broken", b'["a list"]', b'{"title": "x"}', b'{"sentence": 3}', b"\xff\xfe\xfa"])
def test_cache_bad_entry_names_title_and_file(tmp_path, content):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    cache.put("Missouri", "A state.")
    path = Path(cache.path)
    good = path.read_bytes()
    path.write_bytes(good + content + b"\n")
    with pytest.raises(DataFormatError) as err:
        cache.get("Ferguson")
    assert "'Ferguson'" in str(err.value) and str(path) in str(err.value) and f"byte {len(good)}" in str(err.value)


def test_cache_hit_opens_no_file(tmp_path):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    cache.put("Ferguson", "A city.")
    assert cache.get("Ferguson") == "A city."
    os.remove(cache.path)
    assert cache.get("Ferguson") == "A city."


def test_cache_keeps_every_entry_in_one_file(tmp_path):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    titles = [f"Title {i}/{'é' * (i % 3)}" for i in range(50)]
    for i, title in enumerate(titles):
        cache.put(title, f"Sentence {i}.\nwith a newline")
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [enrich.DescriptionCache.FILE]
    fresh = enrich.DescriptionCache(tmp_path / "cache")
    assert [fresh.get(t) for t in titles] == [f"Sentence {i}.\nwith a newline" for i in range(50)]


def test_cache_last_write_wins(tmp_path):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    cache.put("Ferguson", "Old.")
    assert cache.get("Ferguson") == "Old."
    cache.put("Ferguson", "New.")
    assert enrich.DescriptionCache(tmp_path / "cache").get("Ferguson") == "New."


def test_cache_sees_its_own_overwrite(tmp_path):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    cache.put("Ferguson", "Old.")
    assert cache.get("Ferguson") == "Old."
    cache.put("Ferguson", "New.")
    assert cache.get("Ferguson") == "New."


def test_caches_on_one_directory_see_each_others_writes(tmp_path):
    a = enrich.DescriptionCache(tmp_path / "cache")
    b = enrich.DescriptionCache(tmp_path / "cache")
    assert b.get("Ferguson") is None
    a.put("Ferguson", "A city.")
    assert b.get("Ferguson") == "A city."
    b.put("Missouri", "A state.")
    assert a.get("Missouri") == "A state."


def test_cache_skips_a_partial_last_line_until_it_is_complete(tmp_path):
    cache = enrich.DescriptionCache(tmp_path / "cache")
    cache.put("Ferguson", "A city.")
    line = json.dumps({"title": "Missouri", "sentence": "A state."}).encode("utf-8")
    with open(cache.path, "ab") as fh:
        fh.write(line[:10])
    assert cache.get("Missouri") is None
    assert cache.get("Ferguson") == "A city."
    with open(cache.path, "ab") as fh:
        fh.write(line[10:] + b"\n")
    assert cache.get("Missouri") == "A state."


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


class FakeTransport:
    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, url, headers, timeout):
        self.calls.append((url, headers))
        resp = self.responses[min(len(self.calls) - 1, len(self.responses) - 1)]
        if isinstance(resp, Exception):
            raise resp
        return resp


class FakeTime:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, dt):
        self.sleeps.append(dt)
        self.now += dt


def _client(tmp_path, transport, fixture=None, **kw):
    ft = FakeTime()
    client = enrich.WikiClient(
        enrich.DescriptionCache(tmp_path / "cache"),
        fixture=fixture,
        transport=transport,
        sleep=ft.sleep,
        clock=ft.clock,
        **kw,
    )
    return client, ft


def _summary_body(extract):
    return json.dumps({"title": "x", "extract": extract}).encode("utf-8")


MICHAEL_BROWN_SENTENCE = (
    "On August 9, 2014, Michael Brown Jr. was fatally shot by police officer "
    "Darren Wilson in Ferguson, Missouri."
)


def test_offline_fixture_hit_writes_cache_and_uses_no_network(tmp_path):
    fixture = enrich.load_fixture(DATA / "wiki_fixture.jsonl")
    transport = FakeTransport([])
    client, _ = _client(tmp_path, transport, fixture=fixture)
    desc = client.fetch_description("Shooting of Michael Brown", mode="offline")
    assert desc.sentence == MICHAEL_BROWN_SENTENCE
    assert desc.source == "fixture"
    assert transport.calls == []
    assert client.cache.get("Shooting of Michael Brown") == MICHAEL_BROWN_SENTENCE


def test_offline_cache_hit_is_byte_exact_with_zero_calls(tmp_path):
    transport = FakeTransport([])
    client, _ = _client(tmp_path, transport)
    client.cache.put("Ferguson", "Ferguson is a city.")
    desc = client.fetch_description("Ferguson", mode="offline")
    assert desc.sentence == "Ferguson is a city."
    assert desc.source == "cache"
    assert transport.calls == []


def test_offline_miss_raises(tmp_path):
    client, _ = _client(tmp_path, FakeTransport([]))
    with pytest.raises(enrich.CacheMissError):
        client.fetch_description("zzqx-not-a-page", mode="offline")


def test_live_fetch_applies_first_sentence_and_caches(tmp_path):
    body = _summary_body("The Eiffel Tower is a lattice tower in Paris. It is famous.")
    transport = FakeTransport([(200, body)])
    client, _ = _client(tmp_path, transport)
    desc = client.fetch_description("Eiffel Tower", mode="live")
    assert desc.sentence == "The Eiffel Tower is a lattice tower in Paris."
    assert desc.source == "live"
    assert len(transport.calls) == 1
    url, headers = transport.calls[0]
    assert url == "https://en.wikipedia.org/api/rest_v1/page/summary/Eiffel%20Tower"
    assert headers["User-Agent"] == enrich.DEFAULT_USER_AGENT
    # second call is served from the cache
    again = client.fetch_description("Eiffel Tower", mode="live")
    assert again.sentence == desc.sentence
    assert again.source == "cache"
    assert len(transport.calls) == 1


def test_live_404_returns_missing_marker(tmp_path):
    transport = FakeTransport([(404, b"")])
    client, _ = _client(tmp_path, transport)
    assert client.fetch_description("zzqx-not-a-page", mode="live") is None


@pytest.mark.parametrize(
    "body",
    [
        _summary_body(5), _summary_body(["a"]), _summary_body(None), _summary_body(""), _summary_body(" \n\t"),
        b'["extract"]', b'{"title": "x"}', b"not json", b"\xff",
    ],
    ids=["int", "list", "null", "empty", "blank", "array-body", "no-extract", "not-json", "not-utf8"],
)
def test_live_unparseable_summary_raises_fetch_error_naming_the_title(tmp_path, body):
    transport = FakeTransport([(200, body)])
    client, ft = _client(tmp_path, transport)
    with pytest.raises(enrich.FetchError, match="unparseable summary response for 'Eiffel Tower'"):
        client.fetch_description("Eiffel Tower", mode="live")
    assert len(transport.calls) == 1 and ft.sleeps == []
    assert client.cache.get("Eiffel Tower") is None


def test_live_failures_retry_with_backoff_then_raise(tmp_path):
    transport = FakeTransport([(500, b""), OSError("boom"), (502, b"")])
    client, ft = _client(tmp_path, transport)
    with pytest.raises(enrich.FetchError):
        client.fetch_description("Ferguson", mode="live")
    assert len(transport.calls) == 3
    # exponential backoff between attempts
    assert 0.5 in ft.sleeps and 1.0 in ft.sleeps


def test_live_transport_bug_propagates_without_retry(tmp_path):
    transport = FakeTransport([NameError("name 'undefined_name' is not defined")])
    client, ft = _client(tmp_path, transport)
    with pytest.raises(NameError, match="undefined_name"):
        client.fetch_description("Paris", mode="live")
    assert len(transport.calls) == 1
    assert ft.sleeps == []


def test_live_requests_are_rate_limited(tmp_path):
    transport = FakeTransport([(200, _summary_body("A one liner."))])
    client, ft = _client(tmp_path, transport)
    client.fetch_description("One", mode="live")
    client.fetch_description("Two", mode="live")
    assert any(abs(s - enrich.MIN_INTERVAL) < 1e-9 for s in ft.sleeps)


def test_live_without_requests_fails_at_once_naming_the_extra(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    client, ft = _client(tmp_path, None)
    with pytest.raises(enrich.FetchError, match=re.escape("mmfnd[live]")):
        client.fetch_description("Paris", mode="live")
    assert ft.sleeps == []


def test_importing_every_module_leaves_requests_unimported():
    code = (
        "import importlib, pkgutil, sys, mmfnd\n"
        "names = [m.name for m in pkgutil.iter_modules(mmfnd.__path__)]\n"
        "for name in names: importlib.import_module('mmfnd.' + name)\n"
        "print(len(names), 'requests' in sys.modules)\n"
    )
    src = str(Path(enrich.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    n_modules, imported = out.stdout.split()
    assert int(n_modules) >= 10 and imported == "False"


@pytest.mark.parametrize(
    "second,where",
    [('{"title": "B"}', "line 2: summary must be a string"), ("not json", "line 2: invalid JSON")],
    ids=["no-summary", "not-json"],
)
def test_fixture_bad_line_names_file_line_and_field(tmp_path, second, where):
    path = tmp_path / "fixture.jsonl"
    path.write_text('{"title": "A", "summary": "A is a city."}\n' + second + "\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: {where}")):
        enrich.load_fixture(path)


@pytest.mark.parametrize("summary", ["", "   ", "\n\t"], ids=["empty", "spaces", "newline-tab"])
def test_fixture_blank_summary_names_file_line_and_field(tmp_path, summary):
    path = tmp_path / "fixture.jsonl"
    lines = [{"title": "A", "summary": "A is a city."}, {"title": "B", "summary": summary}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 2: summary is blank")):
        enrich.load_fixture(path)


def test_unknown_mode_rejected(tmp_path):
    client, _ = _client(tmp_path, FakeTransport([]))
    with pytest.raises(ValueError):
        client.fetch_description("Ferguson", mode="bogus")


# ---------------------------------------------------------------------------
# attention-based fusion
# ---------------------------------------------------------------------------


def _tensor(gen, shape):
    return T.Tensor(gen.normal(size=shape))


def test_enhance_single_description():
    d = 3
    r_t = T.Tensor(np.array([[0.5, -0.2, 0.1]]))
    row = np.array([1.0, 2.0, 3.0])
    m_d = T.Tensor(row[None, None, :])
    att = description_attention(r_t, m_d, [1])
    np.testing.assert_allclose(att.data, [[1.0]])
    w_t = T.Param("w_t", np.zeros((d, d)))
    w_d = T.Param("w_d", np.eye(d))
    out = enrich.enhance(r_t, m_d, [1], w_t, w_d)
    np.testing.assert_allclose(out.data, [row])  # pooled row passes straight through


def test_enhance_identical_rows_split_attention():
    r_t = T.Tensor(np.array([[1.0, 0.0]]))
    m_d = T.Tensor(np.array([[[2.0, 1.0], [2.0, 1.0]]]))
    att = description_attention(r_t, m_d, [2])
    np.testing.assert_allclose(att.data, [[0.5, 0.5]])


def _oracle_enhance(r_t, m, w_t, w_d):
    # plain-python evaluation: attention, row scaling, row mean, additive fusion
    n_e, d = len(m), len(r_t)
    logits = [sum(m[i][k] * r_t[k] for k in range(d)) for i in range(n_e)]
    mx = max(logits)
    exps = [math.exp(v - mx) for v in logits]
    total = sum(exps)
    att = [v / total for v in exps]
    pooled = [sum(att[i] * m[i][k] for i in range(n_e)) / n_e for k in range(d)]
    return [
        sum(w_t[r][k] * r_t[k] for k in range(d)) + sum(w_d[r][k] * pooled[k] for k in range(d))
        for r in range(d)
    ]


def test_enhance_matches_brute_force_oracle():
    gen = Rng(21).stream("enhance-oracle")
    for _ in range(10):
        d, n_e = 4, 3
        r_t = gen.normal(size=d)
        m = gen.normal(size=(n_e, d))
        w_t = gen.normal(size=(d, d))
        w_d = gen.normal(size=(d, d))
        out = enrich.enhance(
            T.Tensor(r_t[None]), T.Tensor(m[None]), [n_e], T.Param("w_t", w_t), T.Param("w_d", w_d)
        )
        expected = _oracle_enhance(r_t.tolist(), m.tolist(), w_t.tolist(), w_d.tolist())
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_enhance_ragged_batch_matches_oracle_per_item():
    """Padded rows are ignored and each item pools over its own count."""
    gen = Rng(26).stream("enhance-ragged")
    d, counts = 4, [3, 1, 2]
    r_t = gen.normal(size=(3, d))
    m = gen.normal(size=(3, 3, d))  # rows past an item's count are junk padding
    w_t = gen.normal(size=(d, d))
    w_d = gen.normal(size=(d, d))
    out = enrich.enhance(
        T.Tensor(r_t), T.Tensor(m), counts, T.Param("w_t", w_t), T.Param("w_d", w_d)
    )
    for b, n in enumerate(counts):
        expected = _oracle_enhance(r_t[b].tolist(), m[b, :n].tolist(), w_t.tolist(), w_d.tolist())
        np.testing.assert_allclose(out.data[b], expected, atol=1e-12)


def test_enhance_zero_descriptions_bypass():
    gen = Rng(22).stream("enhance-bypass")
    r_t = gen.normal(size=(2, 4))
    w_t = T.Param("w_t", gen.normal(size=(4, 4)))
    w_d = T.Param("w_d", gen.normal(size=(4, 4)))
    out = enrich.enhance(T.Tensor(r_t), None, [0, 0], w_t, w_d)
    np.testing.assert_allclose(out.data, r_t @ w_t.data.T)
    # an item without descriptions next to one with them: exactly the text projection
    m = T.Tensor(gen.normal(size=(2, 2, 4)))
    mixed = enrich.enhance(T.Tensor(r_t), m, [0, 2], w_t, w_d)
    assert np.all(np.isfinite(mixed.data))
    np.testing.assert_array_equal(mixed.data[0], out.data[0])


def test_enhance_attention_is_a_distribution():
    gen = Rng(23).stream("enhance-dist")
    for _ in range(50):
        n_e = int(gen.integers(1, 5))
        att = description_attention(
            _tensor(gen, (1, 6)), _tensor(gen, (1, n_e, 6)), [n_e]
        ).data
        assert np.all(att >= 0)
        assert abs(att.sum() - 1.0) < 1e-9


def test_enhance_is_permutation_covariant():
    gen = Rng(24).stream("enhance-perm")
    r_t = _tensor(gen, (1, 5))
    m = gen.normal(size=(1, 4, 5))
    w_t = T.Param("w_t", gen.normal(size=(5, 5)))
    w_d = T.Param("w_d", gen.normal(size=(5, 5)))
    base = enrich.enhance(r_t, T.Tensor(m), [4], w_t, w_d).data
    perm = enrich.enhance(r_t, T.Tensor(m[:, [2, 0, 3, 1]]), [4], w_t, w_d).data
    np.testing.assert_allclose(perm, base, atol=1e-12)


def test_enhance_gradcheck():
    gen = Rng(25).stream("enhance-grad")
    d, n_e = 4, 3
    r_t = T.Param("r_t", gen.normal(size=(2, d)))
    m_d = T.Param("m_d", gen.normal(size=(2, n_e, d)))
    w_t = T.Param("w_t", gen.normal(size=(d, d)))
    w_d = T.Param("w_d", gen.normal(size=(d, d)))
    weights = gen.normal(size=(2, d))

    def f():
        out = enrich.enhance(r_t, m_d, [n_e, 2], w_t, w_d)
        return weighted_sum(out, weights)

    report = finite_diff_check(f, [r_t, m_d, w_t, w_d])
    assert report.max_rel_err < 1e-4


def description_attention(r_t, m_d, counts):
    """(B, D) distribution over each item's descriptions from their dot
    products with its text feature, on the tape; item b attends to its first
    counts[b] rows of m_d and gives the padding rows zero weight."""
    mask = np.arange(m_d.data.shape[1]) < np.asarray(counts)[:, None]
    return masked_softmax_rows(bmv(m_d, r_t), mask)


def _explicit_enhance(r_t, m_d, counts, w_t, w_d):
    """``enhance`` through the explicit attention map, op by op: the
    reference for its fused attention pool."""
    att = description_attention(r_t, m_d, counts)
    inv_count = T.Tensor(1.0 / np.maximum(counts, 1))
    pooled = scale_rows(bmv(transpose(m_d), att), inv_count)
    return T.add(T.matvec(w_t, r_t), T.matvec(w_d, pooled))


def test_enhance_matches_explicit_attention_and_oracle_with_an_item_without_descriptions():
    gen = Rng(27).stream("enhance-explicit")
    d, counts = 4, np.array([3, 0, 1])
    arrays = {
        "r_t": gen.normal(size=(3, d)), "m_d": gen.normal(size=(3, 3, d)),
        "w_t": gen.normal(size=(d, d)), "w_d": gen.normal(size=(d, d)),
    }
    weights = gen.normal(size=(3, d))
    results = []
    for build in (enrich.enhance, _explicit_enhance):
        params = {name: T.Param(name, a) for name, a in arrays.items()}
        out = build(params["r_t"], params["m_d"], counts, params["w_t"], params["w_d"])
        weighted_sum(out, weights).backward()
        results.append([out.data] + [params[name].grad for name in arrays])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    out, m_grad = results[0][0], results[0][2]
    r_t, m, w_t, w_d = (arrays[name].tolist() for name in ("r_t", "m_d", "w_t", "w_d"))
    for b in (0, 2):
        np.testing.assert_allclose(out[b], _oracle_enhance(r_t[b], m[b][:counts[b]], w_t, w_d), atol=1e-12)
    np.testing.assert_allclose(out[1], [sum(w * x for w, x in zip(row, r_t[1])) for row in w_t], atol=1e-12)
    # padding rows, and every row of the item without descriptions, get no gradient
    assert np.all(m_grad[1] == 0.0) and np.all(m_grad[2, 1:] == 0.0)


def test_enhance_gradcheck_with_an_item_without_descriptions():
    gen = Rng(28).stream("enhance-grad-empty")
    d = 3
    r_t = T.Param("r_t", gen.normal(size=(3, d)))
    m_d = T.Param("m_d", gen.normal(size=(3, 2, d)))
    w_t = T.Param("w_t", gen.normal(size=(d, d)))
    w_d = T.Param("w_d", gen.normal(size=(d, d)))
    weights = gen.normal(size=(3, d))

    def f():
        return weighted_sum(enrich.enhance(r_t, m_d, [2, 0, 1], w_t, w_d), weights)

    assert finite_diff_check(f, [r_t, m_d, w_t, w_d]).max_rel_err < 1e-6
