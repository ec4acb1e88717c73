import numpy as np
import pytest

from mmfnd import encoders as enc
from mmfnd import tensor as T
from mmfnd.gradcheck import finite_diff_check
from mmfnd.rng import Rng


def test_tokenize_lowercases_and_splits_punctuation():
    assert enc.tokenize("Hello, World!  It's 2-fold.") == ["hello", "world", "it", "s", "2", "fold"]


def test_vocabulary_is_deterministic_and_reserves_oov():
    v1 = enc.Vocabulary.build(["b a", "c a"])
    v2 = enc.Vocabulary.build(["c a", "b a"])
    assert v1.tokens == v2.tokens == ["a", "b", "c"]
    assert v1.id_of["a"] == 1
    seq = v1.encode("a zzz b", max_len=5)
    assert seq.ids[:3] == [1, enc.OOV_ID, 2]
    assert seq.mask == [True, True, True, False, False]


def test_encode_truncates_to_max_len():
    v = enc.Vocabulary.build(["a b c d e"])
    seq = v.encode("a b c d e", max_len=3)
    assert len(seq.ids) == 3 and all(seq.mask)


def _identity_params(d, vocab_size):
    emb = T.Param("emb", np.zeros((vocab_size, d)))
    proj = T.Param("w", np.eye(d))
    return emb, proj


def _encode_text(emb, proj, seqs):
    """The model's text path: mean-pooled token rows, then the projection."""
    return T.matvec(proj, enc.embed_rows(emb, seqs, (len(seqs),)))


def test_encode_text_identity_weights_single_token():
    emb, proj = _identity_params(3, 4)
    emb.data[2] = [5.0, 6.0, 7.0]
    seq = enc.TokenSequence(ids=[2, 0], mask=[True, False])
    out = _encode_text(emb, proj, [seq])
    np.testing.assert_array_equal(out.data, [[5.0, 6.0, 7.0]])


def test_encode_text_mean_pools_two_tokens():
    emb, proj = _identity_params(2, 4)
    emb.data[1] = [2.0, 0.0]
    emb.data[3] = [0.0, 4.0]
    seq = enc.TokenSequence(ids=[1, 3], mask=[True, True])
    out = _encode_text(emb, proj, [seq])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_all_padding_sequence_rejected():
    emb, proj = _identity_params(2, 4)
    seq = enc.TokenSequence(ids=[0, 0], mask=[False, False])
    with pytest.raises(enc.EmptyTextError):
        _encode_text(emb, proj, [seq])


def test_bag_of_ids_counts_repeats_and_leaves_empty_slots_zero():
    seq = enc.TokenSequence(ids=[3, 1, 3, 0], mask=[True, True, True, False])
    bag = enc.bag_of_ids([seq, None], 5)
    np.testing.assert_allclose(bag, [[0.0, 1 / 3, 0.0, 2 / 3, 0.0], [0.0] * 5], atol=1e-15)


def test_embed_rows_mixes_token_precomputed_and_padding_slots():
    emb, _ = _identity_params(2, 4)
    emb.data[1] = [2.0, 0.0]
    slots = [enc.TokenSequence(ids=[1], mask=[True]), np.array([7.0, 8.0]), None, None]
    out = enc.embed_rows(emb, slots, (2, 2))
    np.testing.assert_array_equal(out.data, [[[2.0, 0.0], [7.0, 8.0]], [[0.0, 0.0], [0.0, 0.0]]])


def test_encode_image_basis_extraction():
    w = T.Param("w_vf", np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]]))
    out = enc.encode_image(w, T.Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])


def test_encode_image_dim_mismatch():
    w = T.Param("w_vf", np.ones((3, 2)))
    with pytest.raises(T.ShapeError):
        enc.encode_image(w, T.Tensor(np.ones((1, 5))))


def test_encoders_deterministic():
    gen = Rng(5).stream("enc")
    emb = T.Param("emb", gen.normal(size=(6, 4)))
    proj = T.Param("w", gen.normal(size=(4, 4)))
    seq = enc.TokenSequence(ids=[1, 2, 5], mask=[True, True, True])
    a = _encode_text(emb, proj, [seq]).data
    b = _encode_text(emb, proj, [seq]).data
    np.testing.assert_array_equal(a, b)


def test_gradcheck_through_text_and_image_encoders():
    gen = Rng(9).stream("enc-grad")
    emb = T.Param("emb", gen.normal(size=(6, 4)))
    w_tf = T.Param("w_tf", gen.normal(size=(4, 4)))
    w_vf = T.Param("w_vf", gen.normal(size=(4, 3)))
    w_df = T.Param("w_df", gen.normal(size=(4, 4)))
    seqs = [
        enc.TokenSequence(ids=[1, 2, 2, 5], mask=[True, True, True, True]),
        enc.TokenSequence(ids=[3, 0], mask=[True, False]),
    ]
    img = T.Tensor(gen.normal(size=(2, 3)))
    weights = gen.normal(size=(2, 4))
    desc_slots = [seqs[1], None, seqs[0], gen.normal(size=4)]
    desc_weights = gen.normal(size=(2, 2, 4))

    def f():
        r_t = _encode_text(emb, w_tf, seqs)
        r_v = enc.encode_image(w_vf, img)
        m_d = enc.encode_description(emb, w_df, desc_slots, (2, 2))
        return T.add(
            T.tsum(T.mul(T.add(r_t, r_v), T.Tensor(weights))),
            T.tsum(T.mul(m_d, T.Tensor(desc_weights))),
        )

    report = finite_diff_check(f, [emb, w_tf, w_vf, w_df])
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# precomputed embedding files
# ---------------------------------------------------------------------------


def test_precomputed_single_item_roundtrip(tmp_path):
    path = tmp_path / "emb.jsonl"
    items = {"a": enc.PrecomputedItem(image_vec=np.arange(4, dtype=np.float64))}
    enc.write_precomputed(path, items)
    loaded = enc.load_precomputed(path)
    assert list(loaded) == ["a"]
    np.testing.assert_array_equal(loaded["a"].image_vec, items["a"].image_vec)
    assert loaded["a"].text_vec is None
    assert loaded["a"].desc_vecs == []


def test_precomputed_missing_field_names_it(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(enc.EmbeddingFileError, match="image_vec"):
        enc.load_precomputed(path)


def test_precomputed_malformed_line_number(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "image_vec": [1.0]}\nnot json\n')
    with pytest.raises(enc.EmbeddingFileError, match="line 2"):
        enc.load_precomputed(path)


def test_precomputed_dimension_inconsistency(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        '{"id": "a", "image_vec": [1.0, 2.0]}\n{"id": "b", "image_vec": [1.0]}\n'
    )
    with pytest.raises(enc.EmbeddingFileError, match="line 2"):
        enc.load_precomputed(path)


def test_precomputed_duplicate_id(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        '{"id": "a", "image_vec": [1.0]}\n{"id": "a", "image_vec": [2.0]}\n'
    )
    with pytest.raises(enc.EmbeddingFileError, match="duplicate"):
        enc.load_precomputed(path)


def test_precomputed_hundred_items_bit_exact(tmp_path):
    gen = Rng(3).stream("precomp")
    items = {}
    for k in range(100):
        items[f"item-{k}"] = enc.PrecomputedItem(
            image_vec=gen.normal(size=8),
            text_vec=gen.normal(size=6),
            desc_vecs=[gen.normal(size=6) for _ in range(int(gen.integers(0, 3)))],
        )
    path = tmp_path / "emb.jsonl"
    enc.write_precomputed(path, items)
    loaded = enc.load_precomputed(path)
    assert list(loaded) == list(items)
    for key, item in items.items():
        got = loaded[key]
        np.testing.assert_array_equal(got.image_vec, item.image_vec)
        np.testing.assert_array_equal(got.text_vec, item.text_vec)
        assert len(got.desc_vecs) == len(item.desc_vecs)
        for a, b in zip(got.desc_vecs, item.desc_vecs):
            np.testing.assert_array_equal(a, b)
