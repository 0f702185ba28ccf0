import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdrel.data import DataError, Instance
from crowdrel.featurize import (
    EmbeddingTable,
    average_embed,
    concat_average_embed,
    features,
    fit_tfidf,
    load_embeddings,
    tokenize,
    transform_tfidf,
)


class TestFitTfidf:
    def test_counts(self):
        vocab = fit_tfidf(["a b", "b c"])
        assert set(vocab.index) == {"a", "b", "c"}
        assert vocab.doc_freq[vocab.index["b"]] == 2
        assert vocab.n_documents == 2

    def test_idf_of_everywhere_token_is_one(self):
        vocab = fit_tfidf(["a b", "b c"])
        assert vocab.idf[vocab.index["b"]] == pytest.approx(1.0)

    def test_single_document_idfs(self):
        vocab = fit_tfidf(["x y z"])
        np.testing.assert_allclose(vocab.idf, 1.0)

    def test_empty_corpus_errors(self):
        with pytest.raises(DataError, match="empty corpus"):
            fit_tfidf([])
        with pytest.raises(DataError, match="corpus contains no tokens"):
            fit_tfidf(["", "?!"])

    def test_index_follows_first_occurrence(self):
        words = ("river delta flood plain sediment basin tide estuary marsh reed "
                 "heron willow current bank ford meander oxbow silt levee channel").split()
        # repeats inside the document must not move a token's column
        text = " ".join(words[:10] + words[2:7] + words[10:] + words[::3])
        vocab = fit_tfidf([text, "channel weir river"])
        assert vocab.index == {w: n for n, w in enumerate(words + ["weir"])}
        assert vocab.doc_freq.tolist() == [2] + [1] * 18 + [2, 1]

    def test_tokenizer_lowercases_and_splits(self):
        assert tokenize("Where is the Orinoco?") == ["where", "is", "the", "orinoco"]
        assert tokenize("a-b  c3") == ["a", "b", "c3"]


class TestTransformTfidf:
    def test_out_of_vocab_gives_zero_vector(self):
        vocab = fit_tfidf(["a b", "b c"])
        assert np.all(transform_tfidf(vocab, "zzz qqq") == 0.0)

    def test_single_active_coordinate(self):
        vocab = fit_tfidf(["a b", "b c"])
        vec = transform_tfidf(vocab, "b b")
        assert np.count_nonzero(vec) == 1
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_hand_computed_two_token_vector(self):
        vocab = fit_tfidf(["a b", "b c"])
        vec = transform_tfidf(vocab, "a b")
        idf_a = math.log(3.0 / 2.0) + 1.0
        raw = np.zeros(3)
        raw[vocab.index["a"]] = 1.0 * idf_a
        raw[vocab.index["b"]] = 1.0 * 1.0
        np.testing.assert_allclose(vec, raw / np.linalg.norm(raw), atol=1e-12)

    @given(st.lists(st.text(alphabet="abcxyz ", max_size=20), min_size=1, max_size=6),
           st.text(alphabet="abcxyz ", max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_zero_or_one(self, corpus, text):
        if not any(tokenize(doc) for doc in corpus):
            corpus = corpus + ["abc"]
        vocab = fit_tfidf(corpus)
        norm = float(np.linalg.norm(transform_tfidf(vocab, text)))
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9


class TestEmbeddings:
    def test_load_two_rows(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0 2.0\ndog 0.5 0.5 0.5\n")
        table = load_embeddings(path)
        assert len(table) == 2 and table.dim == 3

    def test_ragged_line_errors(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ndog 0.5\n")
        with pytest.raises(ValueError, match="expected 2 components"):
            load_embeddings(path)

    @pytest.mark.parametrize("row, fault", [
        ("tok 1.0 abc", "cannot parse 'abc' as float"),
        ("tok inf abc", "cannot parse 'abc' as float"),
        ("tok 1.0 inf", "non-finite embedding value"),
        ("tok nan 1.0", "non-finite embedding value"),
    ], ids=["no-float", "no-float-after-inf", "inf", "nan"])
    def test_bad_value_names_file_and_line(self, tmp_path, row, fault):
        path = tmp_path / "e.txt"
        path.write_text(row + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:1: {fault}$"):
            load_embeddings(path)

    def test_duplicate_token_last_wins_with_warning(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ncat 9.0 9.0\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_embeddings(path)
        np.testing.assert_allclose(table.vectors["cat"], [9.0, 9.0])

    def test_average_single_token_is_identity(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        table = load_embeddings(path)
        np.testing.assert_allclose(average_embed(table, "cat"), [1.0, 2.0])

    def test_average_of_two(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        table = load_embeddings(path)
        np.testing.assert_allclose(average_embed(table, "cat dog"), [2.0, 3.0])

    def test_no_known_tokens_gives_zeros(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\n")
        table = load_embeddings(path)
        np.testing.assert_allclose(average_embed(table, "bird fish"), [0.0, 0.0])

    def test_concat_pairs(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        table = load_embeddings(path)
        np.testing.assert_allclose(concat_average_embed(table, "cat", "dog"),
                                   [1.0, 2.0, 3.0, 4.0])

    @given(tokens=st.permutations(["cat", "dog", "cat", "bird"]))
    @settings(max_examples=24, deadline=None)
    def test_average_is_order_invariant(self, tokens):
        table = EmbeddingTable(vectors={"cat": np.array([1.0, 2.0]),
                                        "dog": np.array([-1.0, 0.5])}, dim=2)
        base = average_embed(table, "cat dog cat bird")
        np.testing.assert_allclose(average_embed(table, " ".join(tokens)), base, atol=1e-12)


def test_unknown_featurizer_is_named():
    with pytest.raises(DataError, match=r"^featurizer must be one of \('none', 'tfidf', "
                                        r"'avg-embed', 'concat-avg-embed'\), got 'glove'$"):
        features("glove", [Instance("a", text="words")], None)
