"""Text featurization: tf-idf bag-of-words and averaged word embeddings.

Tokenization is lowercase with splits on non-alphanumeric runs. The idf
uses add-one smoothing, idf(t) = ln((1+n)/(1+df(t))) + 1, and tf-idf
vectors are L2-normalized when nonzero, so repeated runs are bit-stable.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data
from .data import DataError, Instance, check, one_of, parse_floats

# (classifier_hidden, estimator_hidden) defaults per text featurizer; "none" keeps TrainConfig's
HIDDEN_DEFAULTS = {"tfidf": (100, 100), "avg-embed": (50, 25), "concat-avg-embed": (100, 50)}
FEATURIZER = one_of(["none", *HIDDEN_DEFAULTS])  # the rule for the featurizer's name

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    index: dict[str, int]
    doc_freq: np.ndarray
    n_documents: int

    def __len__(self) -> int:
        return len(self.index)

    @property
    def idf(self) -> np.ndarray:
        return np.log((1.0 + self.n_documents) / (1.0 + self.doc_freq)) + 1.0


def fit_tfidf(corpus: list[str]) -> Vocabulary:
    """Build a vocabulary with document frequencies from a corpus of texts.

    Token indices follow first occurrence across the corpus. Raises
    DataError if the corpus is empty or contains no tokens at all.
    """
    if not corpus:
        raise DataError("empty corpus")
    index: dict[str, int] = {}
    df: list[int] = []
    for text in corpus:
        # dict.fromkeys, not set: a set's order depends on PYTHONHASHSEED
        for tok in dict.fromkeys(tokenize(text)):
            pos = index.get(tok)
            if pos is None:
                index[tok] = len(df)
                df.append(1)
            else:
                df[pos] += 1
    if not index:
        raise DataError("corpus contains no tokens")
    return Vocabulary(index=index, doc_freq=np.array(df, dtype=np.int64), n_documents=len(corpus))


def transform_tfidf(vocab: Vocabulary, text: str) -> np.ndarray:
    """tf * idf over the fitted vocabulary, L2-normalized when nonzero.

    Out-of-vocabulary tokens are ignored; a text with no known tokens maps
    to the zero vector.
    """
    vec = np.zeros(len(vocab), dtype=np.float64)
    for tok in tokenize(text):
        pos = vocab.index.get(tok)
        if pos is not None:
            vec[pos] += 1.0
    vec *= vocab.idf
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


@dataclass(frozen=True)
class EmbeddingTable:
    vectors: dict[str, np.ndarray]
    dim: int

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a whitespace-separated embedding file: one "token v1 ... vd" per line.

    All rows must share the same dimension; on duplicate tokens the last
    occurrence wins and a warning is emitted. A malformed or non-finite row
    is a DataError naming the file and line, and so is an empty file.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            tok, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise DataError(f"{path}:{lineno}: no vector components")
            elif len(values) != dim:
                raise DataError(
                    f"{path}:{lineno}: expected {dim} components, got {len(values)}")
            vec = parse_floats(values, path, lineno)
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite embedding value")
            if tok in vectors:
                warnings.warn(f"duplicate embedding for token {tok!r}; keeping the last occurrence")
            vectors[tok] = vec
    if dim is None:
        raise DataError(f"{path}: empty embedding file")
    return EmbeddingTable(vectors=vectors, dim=dim)


def average_embed(table: EmbeddingTable, text: str) -> np.ndarray:
    """Mean embedding of in-table tokens; zero vector if none are known."""
    hits = [table.vectors[t] for t in tokenize(text) if t in table.vectors]
    if not hits:
        return np.zeros(table.dim, dtype=np.float64)
    return np.mean(hits, axis=0)


def concat_average_embed(table: EmbeddingTable, text: str, text2: str) -> np.ndarray:
    """Concatenated average embeddings for pair-structured instances."""
    return np.concatenate([average_embed(table, text), average_embed(table, text2)])


def features(kind: str, instances: list[Instance], embeddings: str | Path | None) -> np.ndarray:
    """The (N, D) features of ``instances`` under featurizer ``kind``: the text featurizers
    need text instances, and the embedding ones the ``embeddings`` file."""
    if check("featurizer", kind, FEATURIZER) == "none":
        return data.feature_matrix(instances)
    dense = next((inst.id for inst in instances if inst.text is None), None)
    if dense is not None:
        raise DataError(f"featurizer {kind!r} needs text instances, but instance {dense!r} "
                        "has dense features (set instances_format = text-jsonl)")
    texts = [inst.text for inst in instances]
    if kind == "tfidf":
        try:
            vocab = fit_tfidf(texts)
        except DataError as exc:  # a corpus without a token
            raise DataError(f"featurizer 'tfidf': {exc}") from None
        return np.stack([transform_tfidf(vocab, t) for t in texts])
    if embeddings is None:
        raise DataError("missing config key 'embeddings'")
    table = load_embeddings(embeddings)
    if kind == "avg-embed":
        return np.stack([average_embed(table, t) for t in texts])
    return np.stack([concat_average_embed(table, inst.text, inst.text2 or "")
                     for inst in instances])
