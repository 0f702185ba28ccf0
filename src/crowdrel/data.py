"""Dataset types and file IO for instances, annotations, gold labels and scores.

Each input fact is checked in one place; a bad row is a DataError led by
its ``path:line``. ``_table`` reads every CSV table, checking its header
and row widths; ``_keyed_rows``, the one row loop of the id-keyed tables,
maps ids to indices and rejects an unknown id, a repeated key or a bad
value. ``Instance`` checks that features are a 1-D array of numbers and
texts are strings, ``feature_matrix`` that dense instances stack,
``AnnotationSet`` its ids and indices, and ``validate`` that the parts
join by instance id. ``check`` tests a setting's value against its
``Rule`` and ``parse`` reads its text. Every artifact is written through
``whole_file``, so it appears whole or not at all.

External ids are arbitrary strings; everything downstream works on dense
0-based integer indices, their positions in an id tuple. An
``AnnotationSet``'s N and M are the lengths of its instance and annotator
ids; the readers of annotations and gold labels take the instance ids they
must match, those of the instances file. Gold labels and
predictions in memory are (N,) arrays of label indices, -1 where an
instance has none; ``write_gold`` writes either. All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np


class DataError(ValueError):
    """Bad input: a value from outside the program failed the check that raised it.

    The one exception type for bad files, config values and library
    arguments; its message names the fault. The CLI maps it to exit code 1.
    """


class Rule(NamedTuple):
    """A setting's rule: its value's type, what else it must be, in words, and the test."""

    type: type
    text: str
    test: Callable[[Any], bool]


NON_NEGATIVE = Rule(int, ">= 0", lambda value: value >= 0)
AT_LEAST_1 = Rule(int, ">= 1", lambda value: value >= 1)
LABEL_COUNT = Rule(int, ">= 2", lambda value: value >= 2)  # as a LabelSet needs
PROBABILITY = Rule(float, "in [0, 1]", lambda p: 0.0 <= p <= 1.0)  # NaN fails it
TEXT = Rule(str, "non-empty", bool)
ANY_FLOAT = Rule(float, "a float", lambda value: True)

# a rule's type -> the values it admits: numpy scalars too, but a bool is no number
_ADMITS = {int: Integral, float: Real, str: str}


def one_of(choices) -> Rule:
    return Rule(str, f"one of {tuple(choices)}", tuple(choices).__contains__)


def check(name: str, value, rule: Rule):
    """``value`` if it is of ``rule``'s type and passes its test; else a DataError:
    "<name> must be of type <type>, got <value>" or "<name> must be <text>, got <value>"."""
    if isinstance(value, bool) or not isinstance(value, _ADMITS[rule.type]):
        raise DataError(f"{name} must be of type {rule.type.__name__}, got {value!r}")
    if not rule.test(value):
        raise DataError(f"{name} must be {rule.text}, got {value!r}")
    return value


def parse(name: str, text: str, rule: Rule):
    """``text`` read as ``rule``'s type, if that passes ``check``; else a DataError."""
    try:
        value = rule.type(text)
    except ValueError:
        raise DataError(f"cannot parse {text!r} as {rule.type.__name__}") from None
    return check(name, value, rule)


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of category names; index positions are stable."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise DataError(f"need at least 2 labels, got {len(self.labels)}")
        if "" in self.labels:
            position = self.labels.index("")
            raise DataError(f"label {position} of {list(self.labels)} is an empty name")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate label names")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise DataError(f"unknown label {label!r}; expected one of {list(self.labels)}") from None


@dataclass(frozen=True)
class Instance:
    """A single data point: either a dense feature vector or raw text.

    ``text2`` holds the second sentence of pair-structured text instances;
    it is None for everything else.
    """

    id: str
    features: np.ndarray | None = None
    text: str | None = None
    text2: str | None = None

    def __post_init__(self) -> None:
        if (self.features is None) == (self.text is None):
            raise DataError(f"instance {self.id!r}: exactly one of features/text required")
        if self.features is not None:
            features = np.asarray(self.features)
            if features.ndim != 1:
                raise DataError(f"instance {self.id!r}: features must be 1-D, "
                                f"got shape {features.shape}")
            if features.dtype.kind not in "iuf":
                raise DataError(f"instance {self.id!r}: features must be numbers, "
                                f"got dtype {features.dtype}")
        for name in ("text", "text2"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise DataError(f"instance {self.id!r}: {name} must be a str, got {value!r}")


@dataclass(frozen=True)
class AnnotationSet:
    """Sparse annotation triples (instance, annotator, label) as index arrays.

    The one source of its sizes: N and M are the lengths of ``instance_ids``
    and ``annotator_ids``, K is ``n_labels``. Construction raises DataError
    unless each id tuple holds distinct ids, each index array is 1-D and of
    an integer type (or empty), every index lies in [0, N), [0, M) or
    [0, K) and each (instance, annotator) pair occurs at most once.
    Indices refer to positions in ``instance_ids`` / ``annotator_ids`` / the label set.
    """

    instance_ids: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    n_labels: int
    instance_idx: np.ndarray
    annotator_idx: np.ndarray
    label_idx: np.ndarray

    def __post_init__(self) -> None:
        for name in ("instance_ids", "annotator_ids"):
            ids = tuple(getattr(self, name))
            object.__setattr__(self, name, ids)
            if len(set(ids)) != len(ids):
                repeated = next(v for k, v in enumerate(ids) if v in ids[:k])
                raise DataError(f"{name} repeats id {repeated!r}")
        for name, size in (("instance_idx", self.n_instances),
                           ("annotator_idx", self.n_annotators), ("label_idx", self.n_labels)):
            raw = np.asarray(getattr(self, name))
            if raw.ndim != 1:
                raise DataError(f"{name} must be 1-D, got shape {raw.shape}")
            if raw.size and not np.issubdtype(raw.dtype, np.integer):
                raise DataError(f"{name} must hold integers, got dtype {raw.dtype}")
            arr = raw.astype(np.int64)  # own copy, frozen below
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
            bad = np.flatnonzero((arr < 0) | (arr >= size))
            if bad.size:
                raise DataError(f"{name}[{bad[0]}] = {arr[bad[0]]} is outside [0, {size})")
        p = len(self.instance_idx)
        if len(self.annotator_idx) != p or len(self.label_idx) != p:
            raise DataError("triple arrays must have equal length")
        keys = np.sort(self.instance_idx * self.n_annotators + self.annotator_idx)
        if np.any(keys[1:] == keys[:-1]):
            raise DataError("duplicate (instance, annotator) pair")

    @property
    def n_instances(self) -> int:
        return len(self.instance_ids)

    @property
    def n_annotators(self) -> int:
        return len(self.annotator_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.instance_idx)

    def triples(self) -> list[tuple[int, int, int]]:
        """(instance, annotator, label) per pair; kept only for ``perfbench/run.py``."""
        return list(zip(self.instance_idx.tolist(), self.annotator_idx.tolist(), self.label_idx.tolist()))

    def counts_per_instance(self) -> np.ndarray:
        return np.bincount(self.instance_idx, minlength=self.n_instances)


@dataclass(frozen=True)
class GoldLabels:
    """Partial map instance index -> label index, as ``load_gold`` returns it.

    Everything past the reader takes the (N,) array of ``to_array``. The
    map remains only because ``perfbench/run.py`` reads ``by_index``; once
    the benchmark reads arrays, ``load_gold`` can return one.
    """

    by_index: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.by_index)

    def to_array(self, n_instances: int) -> np.ndarray:
        """Label index per instance, -1 where it has no gold label."""
        out = np.full(n_instances, -1, dtype=np.int64)
        for i, t in self.by_index.items():
            out[i] = t
        return out


def one_per(values, n: int, what: str, per: str, dtype=None) -> np.ndarray:
    """``values`` as an (n,) array, one ``what`` per ``per``; else a DataError naming both counts."""
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (n,):
        got = len(arr) if arr.ndim == 1 else f"shape {arr.shape}"
        raise DataError(f"need {n} {what}, one per {per}; got {got}")
    return arr


def label_indices(values, n: int, k: int | None, per: str = "instance", name: str = "gold",
                  what: str = "gold labels") -> np.ndarray:
    """``values`` as (n,) int64 label indices, -1 where there is none; else a DataError.

    ``one_per`` checks the count (naming ``what`` and ``per``); the entries
    must be integers in [-1, k), and with ``k`` None only >= -1. The first
    entry out of range is named as ``name[i]``.
    """
    arr = one_per(values, n, what, per)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"{what} must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    bad = np.flatnonzero((arr < -1) | (arr >= (np.inf if k is None else k)))
    if bad.size:
        labels = "labels" if k is None else f"{k} labels"
        raise DataError(f"{name}[{bad[0]}] = {arr[bad[0]]} is not one of the {labels}")
    return arr


def _at(path: str | Path, line: int, exc: ValueError) -> DataError:
    """A DataError with ``exc``'s message, led by the ``path:line`` of the row that raised it."""
    return DataError(f"{path}:{line}: {exc}")


def parse_floats(texts: Sequence[str], path: str | Path, line: int) -> np.ndarray:
    """``texts`` read as a float64 array; else the DataError of ``parse`` for the first
    that is no float, led by ``path:line``. Only a row that fails goes through the slower
    ``parse``. A non-finite value is read, for the caller to name."""
    try:
        return np.array([float(v) for v in texts], dtype=np.float64)
    except ValueError:
        try:
            for text in texts:
                parse("value", text, ANY_FLOAT)
        except DataError as exc:
            raise _at(path, line, exc) from None
        raise


def _table(path: str | Path, header: Sequence[str],
           more: bool = False) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) for each non-blank row below a CSV table's header.

    The header must be ``header`` or, with ``more``, begin with it and name
    at least one further column. Every row must be as wide as the header.
    An empty file yields nothing.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            return
        if found[:len(header)] != list(header) or (len(found) > len(header)) != more:
            raise DataError(f"{path}: header must be {','.join(header)}{',...' if more else ''}")
        width = len(found)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise DataError(
                    f"{path}:{reader.line_num}: expected {width} columns, got {len(row)}")
            yield reader.line_num, row


@contextmanager
def whole_file(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file to write ``path`` through: a temporary file in the same directory,
    which replaces ``path`` when the block ends and is removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table: ``header``, then one line per row."""
    with whole_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


INSTANCE_FORMAT = one_of(("dense-csv", "text-jsonl"))


def load_instances(path: str | Path, format: str) -> list[Instance]:
    """Load instances from ``dense-csv`` (header id,x0,x1,...) or ``text-jsonl``.

    Dense rows must all have the header's width, and each text line must be
    an object with a string ``id`` and a string ``text`` (and, optionally,
    a string ``text2``); an ``id`` of another JSON type is not converted.
    Malformed rows or lines, non-finite features and repeated ids raise
    DataError naming the file and line. An empty file yields an empty list.
    """
    check("format", format, INSTANCE_FORMAT)
    seen: set[str] = set()

    def new_id(key: str, line: int) -> str:
        if key in seen:
            raise DataError(f"{path}:{line}: duplicate instance id {key!r}")
        seen.add(key)
        return key

    if format == "dense-csv":
        instances = []
        for line, row in _table(path, ("id",), more=True):
            vec = parse_floats(row[1:], path, line)
            if not np.all(np.isfinite(vec)):
                raise _at(path, line, DataError(f"non-finite feature value in instance {row[0]!r}"))
            instances.append(Instance(id=new_id(row[0], line), features=vec))
        return instances
    instances = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise DataError(f"{path}:{lineno}: each line must be a JSON object "
                                "with 'id' and 'text'")
            key, text, text2 = obj["id"], obj["text"], obj.get("text2")
            if not all(isinstance(v, str) for v in (key, text, obj.get("text2", ""))):
                raise DataError(f"{path}:{lineno}: 'id', 'text' and 'text2' must be strings")
            instances.append(Instance(id=new_id(key, lineno), text=text, text2=text2))
    return instances


def write_instances(path: str | Path, instances: Sequence[Instance]) -> None:
    """Write dense-feature instances as CSV (inverse of dense-csv loading): the rows of
    ``feature_matrix``, so instances it refuses are a DataError before the file is opened."""
    x = feature_matrix(instances)
    write_table(path, ["id"] + [f"x{k}" for k in range(x.shape[1])],
                ([inst.id] + list(map(repr, row)) for inst, row in zip(instances, x.tolist())))


def write_instances_jsonl(path: str | Path, instances: Sequence[Instance]) -> None:
    with whole_file(path) as fh:
        for inst in instances:
            if inst.text is None:
                raise DataError(f"instance {inst.id!r} has no text payload")
            obj: dict[str, str] = {"id": inst.id, "text": inst.text}
            if inst.text2 is not None:
                obj["text2"] = inst.text2
            fh.write(json.dumps(obj) + "\n")


def _positions(ids: Iterable[str]) -> dict[str, int]:
    return {v: i for i, v in enumerate(ids)}


class _Numbering(dict):
    """Id -> index map that gives an id it lacks the next index."""

    def __missing__(self, key: str) -> int:
        self[key] = len(self)
        return self[key]


def _keyed_rows(path: str | Path, header: Sequence[str], positions: Sequence[dict[str, int]],
                what: str, value: Callable[[str], Any],
                only: Container[tuple[int, ...]] | None = None) -> dict[tuple[int, ...], Any]:
    """An id-keyed table's rows as {key: value}, in file order. ``header`` names the id
    columns, then the value column; a key holds each id's index in its column's map in
    ``positions`` (a ``_Numbering`` grows). ``value`` reads the value column. An unknown id,
    a key outside ``only`` (when given: the annotated pairs), a repeated key and a value
    ``value`` rejects are DataErrors led by ``path:line``."""
    found: dict[tuple[int, ...], Any] = {}
    for line, row in _table(path, header):
        try:
            try:
                key = tuple(map(dict.__getitem__, positions, row))  # each id's index
            except KeyError:
                c = next(c for c, seen in enumerate(positions) if row[c] not in seen)
                raise DataError(f"unknown {header[c].removesuffix('_id')} id {row[c]!r}") from None
            if only is not None and key not in only:
                raise DataError(f"no annotation for instance {row[0]!r} by {row[1]!r}")
            if key in found:
                raise DataError(f"duplicate {what} for instance {' by '.join(map(repr, row[:-1]))}")
            found[key] = value(row[-1])
        except DataError as exc:
            raise _at(path, line, exc) from None
    return found


ANNOTATIONS_HEADER = ("instance_id", "annotator_id", "label")
GOLD_HEADER = ("instance_id", "label")
SCORES_HEADER = ("instance_id", "annotator_id", "score")


def load_annotations(path: str | Path, label_set: LabelSet, instance_ids: Sequence[str],
                     annotator_ids: Sequence[str] | None = None) -> AnnotationSet:
    """Load annotation triples from CSV with header instance_id,annotator_id,label. Ids
    index into ``instance_ids`` and, when it is given, ``annotator_ids``, else annotators
    number in first-occurrence order. An unknown id, a repeated (instance, annotator) pair
    and a label outside ``label_set`` are DataErrors naming the file and line."""
    ann_pos = _Numbering() if annotator_ids is None else _positions(annotator_ids)
    found = _keyed_rows(path, ANNOTATIONS_HEADER, (_positions(instance_ids), ann_pos),
                        "annotation", label_set.index)
    pairs = np.array(list(found), dtype=np.int64).reshape(-1, 2)
    return AnnotationSet(instance_ids, ann_pos if annotator_ids is None else annotator_ids,
                         len(label_set), pairs[:, 0], pairs[:, 1],
                         np.array(list(found.values()), dtype=np.int64))


def _pair_ids(annotations: AnnotationSet) -> tuple[np.ndarray, np.ndarray]:
    """The instance id and the annotator id of each pair, as two (P,) object arrays."""
    return (np.array(annotations.instance_ids, dtype=object)[annotations.instance_idx],
            np.array(annotations.annotator_ids, dtype=object)[annotations.annotator_idx])


def write_annotations(path: str | Path, annotations: AnnotationSet, label_set: LabelSet) -> None:
    labels = np.array(label_set.labels, dtype=object)[annotations.label_idx]
    write_table(path, ANNOTATIONS_HEADER, zip(*_pair_ids(annotations), labels))


def load_gold(path: str | Path, label_set: LabelSet, instance_ids: Sequence[str]) -> GoldLabels:
    """Load gold labels from CSV with header instance_id,label (at most one row per
    instance), each instance id one of ``instance_ids``."""
    found = _keyed_rows(path, GOLD_HEADER, (_positions(instance_ids),), "gold label",
                        label_set.index)
    return GoldLabels(by_index={i: t for (i,), t in found.items()})


def write_gold(path: str | Path, gold: np.ndarray, label_set: LabelSet,
               instance_ids: Sequence[str]) -> None:
    """Write gold labels or predictions: a row for each entry >= 0 of ``gold``, in index order."""
    # checked before the file is opened, so a misfit writes nothing
    gold = label_indices(gold, len(instance_ids), len(label_set), per="instance id",
                         name="labels", what="labels")
    write_table(path, GOLD_HEADER, ([instance_ids[i], label_set.labels[t]]
                                    for i, t in enumerate(gold.tolist()) if t >= 0))


def _score(text: str) -> float:
    """``text`` read with ``float``, if that gives a probability; else the DataError of the
    slower ``parse``, which only a value that fails goes through."""
    try:
        value = float(text)
        if 0.0 <= value <= 1.0:
            return value
    except ValueError:
        pass
    return parse("score", text, PROBABILITY)


def load_scores(path: str | Path, annotations: AnnotationSet) -> np.ndarray:
    """Load one score per annotation from CSV with header instance_id,annotator_id,score,
    in the pair order of ``annotations``. A row naming a pair ``annotations`` does not hold
    and a score that is no probability are DataErrors, as is a pair with no row."""
    pairs = list(zip(annotations.instance_idx.tolist(), annotations.annotator_idx.tolist()))
    found = _keyed_rows(path, SCORES_HEADER, (_positions(annotations.instance_ids),
                                              _positions(annotations.annotator_ids)),
                        "score", _score, only=set(pairs))
    if len(found) < len(pairs):  # found holds no key outside pairs
        i, j = next(pair for pair in pairs if pair not in found)
        raise DataError(f"{path}: missing score for pair ({annotations.instance_ids[i]}, "
                        f"{annotations.annotator_ids[j]})")
    return np.array([found[pair] for pair in pairs], dtype=np.float64)


def write_scores(path: str | Path, annotations: AnnotationSet, scores: np.ndarray) -> None:
    """Write one score per annotation (inverse of ``load_scores``)."""
    scores = one_per(scores, annotations.n_pairs, "scores", "annotation", np.float64)
    write_table(path, SCORES_HEADER, zip(*_pair_ids(annotations), map(repr, scores.tolist())))


def validate(
    instances: Sequence[Instance],
    annotations: AnnotationSet,
    gold: GoldLabels | None = None,
) -> list[str]:
    """Cross-check a dataset; returns a list of violations (empty means valid): one payload
    kind, dense features that stack and are finite, annotations on the instances' ids in
    their order, each instance annotated, and gold labels in range."""
    problems: list[str] = []
    n = len(instances)
    if n == 0:
        problems.append("dataset has no instances")
    dense = [inst for inst in instances if inst.features is not None]
    if 0 < len(dense) < n:
        problems.append("mixed payload kinds: some instances have features, some have text")
    if dense:
        try:
            x = feature_matrix(dense)
        except DataError as exc:
            problems.append(str(exc))
        else:
            for k in np.flatnonzero(~np.isfinite(x).all(axis=1)):
                problems.append(f"non-finite feature value in instance {dense[k].id!r}")
    ids = tuple(inst.id for inst in instances)
    if annotations.n_instances != n:
        problems.append(f"annotation set covers {annotations.n_instances} instances, dataset has {n}")
    elif annotations.instance_ids != ids:
        k = next(k for k, (a, b) in enumerate(zip(annotations.instance_ids, ids)) if a != b)
        problems.append(f"annotation set's instance {k} is {annotations.instance_ids[k]!r}, "
                        f"the dataset's is {ids[k]!r}")
    else:
        for i in np.flatnonzero(annotations.counts_per_instance() == 0):
            problems.append(f"instance {ids[i]!r} has no annotations")
    if gold is not None:
        for i, t in gold.by_index.items():
            if not 0 <= i < n:
                problems.append(f"gold label references instance index {i} of {n}")
            if not 0 <= t < annotations.n_labels:
                problems.append(f"gold label index {t} out of range")
    return problems


def feature_matrix(instances: Iterable[Instance]) -> np.ndarray:
    """Stack dense instance features into an (N, d) float64 matrix: the one check that
    instances stack. Each must have features, all of one width d >= 1, so N >= 1; else
    DataError."""
    instances = list(instances)
    bare = next((inst.id for inst in instances if inst.features is None), None)
    if bare is not None:
        raise DataError(f"instance {bare!r} has no dense features; featurize text first")
    widths = sorted({len(inst.features) for inst in instances})  # type: ignore[arg-type]
    if len(widths) != 1 or widths[0] == 0:
        raise DataError(f"dense instances need one width of at least 1 feature, got {widths}")
    return np.array([inst.features for inst in instances], dtype=np.float64)
