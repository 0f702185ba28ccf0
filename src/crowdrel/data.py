"""Dataset types and file IO for instances, annotations, gold labels and scores.

Every CSV table, input or artifact, is read by ``_table`` and written by
``write_table``; a bad row is a DataError that names its ``path:line``.
Every artifact is written through ``whole_file``, so it appears whole or
not at all. ``check`` tests a setting's value against its ``Rule``.

External ids are arbitrary strings; everything downstream works on dense
0-based integer indices assigned at load time. Gold labels and
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
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np


class DataError(ValueError):
    """Bad input: a value from outside the program failed the check that raised it.

    The one exception type for bad files, config values and library
    arguments; its message names the fault. The CLI maps it to exit code 1.
    """


# a setting's rule: what its value must be, in words, and the test that it is
Rule = tuple[str, Callable[[Any], bool]]
NON_NEGATIVE = (">= 0", lambda value: value >= 0)


def one_of(choices) -> Rule:
    return f"one of {tuple(choices)}", tuple(choices).__contains__


def check(name: str, value, rule: Rule):
    """``value`` if it passes ``rule``; else a DataError: "<name> must be <rule>, got <value>"."""
    text, test = rule
    if not test(value):
        raise DataError(f"{name} must be {text}, got {value!r}")
    return value


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


@dataclass(frozen=True)
class AnnotationSet:
    """Sparse annotation triples (instance, annotator, label) as index arrays.

    The one source of its sizes N, M and K: construction raises DataError
    unless each index array is 1-D and of an integer type (or empty), every
    index lies in [0, n_instances), [0, n_annotators) or [0, n_labels),
    each (instance, annotator) pair occurs at most once and a non-empty
    ``instance_ids`` or ``annotator_ids`` holds exactly N or M distinct ids.
    Indices refer to positions in ``instance_ids`` / ``annotator_ids`` / the label set.
    """

    n_instances: int
    n_annotators: int
    n_labels: int
    instance_idx: np.ndarray
    annotator_idx: np.ndarray
    label_idx: np.ndarray
    instance_ids: tuple[str, ...] = ()
    annotator_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
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
        for name, ids, size in (("instance_ids", self.instance_ids, self.n_instances),
                                ("annotator_ids", self.annotator_ids, self.n_annotators)):
            if ids and (len(ids) != size or len(set(ids)) != size):
                raise DataError(f"{name} must hold {size} distinct ids, got {len(ids)} "
                                f"of which {len(set(ids))} distinct")

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
            try:
                vec = np.array([float(v) for v in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise _at(path, line, exc) from None
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
    """Write dense-feature instances as CSV (inverse of dense-csv loading).

    The instances must share one width of at least one feature, as the
    reader requires; else DataError, before the file is opened.
    """
    for inst in instances:
        if inst.features is None:
            raise DataError(f"instance {inst.id!r} has no dense features")
    widths = sorted({len(inst.features) for inst in instances})  # type: ignore[arg-type]
    if len(widths) != 1 or widths[0] == 0:
        raise DataError(f"dense instances need one width of at least 1 feature, got {widths}")
    write_table(path, ["id"] + [f"x{k}" for k in range(widths[0])],
                ([inst.id] + [repr(float(v)) for v in inst.features]  # type: ignore[union-attr]
                 for inst in instances))


def write_instances_jsonl(path: str | Path, instances: Sequence[Instance]) -> None:
    with whole_file(path) as fh:
        for inst in instances:
            if inst.text is None:
                raise DataError(f"instance {inst.id!r} has no text payload")
            obj: dict[str, str] = {"id": inst.id, "text": inst.text}
            if inst.text2 is not None:
                obj["text2"] = inst.text2
            fh.write(json.dumps(obj) + "\n")


def _index_of(seen: dict[str, int], key: str, grow: bool, what: str) -> int:
    """Index of id ``key``; a new id gets the next index when ``grow``, else is an error."""
    idx = seen.get(key)
    if idx is None:
        if not grow:
            raise DataError(f"unknown {what} id {key!r}")
        seen[key] = idx = len(seen)
    return idx


ANNOTATIONS_HEADER = ("instance_id", "annotator_id", "label")
GOLD_HEADER = ("instance_id", "label")
SCORES_HEADER = ("instance_id", "annotator_id", "score")


def load_annotations(
    path: str | Path,
    label_set: LabelSet,
    instance_ids: Sequence[str] | None = None,
    annotator_ids: Sequence[str] | None = None,
) -> AnnotationSet:
    """Load annotation triples from CSV with header instance_id,annotator_id,label.

    Ids are mapped to dense 0-based indices in first-occurrence order unless
    an explicit id order is supplied (as when annotations must align with a
    previously loaded instance file). Duplicate (instance, annotator) pairs
    and labels outside ``label_set`` are rejected, naming the file and line.
    """
    inst_seen = {v: i for i, v in enumerate(() if instance_ids is None else instance_ids)}
    ann_seen = {v: i for i, v in enumerate(() if annotator_ids is None else annotator_ids)}
    ii, jj, ll = [], [], []
    pairs: set[tuple[int, int]] = set()
    for line, row in _table(path, ANNOTATIONS_HEADER):
        try:
            i = _index_of(inst_seen, row[0], instance_ids is None, "instance")
            j = _index_of(ann_seen, row[1], annotator_ids is None, "annotator")
            if (i, j) in pairs:
                raise DataError(f"duplicate annotation for instance {row[0]!r} by {row[1]!r}")
            ll.append(label_set.index(row[2]))
        except DataError as exc:
            raise _at(path, line, exc) from None
        pairs.add((i, j))
        ii.append(i)
        jj.append(j)
    inst_ids = tuple(inst_seen if instance_ids is None else instance_ids)
    ann_ids = tuple(ann_seen if annotator_ids is None else annotator_ids)
    return AnnotationSet(
        n_instances=len(inst_ids),
        n_annotators=len(ann_ids),
        n_labels=len(label_set),
        instance_idx=np.array(ii, dtype=np.int64),
        annotator_idx=np.array(jj, dtype=np.int64),
        label_idx=np.array(ll, dtype=np.int64),
        instance_ids=inst_ids,
        annotator_ids=ann_ids,
    )


def _pair_ids(annotations: AnnotationSet) -> tuple[np.ndarray, np.ndarray]:
    """The instance id and the annotator id of each pair, as two (P,) object arrays."""
    return (np.array(annotations.instance_ids, dtype=object)[annotations.instance_idx],
            np.array(annotations.annotator_ids, dtype=object)[annotations.annotator_idx])


def write_annotations(path: str | Path, annotations: AnnotationSet, label_set: LabelSet) -> None:
    labels = np.array(label_set.labels, dtype=object)[annotations.label_idx]
    write_table(path, ANNOTATIONS_HEADER, zip(*_pair_ids(annotations), labels))


def load_gold(
    path: str | Path,
    label_set: LabelSet,
    instance_ids: Sequence[str] | None = None,
) -> GoldLabels:
    """Load gold labels from CSV with header instance_id,label (one row per instance)."""
    seen = {v: i for i, v in enumerate(() if instance_ids is None else instance_ids)}
    by_index: dict[int, int] = {}
    for line, row in _table(path, GOLD_HEADER):
        try:
            i = _index_of(seen, row[0], instance_ids is None, "instance")
            if i in by_index:
                raise DataError(f"duplicate gold label for instance {row[0]!r}")
            by_index[i] = label_set.index(row[1])
        except DataError as exc:
            raise _at(path, line, exc) from None
    return GoldLabels(by_index=by_index)


def write_gold(path: str | Path, gold: np.ndarray, label_set: LabelSet,
               instance_ids: Sequence[str]) -> None:
    """Write gold labels or predictions: a row for each entry >= 0 of ``gold``, in index order."""
    # checked before the file is opened, so a misfit writes nothing
    gold = label_indices(gold, len(instance_ids), len(label_set), per="instance id",
                         name="labels", what="labels")
    write_table(path, GOLD_HEADER, ([instance_ids[i], label_set.labels[t]]
                                    for i, t in enumerate(gold.tolist()) if t >= 0))


def load_scores(path: str | Path, annotations: AnnotationSet) -> np.ndarray:
    """Load one score per annotation from CSV with header instance_id,annotator_id,score.

    Returns the scores in the pair order of ``annotations``. Ids outside
    ``annotations``, a pair that ``annotations`` does not hold, repeated
    pairs and scores that do not parse to a probability in [0, 1] are
    rejected, naming the file and line; so is a pair of ``annotations``
    with no row.
    """
    inst_pos = {v: i for i, v in enumerate(annotations.instance_ids)}
    ann_pos = {v: j for j, v in enumerate(annotations.annotator_ids)}
    m = annotations.n_annotators  # pair (i, j) has the key i * m + j
    pair_pos = dict(zip((annotations.instance_idx * m + annotations.annotator_idx).tolist(),
                        range(annotations.n_pairs)))
    scores: list[float | None] = [None] * annotations.n_pairs
    for line, row in _table(path, SCORES_HEADER):
        try:
            p = pair_pos.get(_index_of(inst_pos, row[0], False, "instance") * m
                             + _index_of(ann_pos, row[1], False, "annotator"))
            if p is None:
                raise DataError(f"no annotation for instance {row[0]!r} by {row[1]!r}")
            if scores[p] is not None:
                raise DataError(f"duplicate score for instance {row[0]!r} by {row[1]!r}")
            try:
                score = float(row[2])
            except ValueError:
                raise DataError(f"cannot parse score {row[2]!r}") from None
            if not 0.0 <= score <= 1.0:  # NaN fails this too
                raise DataError(f"score {row[2]!r} is not a probability in [0, 1]")
            scores[p] = score
        except DataError as exc:
            raise _at(path, line, exc) from None
    if None in scores:
        p = scores.index(None)
        i, j = annotations.instance_idx[p], annotations.annotator_idx[p]
        raise DataError(f"{path}: missing score for pair ({annotations.instance_ids[i]}, "
                        f"{annotations.annotator_ids[j]})")
    return np.array(scores, dtype=np.float64)


def write_scores(path: str | Path, annotations: AnnotationSet, scores: np.ndarray) -> None:
    """Write one score per annotation (inverse of ``load_scores``)."""
    scores = one_per(scores, annotations.n_pairs, "scores", "annotation", np.float64)
    write_table(path, SCORES_HEADER, zip(*_pair_ids(annotations), map(repr, scores.tolist())))


def validate(
    instances: Sequence[Instance],
    annotations: AnnotationSet,
    gold: GoldLabels | None = None,
) -> list[str]:
    """Cross-check a dataset; returns a list of violations (empty means valid)."""
    problems: list[str] = []
    n = len(instances)
    if n == 0:
        problems.append("dataset has no instances")
    kinds = {(inst.features is not None) for inst in instances}
    if len(kinds) > 1:
        problems.append("mixed payload kinds: some instances have features, some have text")
    widths = {len(inst.features) for inst in instances if inst.features is not None}
    if len(widths) > 1:
        problems.append(f"inconsistent feature widths: {sorted(widths)}")
    for inst in instances:
        if inst.features is not None and not np.all(np.isfinite(inst.features)):
            problems.append(f"non-finite feature value in instance {inst.id!r}")
    if annotations.n_instances != n:
        problems.append(f"annotation set covers {annotations.n_instances} instances, dataset has {n}")
    for i in np.flatnonzero(np.bincount(annotations.instance_idx, minlength=n)[:n] == 0):
        problems.append(f"instance {instances[i].id!r} has no annotations")
    if gold is not None:
        for i, t in gold.by_index.items():
            if not 0 <= i < n:
                problems.append(f"gold label references instance index {i} of {n}")
            if not 0 <= t < annotations.n_labels:
                problems.append(f"gold label index {t} out of range")
    return problems


def feature_matrix(instances: Iterable[Instance]) -> np.ndarray:
    """Stack dense instance features into an (N, d) float64 matrix."""
    rows = []
    for inst in instances:
        if inst.features is None:
            raise DataError(f"instance {inst.id!r} has no dense features; featurize text first")
        rows.append(inst.features)
    return np.asarray(rows, dtype=np.float64)
