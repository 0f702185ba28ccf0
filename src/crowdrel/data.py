"""Dataset types and file IO for instances, annotations and gold labels.

External ids are arbitrary strings; everything downstream works on dense
0-based integer indices assigned at load time. All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class DataError(ValueError):
    """Base class for dataset loading/validation failures."""


class ParseError(DataError):
    pass


class DimensionError(DataError):
    pass


class LabelError(DataError):
    pass


class DuplicateError(DataError):
    pass


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of category names; index positions are stable."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise DataError(f"need at least 2 labels, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate label names")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise LabelError(f"unknown label {label!r}; expected one of {list(self.labels)}") from None


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

    At most one triple per (instance, annotator) pair; indices refer to the
    positions in ``instance_ids`` / ``annotator_ids`` / the label set.
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
        for name in ("instance_idx", "annotator_idx", "label_idx"):
            arr = np.array(getattr(self, name), dtype=np.int64)  # own copy, frozen below
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        p = len(self.instance_idx)
        if len(self.annotator_idx) != p or len(self.label_idx) != p:
            raise DataError("triple arrays must have equal length")
        pairs = set(zip(self.instance_idx.tolist(), self.annotator_idx.tolist()))
        if len(pairs) != p:
            raise DuplicateError("duplicate (instance, annotator) pair")

    @property
    def n_pairs(self) -> int:
        return len(self.instance_idx)

    def triples(self) -> list[tuple[int, int, int]]:
        return list(zip(self.instance_idx.tolist(), self.annotator_idx.tolist(), self.label_idx.tolist()))

    def counts_per_instance(self) -> np.ndarray:
        return np.bincount(self.instance_idx, minlength=self.n_instances)


@dataclass(frozen=True)
class GoldLabels:
    """Partial map instance index -> true label index. Evaluation only."""

    by_index: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.by_index)

    def to_array(self, n_instances: int, missing: int = -1) -> np.ndarray:
        out = np.full(n_instances, missing, dtype=np.int64)
        for i, t in self.by_index.items():
            out[i] = t
        return out


def _read_rows(path: str | Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def load_instances(path: str | Path, format: str) -> list[Instance]:
    """Load instances from ``dense-csv`` (header id,x0,x1,...) or ``text-jsonl``.

    Dense rows must all have the same width; malformed rows raise ParseError
    with the offending line number. An empty file yields an empty list.
    """
    if format == "dense-csv":
        rows = _read_rows(path)
        if not rows:
            return []
        header, body = rows[0], rows[1:]
        if not header or header[0] != "id":
            raise ParseError(f"{path}: first header column must be 'id', got {header[:1]}")
        width = len(header) - 1
        instances = []
        for lineno, row in enumerate(body, start=2):
            if not row:
                continue
            if len(row) - 1 != width:
                raise DimensionError(f"{path}:{lineno}: expected {width} features, got {len(row) - 1}")
            try:
                vec = np.array([float(v) for v in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            instances.append(Instance(id=row[0], features=vec))
        return instances
    if format == "text-jsonl":
        instances = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                if "id" not in obj or "text" not in obj:
                    raise ParseError(f"{path}:{lineno}: object needs 'id' and 'text'")
                instances.append(Instance(id=str(obj["id"]), text=str(obj["text"]),
                                          text2=str(obj["text2"]) if "text2" in obj else None))
        return instances
    raise DataError(f"unknown instance format {format!r}")


def write_instances(path: str | Path, instances: Sequence[Instance]) -> None:
    """Write dense-feature instances as CSV (inverse of dense-csv loading)."""
    width = 0 if not instances else len(instances[0].features)  # type: ignore[arg-type]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{k}" for k in range(width)])
        for inst in instances:
            if inst.features is None:
                raise DataError(f"instance {inst.id!r} has no dense features")
            writer.writerow([inst.id] + [repr(float(v)) for v in inst.features])


def write_instances_jsonl(path: str | Path, instances: Sequence[Instance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            if inst.text is None:
                raise DataError(f"instance {inst.id!r} has no text payload")
            obj: dict[str, str] = {"id": inst.id, "text": inst.text}
            if inst.text2 is not None:
                obj["text2"] = inst.text2
            fh.write(json.dumps(obj) + "\n")


def _index_of(ids: list[str], seen: dict[str, int], key: str, fixed: bool, what: str, where: str) -> int:
    idx = seen.get(key)
    if idx is None:
        if fixed:
            raise DataError(f"{where}: unknown {what} id {key!r}")
        seen[key] = idx = len(ids)
        ids.append(key)
    return idx


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
    and labels outside ``label_set`` are rejected.
    """
    rows = _read_rows(path)
    if rows and rows[0] != ["instance_id", "annotator_id", "label"]:
        raise ParseError(f"{path}: header must be instance_id,annotator_id,label")
    inst_fixed = instance_ids is not None
    ann_fixed = annotator_ids is not None
    inst_list = list(instance_ids) if inst_fixed else []
    ann_list = list(annotator_ids) if ann_fixed else []
    inst_seen = {v: i for i, v in enumerate(inst_list)}
    ann_seen = {v: i for i, v in enumerate(ann_list)}
    ii, jj, ll = [], [], []
    pairs: set[tuple[int, int]] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        where = f"{path}:{lineno}"
        i = _index_of(inst_list, inst_seen, row[0], inst_fixed, "instance", where)
        j = _index_of(ann_list, ann_seen, row[1], ann_fixed, "annotator", where)
        if (i, j) in pairs:
            raise DuplicateError(f"{where}: duplicate annotation for instance {row[0]!r} by {row[1]!r}")
        pairs.add((i, j))
        ii.append(i)
        jj.append(j)
        ll.append(label_set.index(row[2]))
    return AnnotationSet(
        n_instances=len(inst_list),
        n_annotators=len(ann_list),
        n_labels=len(label_set),
        instance_idx=np.array(ii, dtype=np.int64),
        annotator_idx=np.array(jj, dtype=np.int64),
        label_idx=np.array(ll, dtype=np.int64),
        instance_ids=tuple(inst_list),
        annotator_ids=tuple(ann_list),
    )


def write_annotations(path: str | Path, annotations: AnnotationSet, label_set: LabelSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "annotator_id", "label"])
        for i, j, l in annotations.triples():
            writer.writerow([annotations.instance_ids[i], annotations.annotator_ids[j], label_set.labels[l]])


def load_gold(
    path: str | Path,
    label_set: LabelSet,
    instance_ids: Sequence[str] | None = None,
) -> GoldLabels:
    """Load gold labels from CSV with header instance_id,label (one row per instance)."""
    rows = _read_rows(path)
    if rows and rows[0] != ["instance_id", "label"]:
        raise ParseError(f"{path}: header must be instance_id,label")
    fixed = instance_ids is not None
    ids = list(instance_ids) if fixed else []
    seen = {v: i for i, v in enumerate(ids)}
    by_index: dict[int, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        i = _index_of(ids, seen, row[0], fixed, "instance", f"{path}:{lineno}")
        if i in by_index:
            raise DuplicateError(f"{path}:{lineno}: duplicate gold label for instance {row[0]!r}")
        by_index[i] = label_set.index(row[1])
    return GoldLabels(by_index=by_index)


def write_gold(path: str | Path, gold: GoldLabels, label_set: LabelSet,
               instance_ids: Sequence[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "label"])
        for i in sorted(gold.by_index):
            writer.writerow([instance_ids[i], label_set.labels[gold.by_index[i]]])


def validate(
    instances: Sequence[Instance],
    annotations: AnnotationSet,
    gold: GoldLabels | None = None,
) -> list[str]:
    """Cross-check a dataset; returns a list of violations (empty means valid)."""
    problems: list[str] = []
    n = len(instances)
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
    if annotations.n_pairs and annotations.instance_idx.max(initial=-1) >= n:
        problems.append(f"annotation references instance index {int(annotations.instance_idx.max())} of {n}")
    if np.any(annotations.label_idx >= annotations.n_labels) or np.any(annotations.label_idx < 0):
        problems.append("annotation label index out of range")
    covered = np.zeros(n, dtype=bool)
    valid = annotations.instance_idx[annotations.instance_idx < n]
    covered[valid[valid >= 0]] = True
    for i in np.flatnonzero(~covered):
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
