import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdrel.data import (
    AnnotationSet,
    DataError,
    Instance,
    LabelSet,
    feature_matrix,
    load_annotations,
    load_gold,
    load_instances,
    load_scores,
    validate,
    write_annotations,
    write_gold,
    write_instances,
    write_instances_jsonl,
    write_scores,
    write_table,
)
from crowdrel.evaluate import f1, reliability_report
from crowdrel.neural import AdamState, PairInput, adam_step, forward, init_fnn


@pytest.fixture
def binary_labels():
    return LabelSet(("0", "1"))


class TestLabelSet:
    def test_index_is_stable(self):
        ls = LabelSet(("cat", "dog", "fish"))
        assert ls.index("dog") == 1
        assert len(ls) == 3

    def test_rejects_duplicates_and_singletons(self):
        with pytest.raises(DataError):
            LabelSet(("a", "a"))
        with pytest.raises(DataError):
            LabelSet(("only",))

    def test_rejects_an_empty_name_naming_its_position(self):
        with pytest.raises(DataError, match=r"^label 2 of \['0', '1', ''\] is an empty name$"):
            LabelSet(("0", "1", ""))


class TestLoadInstances:
    def test_dense_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("id,x0,x1\na,0.1,0.2\n")
        loaded = load_instances(path, "dense-csv")
        assert len(loaded) == 1
        assert loaded[0].id == "a"
        np.testing.assert_allclose(loaded[0].features, [0.1, 0.2])

    def test_unknown_format_is_named_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(
                "format must be one of ('dense-csv', 'text-jsonl'), got 'csv'")):
            load_instances(tmp_path / "missing.csv", "csv")

    def test_text_jsonl(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"id":"q1","text":"Where is the Orinoco?"}\n')
        loaded = load_instances(path, "text-jsonl")
        assert loaded[0].text == "Where is the Orinoco?"
        assert loaded[0].features is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        assert load_instances(path, "dense-csv") == []

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("id,x0\na,0.1\nb,oops\n")
        with pytest.raises(DataError, match=":3"):
            load_instances(path, "dense-csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = tmp_path / "x.csv"
        path.write_text(f"id,x0\na,0.1\nb,{value}\n")
        with pytest.raises(DataError, match=r"x\.csv:3: non-finite feature value in instance 'b'"):
            load_instances(path, "dense-csv")

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("id,x0,x1\na,0.1,0.2\nb,0.3\n")
        with pytest.raises(DataError, match=r"x\.csv:3: expected 3 columns, got 2"):
            load_instances(path, "dense-csv")


    @pytest.mark.parametrize("line, message", [
        ("5", "must be a JSON object"),
        ('["id", "text"]', "must be a JSON object"),
        ('{"id": "b"}', "must be a JSON object with 'id' and 'text'"),
        ('{"id": "b", "text": null}', "'text' and 'text2' must be strings"),
        ('{"id": "b", "text": 7}', "'text' and 'text2' must be strings"),
        ('{"id": "b", "text": "words", "text2": ["more"]}', "'text' and 'text2' must be strings"),
        ('{"id": "b", "text": "words", "text2": null}', "'text' and 'text2' must be strings"),
        # an id is never converted: str() would load null as "None" and let
        # 5 collide with "5"
        *((f'{{"id": {key}, "text": "q"}}', "'id', 'text' and 'text2' must be strings")
          for key in ("null", "5", "true", "{}", "[]")),
    ])
    def test_malformed_text_line_reports_line(self, tmp_path, line, message):
        path = tmp_path / "x.jsonl"
        path.write_text('{"id": "a", "text": "fine"}\n' + line + "\n")
        with pytest.raises(DataError, match=re.escape("x.jsonl:2: ") + ".*" + re.escape(message)):
            load_instances(path, "text-jsonl")

    def test_text2_is_kept_when_given(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"id": "a", "text": "q"}\n{"id": "b", "text": "q", "text2": "r"}\n')
        assert [inst.text2 for inst in load_instances(path, "text-jsonl")] == [None, "r"]


class TestLoadAnnotations:
    def test_counts(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nq,u1,0\nq,u2,0\nq,u3,1\n")
        ann = load_annotations(path, binary_labels)
        assert (ann.n_instances, ann.n_annotators, ann.n_pairs) == (1, 3, 3)

    def test_unknown_label(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nq,u1,maybe\n")
        with pytest.raises(DataError, match="unknown label"):
            load_annotations(path, binary_labels)

    def test_duplicate_pair(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nq,u1,0\nq,u1,1\n")
        with pytest.raises(DataError, match=r"a\.csv:3: duplicate annotation"):
            load_annotations(path, binary_labels)

    def test_sparse_panel_loads(self, tmp_path, binary_labels):
        # 80 instances, each labelled by exactly 10 of 164 annotators
        rows = ["instance_id,annotator_id,label"]
        for i in range(80):
            for q in range(10):
                rows.append(f"q{i},w{(i * 10 + q) % 164},{(i + q) % 2}")
        path = tmp_path / "a.csv"
        path.write_text("\n".join(rows) + "\n")
        ann = load_annotations(path, binary_labels)
        assert ann.n_instances == 80
        assert ann.n_annotators == 164
        assert np.all(ann.counts_per_instance() == 10)

    def test_explicit_instance_order(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nb,u1,0\na,u1,1\n")
        ann = load_annotations(path, binary_labels, instance_ids=["a", "b"])
        assert ann.instance_ids == ("a", "b")
        assert ann.instance_idx.tolist() == [1, 0]
        with pytest.raises(DataError, match="unknown instance"):
            load_annotations(path, binary_labels, instance_ids=["a"])


class TestLoadGold:
    def test_balanced_two_class_file(self, tmp_path, binary_labels):
        rows = ["instance_id,label"] + [f"q{i},{i % 2}" for i in range(800)]
        path = tmp_path / "g.csv"
        path.write_text("\n".join(rows) + "\n")
        gold = load_gold(path, binary_labels)
        values = list(gold.by_index.values())
        assert len(gold) == 800
        assert values.count(0) == 400 and values.count(1) == 400

    def test_empty_file(self, tmp_path, binary_labels):
        path = tmp_path / "g.csv"
        path.write_text("")
        assert len(load_gold(path, binary_labels)) == 0

    def test_duplicate_instance(self, tmp_path, binary_labels):
        path = tmp_path / "g.csv"
        path.write_text("instance_id,label\nq,0\nq,1\n")
        with pytest.raises(DataError, match=r"g\.csv:3: duplicate gold label"):
            load_gold(path, binary_labels)


class TestAnnotationSet:
    @pytest.mark.parametrize("column", ["instance_idx", "annotator_idx", "label_idx"])
    @pytest.mark.parametrize("value", [-1, 3])
    def test_rejects_out_of_range_index(self, column, value):
        # N = M = K = 3, so 3 is one past the end of every index range
        triples = {"instance_idx": [0, 1, 2], "annotator_idx": [0, 1, 2], "label_idx": [0, 1, 2]}
        triples[column] = [0, value, 2]
        with pytest.raises(DataError, match=rf"{column}\[1\] = {value} is outside \[0, 3\)"):
            AnnotationSet(n_instances=3, n_annotators=3, n_labels=3, **triples)

    @pytest.mark.parametrize("column", ["instance_idx", "annotator_idx", "label_idx"])
    def test_rejects_fractional_index(self, column):
        triples = {"instance_idx": [0, 1], "annotator_idx": [0, 1], "label_idx": [0, 1]}
        triples[column] = [0.9, 1.5]
        with pytest.raises(DataError, match=f"{column} must hold integers"):
            AnnotationSet(n_instances=2, n_annotators=2, n_labels=2, **triples)

    @pytest.mark.parametrize("column", ["instance_idx", "annotator_idx", "label_idx"])
    def test_rejects_index_array_that_is_not_1d(self, column):
        triples = {"instance_idx": [0, 1], "annotator_idx": [0, 1], "label_idx": [0, 1]}
        triples[column] = [[0], [1]]
        with pytest.raises(DataError, match=rf"{column} must be 1-D, got shape \(2, 1\)"):
            AnnotationSet(n_instances=2, n_annotators=2, n_labels=2, **triples)

    def test_accepts_empty_set(self):
        ann = AnnotationSet(n_instances=0, n_annotators=0, n_labels=2,
                            instance_idx=[], annotator_idx=[], label_idx=[])
        assert ann.n_pairs == 0 and ann.instance_idx.dtype == np.int64

    def test_rejects_duplicate_pair(self):
        with pytest.raises(DataError, match=r"duplicate \(instance, annotator\) pair"):
            AnnotationSet(n_instances=2, n_annotators=2, n_labels=2,
                          instance_idx=[0, 1, 0], annotator_idx=[1, 0, 1], label_idx=[0, 0, 1])

    @pytest.mark.parametrize("ids, message", [
        ({"instance_ids": ("a",)}, "instance_ids must hold 2 distinct ids, got 1 of which 1"),
        ({"instance_ids": ("a", "a")}, "instance_ids must hold 2 distinct ids, got 2 of which 1"),
        ({"annotator_ids": ("u", "v", "w")},
         "annotator_ids must hold 2 distinct ids, got 3 of which 3"),
    ], ids=["too-few", "repeated", "too-many"])
    def test_rejects_ids_that_do_not_fit_its_sizes(self, ids, message):
        with pytest.raises(DataError, match=f"^{message} distinct$"):
            AnnotationSet(n_instances=2, n_annotators=2, n_labels=2,
                          instance_idx=[0, 1], annotator_idx=[1, 0], label_idx=[0, 0], **ids)


class TestValidate:
    def _fixture(self):
        instances = [Instance(id=f"i{k}", features=np.array([0.0, float(k)])) for k in range(10)]
        ann = AnnotationSet(
            n_instances=10, n_annotators=2, n_labels=2,
            instance_idx=np.repeat(np.arange(10), 2),
            annotator_idx=np.tile([0, 1], 10),
            label_idx=np.zeros(20, dtype=np.int64),
        )
        return instances, ann

    def test_consistent_fixture(self):
        instances, ann = self._fixture()
        assert validate(instances, ann) == []

    def test_out_of_range_instance(self):
        # caught when the set is built, before validate could see it
        with pytest.raises(DataError, match="999"):
            AnnotationSet(
                n_instances=10, n_annotators=1, n_labels=2,
                instance_idx=np.array([999] + list(range(10))),
                annotator_idx=np.zeros(11, dtype=np.int64),
                label_idx=np.zeros(11, dtype=np.int64),
            )

    def test_nan_feature(self):
        instances, ann = self._fixture()
        instances[3] = Instance(id="i3", features=np.array([0.0, np.nan]))
        problems = validate(instances, ann)
        assert len(problems) == 1 and "non-finite" in problems[0]

    def test_empty_dataset(self):
        empty = AnnotationSet(n_instances=0, n_annotators=0, n_labels=2,
                              instance_idx=[], annotator_idx=[], label_idx=[])
        assert validate([], empty) == ["dataset has no instances"]


ids_st = st.lists(st.text(st.characters(categories=("L", "Nd"), include_characters=",\" "),
                          min_size=1, max_size=8),
                  min_size=1, max_size=5, unique=True)

# ids and labels of any characters, empty and CSV/JSON syntax included
any_text = st.text(max_size=8)
any_ids = st.lists(any_text, min_size=1, max_size=5, unique=True)


def same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equal, except that NaN matches NaN: text keeps no NaN sign or payload."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestRoundTrip:
    @given(inst_ids=ids_st, ann_ids=ids_st, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_write_then_load_reproduces_triples(self, tmp_path_factory, inst_ids, ann_ids, data):
        labels = LabelSet(("yes", "no"))
        possible = [(i, j) for i in range(len(inst_ids)) for j in range(len(ann_ids))]
        chosen = data.draw(st.lists(st.sampled_from(possible), min_size=1,
                                    max_size=len(possible), unique=True))
        ann = AnnotationSet(
            n_instances=len(inst_ids), n_annotators=len(ann_ids), n_labels=2,
            instance_idx=np.array([c[0] for c in chosen]),
            annotator_idx=np.array([c[1] for c in chosen]),
            label_idx=np.array([data.draw(st.integers(0, 1)) for _ in chosen]),
            instance_ids=tuple(inst_ids), annotator_ids=tuple(ann_ids),
        )
        path = tmp_path_factory.mktemp("rt") / "ann.csv"
        write_annotations(path, ann, labels)
        loaded = load_annotations(path, labels, instance_ids=inst_ids, annotator_ids=ann_ids)
        assert loaded.triples() == ann.triples()

    def test_table_that_fails_half_way_writes_nothing(self, tmp_path):
        def rows():
            yield ["a", "1"]
            raise DataError("row 2 is bad")

        path = tmp_path / "t.csv"
        with pytest.raises(DataError, match="row 2 is bad"):
            write_table(path, ["id", "x"], rows())
        assert list(tmp_path.iterdir()) == []
        write_table(path, ["id", "x"], [["a", "1"], ["b", "2"]])
        older = path.read_bytes()
        with pytest.raises(DataError, match="row 2 is bad"):
            write_table(path, ["id", "x"], rows())
        # the older file is left as it was, and no temporary file beside it
        assert path.read_bytes() == older == b"id,x\r\na,1\r\nb,2\r\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_dense_csv_writer_refuses_mixed_widths(self, tmp_path):
        instances = [Instance(id="a", features=np.zeros(2)), Instance(id="b", features=np.ones(3))]
        with pytest.raises(DataError, match=r"one width of at least 1 feature, got \[2, 3\]"):
            write_instances(tmp_path / "x.csv", instances)
        assert not (tmp_path / "x.csv").exists()

    @given(ids=st.lists(any_text), width=st.integers(0, 3), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_dense_csv_instances(self, tmp_path_factory, ids, width, data):
        # half the draws hold finite values only, so both outcomes are exercised
        values = st.floats() if data.draw(st.booleans()) else st.floats(allow_nan=False,
                                                                         allow_infinity=False)
        instances = [Instance(id=i, features=np.array(data.draw(st.lists(
            values, min_size=width, max_size=width)), dtype=np.float64)) for i in ids]
        base = tmp_path_factory.mktemp("rt")
        if width == 0 or not ids:  # no feature column: the reader would refuse the file
            with pytest.raises(DataError, match=r"one width of at least 1 feature"):
                write_instances(base / "x.csv", instances)
            assert not (base / "x.csv").exists()
            return
        write_instances(base / "x.csv", instances)
        if len(set(ids)) < len(ids):
            with pytest.raises(DataError, match="duplicate instance id|non-finite feature"):
                load_instances(base / "x.csv", "dense-csv")
            return
        if not all(np.all(np.isfinite(inst.features)) for inst in instances):
            with pytest.raises(DataError, match="non-finite feature value"):
                load_instances(base / "x.csv", "dense-csv")
            return
        loaded = load_instances(base / "x.csv", "dense-csv")
        assert [inst.id for inst in loaded] == ids
        assert all(same_floats(a.features, b.features) for a, b in zip(instances, loaded))
        write_instances(base / "again.csv", loaded)
        assert (base / "again.csv").read_bytes() == (base / "x.csv").read_bytes()

    @given(docs=st.lists(st.tuples(any_text, st.text(), st.none() | st.text())))
    @settings(max_examples=40, deadline=None)
    def test_text_jsonl_instances(self, tmp_path_factory, docs):
        instances = [Instance(id=i, text=t, text2=t2) for i, t, t2 in docs]
        base = tmp_path_factory.mktemp("rt")
        write_instances_jsonl(base / "x.jsonl", instances)
        if len({i for i, _, _ in docs}) < len(docs):
            with pytest.raises(DataError, match="duplicate instance id"):
                load_instances(base / "x.jsonl", "text-jsonl")
            return
        loaded = load_instances(base / "x.jsonl", "text-jsonl")
        assert loaded == instances
        write_instances_jsonl(base / "again.jsonl", loaded)
        assert (base / "again.jsonl").read_bytes() == (base / "x.jsonl").read_bytes()

    @given(inst_ids=any_ids, ann_ids=any_ids,
           labels=st.lists(any_text.filter(bool), min_size=2, max_size=4, unique=True),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_annotations_gold_and_scores(self, tmp_path_factory, inst_ids, ann_ids, labels, data):
        label_set = LabelSet(tuple(labels))
        possible = [(i, j) for i in range(len(inst_ids)) for j in range(len(ann_ids))]
        chosen = data.draw(st.lists(st.sampled_from(possible), min_size=1,
                                    max_size=len(possible), unique=True))
        label = st.integers(0, len(labels) - 1)
        ann = AnnotationSet(
            n_instances=len(inst_ids), n_annotators=len(ann_ids), n_labels=len(labels),
            instance_idx=np.array([c[0] for c in chosen]),
            annotator_idx=np.array([c[1] for c in chosen]),
            label_idx=np.array([data.draw(label) for _ in chosen]),
            instance_ids=tuple(inst_ids), annotator_ids=tuple(ann_ids),
        )
        # -1 marks an instance without a gold label
        gold = np.array([data.draw(st.integers(-1, len(labels) - 1)) for _ in inst_ids])
        # half the draws hold probabilities only, so both outcomes are exercised
        score = st.floats() if data.draw(st.booleans()) else st.floats(0.0, 1.0)
        scores = np.array([data.draw(score) for _ in chosen], dtype=np.float64)
        base = tmp_path_factory.mktemp("rt")
        write_annotations(base / "ann.csv", ann, label_set)
        write_gold(base / "gold.csv", gold, label_set, inst_ids)
        write_scores(base / "rel.csv", ann, scores)
        loaded = load_annotations(base / "ann.csv", label_set, instance_ids=inst_ids,
                                  annotator_ids=ann_ids)
        assert loaded.triples() == ann.triples()
        assert (loaded.instance_ids, loaded.annotator_ids) == (ann.instance_ids, ann.annotator_ids)
        loaded_gold = load_gold(base / "gold.csv", label_set,
                                instance_ids=inst_ids).to_array(len(inst_ids))
        assert np.array_equal(loaded_gold, gold)
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            with pytest.raises(DataError, match=r"rel\.csv:\d+: score .* is not a probability"):
                load_scores(base / "rel.csv", loaded)
            return
        loaded_scores = load_scores(base / "rel.csv", loaded)
        assert same_floats(loaded_scores, scores)
        write_annotations(base / "ann2.csv", loaded, label_set)
        write_gold(base / "gold2.csv", loaded_gold, label_set, inst_ids)
        write_scores(base / "rel2.csv", loaded, loaded_scores)
        for name in ("ann", "gold", "rel"):
            assert (base / f"{name}2.csv").read_bytes() == (base / f"{name}.csv").read_bytes()

    def test_writers_give_one_row_per_pair_in_pair_order(self, tmp_path):
        ann = AnnotationSet(n_instances=3, n_annotators=2, n_labels=2,
                            instance_idx=[2, 0, 1, 2], annotator_idx=[1, 1, 0, 0],
                            label_idx=[0, 1, 1, 0], instance_ids=("x", "y", "z"),
                            annotator_ids=("a,1", "b"))
        labels = LabelSet(("no", "yes"))
        scores = np.array([0.25, 1.0, 0.0, 1 / 3])
        write_annotations(tmp_path / "ann.csv", ann, labels)
        write_scores(tmp_path / "rel.csv", ann, scores)
        expected = {"ann.csv": [["instance_id", "annotator_id", "label"]],
                    "rel.csv": [["instance_id", "annotator_id", "score"]]}
        for (i, j, t), score in zip(ann.triples(), scores.tolist()):
            pair = [ann.instance_ids[i], ann.annotator_ids[j]]
            expected["ann.csv"].append(pair + [labels.labels[t]])
            expected["rel.csv"].append(pair + [repr(score)])
        for name, rows in expected.items():
            with open(tmp_path / name, newline="") as fh:
                assert list(csv.reader(fh)) == rows

    def test_index_assignment_deterministic(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nz,u9,0\na,u1,1\nz,u1,1\n")
        first = load_annotations(path, binary_labels)
        second = load_annotations(path, binary_labels)
        assert first.instance_ids == second.instance_ids == ("z", "a")
        assert first.triples() == second.triples()


TWO_PAIRS = AnnotationSet(n_instances=2, n_annotators=1, n_labels=2,
                          instance_idx=[0, 1], annotator_idx=[0, 0], label_idx=[0, 1])


@pytest.mark.parametrize("call", [
    lambda: PairInput(np.zeros((2, 1)), [0, 2], [0, 0], 1),
    lambda: forward(init_fnn(2, 1, 1, 2, "softmax", np.random.default_rng(0)), np.zeros((1, 3))),
    lambda: adam_step([np.zeros(2)], [], AdamState(0.001, 0.001, 5.0)),
], ids=["pair-index", "input-width", "adam-list-lengths"])
def test_internal_invariants_are_not_data_errors(call):
    # a broken invariant is a fault of the program, not of its input
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, DataError)


@pytest.mark.parametrize("call, message", [
    (lambda path: reliability_report(np.zeros(1), TWO_PAIRS, np.array([0, 1]), 1),
     "need 2 reliability scores, one per annotation; got 1"),
    (lambda path: reliability_report(np.zeros(2), TWO_PAIRS, np.array([0, 2]), 1),
     "gold[1] = 2 is not one of the 2 labels"),
    (lambda path: reliability_report(np.zeros(2), TWO_PAIRS, np.array([0, -7]), 1),
     "gold[1] = -7 is not one of the 2 labels"),
    (lambda path: f1(np.array([0, 1]), np.array([0, -7])),
     "gold[1] = -7 is not one of the labels"),
    (lambda path: write_scores(path, TWO_PAIRS, np.zeros(1)),
     "need 2 scores, one per annotation; got 1"),
    (lambda path: write_gold(path, np.array([0, 1, 0]), LabelSet(("0", "1")), ["a", "b"]),
     "need 2 labels, one per instance id; got 3"),
    (lambda path: write_gold(path, np.array([0, 2]), LabelSet(("0", "1")), ["a", "b"]),
     "labels[1] = 2 is not one of the 2 labels"),
    (lambda path: write_gold(path, np.array([0, -2, 1]), LabelSet(("0", "1")), ["a", "b", "c"]),
     "labels[1] = -2 is not one of the 2 labels"),
    (lambda path: write_gold(path, np.array([0.0, 1.0]), LabelSet(("0", "1")), ["a", "b"]),
     "labels must hold integers, got dtype float64"),
], ids=["score-count", "gold-range", "gold-below-none", "f1-gold-below-none",
        "write-scores-count", "write-gold-count", "write-gold-range", "write-gold-below-none",
        "write-gold-float"])
def test_arrays_that_do_not_fit_are_data_errors(tmp_path, call, message):
    # library callers hand these arrays in, so a misfit is bad input; a writer writes nothing
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call(tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


def test_feature_matrix_requires_dense():
    with pytest.raises(DataError):
        feature_matrix([Instance(id="t", text="hello")])
