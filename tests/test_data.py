import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ids, make_annotations
from crowdrel.data import (
    NON_NEGATIVE,
    PROBABILITY,
    TEXT,
    AnnotationSet,
    DataError,
    Instance,
    LabelSet,
    check,
    feature_matrix,
    load_annotations,
    load_gold,
    load_instances,
    load_scores,
    one_of,
    parse,
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

    @pytest.mark.parametrize("row, text", [
        ("a,abc,0.5", "abc"), ("a,1.0,abc", "abc"), ("a,inf,abc", "abc"), ("a,abc,nan", "abc"),
        ("a,,1.0", ""),
    ])
    def test_value_that_is_no_float_is_worded_as_parse_does(self, tmp_path, row, text):
        path = tmp_path / "x.csv"
        path.write_text(f"id,x0,x1\n{row}\n")
        message = f"{path}:2: cannot parse {text!r} as float"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
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
        ann = load_annotations(path, binary_labels, ["q"])
        assert (ann.n_instances, ann.n_annotators, ann.n_pairs) == (1, 3, 3)

    def test_unknown_label(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nq,u1,maybe\n")
        with pytest.raises(DataError, match="unknown label"):
            load_annotations(path, binary_labels, ["q"])

    def test_duplicate_pair(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nq,u1,0\nq,u1,1\n")
        with pytest.raises(DataError, match=r"a\.csv:3: duplicate annotation"):
            load_annotations(path, binary_labels, ["q"])

    def test_sparse_panel_loads(self, tmp_path, binary_labels):
        # 80 instances, each labelled by exactly 10 of 164 annotators
        rows = ["instance_id,annotator_id,label"]
        for i in range(80):
            for q in range(10):
                rows.append(f"q{i},w{(i * 10 + q) % 164},{(i + q) % 2}")
        path = tmp_path / "a.csv"
        path.write_text("\n".join(rows) + "\n")
        ann = load_annotations(path, binary_labels, ids("q", 80))
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

    def test_explicit_annotator_order(self, tmp_path, binary_labels):
        path = tmp_path / "a.csv"
        path.write_text("instance_id,annotator_id,label\nb,u9,0\na,u1,1\nb,u1,1\n")
        given = load_annotations(path, binary_labels, ["a", "b"], annotator_ids=["u1", "u0", "u9"])
        assert given.annotator_ids == ("u1", "u0", "u9")
        assert given.triples() == [(1, 2, 0), (0, 0, 1), (1, 0, 1)]
        with pytest.raises(DataError, match=r"a\.csv:2: unknown annotator id 'u9'"):
            load_annotations(path, binary_labels, ["a", "b"], annotator_ids=["u1"])


@pytest.mark.parametrize("load, text", [
    (load_annotations, "instance_id,annotator_id,label\nq,u1,0\nr,u1,1\n"),
    (load_gold, "instance_id,label\nq,0\nr,1\n"),
], ids=["annotations", "gold"])
def test_instance_id_outside_the_given_ids_names_file_and_line(tmp_path, binary_labels,
                                                                load, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: unknown instance id 'r'$"):
        load(path, binary_labels, ["q"])


class TestLoadGold:
    def test_balanced_two_class_file(self, tmp_path, binary_labels):
        rows = ["instance_id,label"] + [f"q{i},{i % 2}" for i in range(800)]
        path = tmp_path / "g.csv"
        path.write_text("\n".join(rows) + "\n")
        gold = load_gold(path, binary_labels, ids("q", 800))
        values = list(gold.by_index.values())
        assert len(gold) == 800
        assert values.count(0) == 400 and values.count(1) == 400

    def test_empty_file(self, tmp_path, binary_labels):
        path = tmp_path / "g.csv"
        path.write_text("")
        assert len(load_gold(path, binary_labels, [])) == 0

    def test_duplicate_instance(self, tmp_path, binary_labels):
        path = tmp_path / "g.csv"
        path.write_text("instance_id,label\nq,0\nq,1\n")
        with pytest.raises(DataError, match=r"g\.csv:3: duplicate gold label"):
            load_gold(path, binary_labels, ["q"])


class TestAnnotationSet:
    @pytest.mark.parametrize("column", ["instance_idx", "annotator_idx", "label_idx"])
    @pytest.mark.parametrize("value", [-1, 3])
    def test_rejects_out_of_range_index(self, column, value):
        # N = M = K = 3, so 3 is one past the end of every index range
        triples = {"instance_idx": [0, 1, 2], "annotator_idx": [0, 1, 2], "label_idx": [0, 1, 2]}
        triples[column] = [0, value, 2]
        with pytest.raises(DataError, match=rf"{column}\[1\] = {value} is outside \[0, 3\)"):
            AnnotationSet(ids("i", 3), ids("a", 3), 3, **triples)

    @pytest.mark.parametrize("column", ["instance_idx", "annotator_idx", "label_idx"])
    def test_rejects_fractional_index(self, column):
        triples = {"instance_idx": [0, 1], "annotator_idx": [0, 1], "label_idx": [0, 1]}
        triples[column] = [0.9, 1.5]
        with pytest.raises(DataError, match=f"{column} must hold integers"):
            AnnotationSet(ids("i", 2), ids("a", 2), 2, **triples)

    @pytest.mark.parametrize("column", ["instance_idx", "annotator_idx", "label_idx"])
    def test_rejects_index_array_that_is_not_1d(self, column):
        triples = {"instance_idx": [0, 1], "annotator_idx": [0, 1], "label_idx": [0, 1]}
        triples[column] = [[0], [1]]
        with pytest.raises(DataError, match=rf"{column} must be 1-D, got shape \(2, 1\)"):
            AnnotationSet(ids("i", 2), ids("a", 2), 2, **triples)

    def test_accepts_empty_set(self):
        ann = AnnotationSet((), (), 2, instance_idx=[], annotator_idx=[], label_idx=[])
        assert ann.n_pairs == 0 and ann.instance_idx.dtype == np.int64

    def test_rejects_duplicate_pair(self):
        with pytest.raises(DataError, match=r"duplicate \(instance, annotator\) pair"):
            AnnotationSet(ids("i", 2), ids("a", 2), 2,
                          instance_idx=[0, 1, 0], annotator_idx=[1, 0, 1], label_idx=[0, 0, 1])

    @pytest.mark.parametrize("field", ["instance_ids", "annotator_ids"])
    def test_rejects_a_repeated_id_naming_the_field(self, field):
        id_tuples = {"instance_ids": ("a", "b"), "annotator_ids": ("u", "v")}
        id_tuples[field] = ("x", "y", "x", "y")
        with pytest.raises(DataError, match=f"^{field} repeats id 'x'$"):
            AnnotationSet(n_labels=2, instance_idx=[0, 1], annotator_idx=[1, 0], label_idx=[0, 0],
                          **id_tuples)

    def test_sizes_are_the_lengths_of_the_ids(self):
        ann = AnnotationSet(("x", "y", "z"), ("u",), 2, [2], [0], [1])
        assert (ann.n_instances, ann.n_annotators, ann.n_pairs) == (3, 1, 1)
        assert ann.counts_per_instance().tolist() == [0, 0, 1]


class TestValidate:
    def _fixture(self):
        instances = [Instance(id=f"i{k}", features=np.array([0.0, float(k)])) for k in range(10)]
        ann = make_annotations([(i, j, 0) for i in range(10) for j in range(2)], 10, 2, 2)
        return instances, ann

    def test_consistent_fixture(self):
        instances, ann = self._fixture()
        assert validate(instances, ann) == []

    def test_out_of_range_instance(self):
        # caught when the set is built, before validate could see it
        with pytest.raises(DataError, match="999"):
            AnnotationSet(
                ids("i", 10), ("a0",), 2,
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
        empty = make_annotations([], 0, 0, 2)
        assert validate([], empty) == ["dataset has no instances"]

    def test_same_instance_ids_in_another_order(self):
        # a count check passes them, and each annotation would meet another instance's features
        instances, ann = self._fixture()
        instances[0], instances[1] = instances[1], instances[0]
        assert validate(instances, ann) == ["annotation set's instance 0 is 'i0', "
                                            "the dataset's is 'i1'"]

    def test_widths_that_do_not_stack(self):
        instances, ann = self._fixture()
        instances[3] = Instance(id="i3", features=np.array([0.0]))
        assert validate(instances, ann) == [
            "dense instances need one width of at least 1 feature, got [1, 2]"]


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
            inst_ids, ann_ids, 2,
            instance_idx=np.array([c[0] for c in chosen]),
            annotator_idx=np.array([c[1] for c in chosen]),
            label_idx=np.array([data.draw(st.integers(0, 1)) for _ in chosen]),
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
            inst_ids, ann_ids, len(labels),
            instance_idx=np.array([c[0] for c in chosen]),
            annotator_idx=np.array([c[1] for c in chosen]),
            label_idx=np.array([data.draw(label) for _ in chosen]),
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
            with pytest.raises(DataError, match=r"rel\.csv:\d+: score must be in \[0, 1\], got "):
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
        ann = AnnotationSet(("x", "y", "z"), ("a,1", "b"), 2, instance_idx=[2, 0, 1, 2],
                            annotator_idx=[1, 1, 0, 0], label_idx=[0, 1, 1, 0])
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
        first = load_annotations(path, binary_labels, ["a", "z"])
        second = load_annotations(path, binary_labels, ["a", "z"])
        assert first.annotator_ids == second.annotator_ids == ("u9", "u1")
        assert first.triples() == second.triples() == [(1, 0, 0), (0, 1, 1), (1, 1, 1)]

    def test_set_built_in_python_round_trips(self, tmp_path):
        # instance i1 has no annotation: the set keeps it, as the writers and readers do
        ann = make_annotations([(2, 1, 1), (0, 0, 0), (2, 0, 1)], 3, 2, 2)
        labels, scores = LabelSet(("no", "yes")), np.array([0.5, 1.0, 0.25])
        write_annotations(tmp_path / "ann.csv", ann, labels)
        write_scores(tmp_path / "rel.csv", ann, scores)
        loaded = load_annotations(tmp_path / "ann.csv", labels, ann.instance_ids,
                                  ann.annotator_ids)
        assert (loaded.instance_ids, loaded.annotator_ids) == (ann.instance_ids, ann.annotator_ids)
        assert loaded.triples() == ann.triples()
        np.testing.assert_array_equal(load_scores(tmp_path / "rel.csv", loaded), scores)


TWO_PAIRS = make_annotations([(0, 0, 0), (1, 0, 1)], 2, 1, 2)


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


class TestCheck:
    @pytest.mark.parametrize("value, rule", [
        (3, NON_NEGATIVE), (np.int64(3), NON_NEGATIVE), (np.uint8(0), NON_NEGATIVE),
        (1, PROBABILITY), (np.float32(0.5), PROBABILITY), (np.int64(0), PROBABILITY),
        ("x", TEXT), ("ds", one_of(("mv", "ds"))),
    ])
    def test_value_of_the_rules_type_passes_unchanged(self, value, rule):
        # any integer is an int and any real number a float, numpy scalars included
        assert check("v", value, rule) is value

    @pytest.mark.parametrize("value, rule, message", [
        (True, NON_NEGATIVE, "v must be of type int, got True"),
        (np.bool_(True), NON_NEGATIVE, f"v must be of type int, got {np.bool_(True)!r}"),
        (2.0, NON_NEGATIVE, "v must be of type int, got 2.0"),
        ("2", NON_NEGATIVE, "v must be of type int, got '2'"),
        (False, PROBABILITY, "v must be of type float, got False"),
        ("0.5", PROBABILITY, "v must be of type float, got '0.5'"),
        (None, PROBABILITY, "v must be of type float, got None"),
        (1, TEXT, "v must be of type str, got 1"),
        (["ds"], one_of(("mv", "ds")), "v must be of type str, got ['ds']"),
        (-1, NON_NEGATIVE, "v must be >= 0, got -1"),
        (float("nan"), PROBABILITY, "v must be in [0, 1], got nan"),
        ("", TEXT, "v must be non-empty, got ''"),
    ])
    def test_type_is_checked_before_the_test(self, value, rule, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            check("v", value, rule)

    @pytest.mark.parametrize("text, rule, value", [
        ("3", NON_NEGATIVE, 3), (" 0.25", PROBABILITY, 0.25), ("1", PROBABILITY, 1.0),
        ("a b", TEXT, "a b"),
    ])
    def test_parse_reads_the_rules_type(self, text, rule, value):
        got = parse("v", text, rule)
        assert got == value and type(got) is rule.type

    @pytest.mark.parametrize("text, rule, message", [
        ("1.5", NON_NEGATIVE, "cannot parse '1.5' as int"),
        ("", PROBABILITY, "cannot parse '' as float"),
        ("-1", NON_NEGATIVE, "v must be >= 0, got -1"),
        ("", TEXT, "v must be non-empty, got ''"),
    ])
    def test_parse_names_text_it_cannot_read_or_a_value_that_fails(self, text, rule, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            parse("v", text, rule)


def test_feature_matrix_requires_dense():
    with pytest.raises(DataError):
        feature_matrix([Instance(id="t", text="hello")])


def test_feature_matrix_refuses_widths_that_do_not_stack():
    instances = [Instance(id="a", features=np.zeros(2)), Instance(id="b", features=np.ones(1))]
    with pytest.raises(DataError, match=r"^dense instances need one width of at least 1 "
                                        r"feature, got \[1, 2\]$"):
        feature_matrix(instances)


@pytest.mark.parametrize("features, shape", [(np.zeros((1, 2)), "(1, 2)"),
                                             (np.float64(0.5), "()")])
def test_instance_features_must_be_1d(features, shape):
    with pytest.raises(DataError, match=f"^instance 'a': features must be 1-D, "
                                        f"got shape {re.escape(shape)}$"):
        Instance(id="a", features=features)


@pytest.mark.parametrize("payload, fault", [
    ({"features": np.array(["x", "y"])}, "features must be numbers, got dtype <U1"),
    ({"features": np.array([True, False])}, "features must be numbers, got dtype bool"),
    ({"text": 5}, "text must be a str, got 5"),
    ({"text": "a", "text2": 5}, "text2 must be a str, got 5"),
], ids=["strings", "bools", "text", "text2"])
def test_instance_payload_of_another_type_is_named(payload, fault):
    with pytest.raises(DataError, match=f"^instance 'a': {re.escape(fault)}$"):
        Instance(id="a", **payload)


@pytest.mark.parametrize("value, fault", [
    ("abc", "cannot parse 'abc' as float"),
    ("nan", "score must be in [0, 1], got nan"),
    ("1.5", "score must be in [0, 1], got 1.5"),
])
def test_score_that_is_no_probability_names_file_and_line(tmp_path, value, fault):
    ann = make_annotations([(0, 0, 0), (1, 0, 1)], 2, 1, 2)
    path = tmp_path / "rel.csv"
    path.write_text(f"instance_id,annotator_id,score\ni0,a0,0.25\ni1,a0,{value}\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: {fault}')}$"):
        load_scores(path, ann)
    path.write_text("instance_id,annotator_id,score\ni0,a0,0.25\ni1,a0,1\n")
    np.testing.assert_array_equal(load_scores(path, ann), [0.25, 1.0])
