import io
import json
import pickle

import numpy as np
import pytest

from bnsjump import tables
from bnsjump.classifiers import (
    benchmark,
    evaluate,
    fit_and_score,
    format_benchmark_text,
    load_external_predictions,
    run_benchmark,
    write_benchmark_csv,
)
from bnsjump.errors import InvalidParameterError, ParseError
from bnsjump.labeling import LabeledDataset, SplitSpec, split

FAST_ALGS = ["knn", "naive_bayes_gaussian", "decision_tree"]
FAST_HP = {"random_forest": {"trees": 10}, "gradient_boost": {"rounds": 10},
           "neural_net": {"epochs": 40}}


def noisy_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    w = rng.normal(size=6)
    y = ((X @ w + rng.normal(0, 0.8, n)) > 0.2).astype(int)
    return LabeledDataset(anchor_index=np.arange(n), features=X, theta=y)


class TestRunBenchmark:
    def test_single_cell(self):
        ds = noisy_dataset()
        cells = run_benchmark(ds, [SplitSpec(train=(0, 299), test=(300, 399), name="T1")],
                              algorithms=["knn"])
        assert len(cells) == 1
        assert cells[0].split_name == "T1"
        assert cells[0].report.n == 100

    def test_supports_constant_within_split(self):
        ds = noisy_dataset()
        splits = [SplitSpec(train=(0, 199), test=(200, 299), name="A"),
                  SplitSpec(train=(0, 299), test=(300, 399), name="B")]
        cells = run_benchmark(ds, splits, algorithms=FAST_ALGS, seed=1)
        assert len(cells) == 6
        for name in ("A", "B"):
            supports = {c.report.supports() for c in cells if c.split_name == name}
            assert len(supports) == 1

    def test_thread_count_does_not_change_reports(self):
        ds = noisy_dataset(seed=5)
        splits = [SplitSpec(train=(0, 249), test=(250, 399), name="T")]
        serial = run_benchmark(ds, splits, FAST_ALGS, seed=3, max_workers=1)
        threaded = run_benchmark(ds, splits, FAST_ALGS, seed=3, max_workers=4)
        for a, b in zip(serial, threaded):
            assert a.algorithm == b.algorithm
            assert a.report == b.report

    def test_external_passthrough_scores_like_evaluate(self, tmp_path):
        ds = noisy_dataset(seed=7)
        spec = SplitSpec(train=(0, 299), test=(300, 399), name="T")
        rng = np.random.default_rng(11)
        test_idx = np.arange(300, 400)
        labels = rng.integers(0, 2, len(test_idx))
        path = tmp_path / "preds.csv"
        path.write_text("index,predicted_theta\n"
                        + "".join(f"{i},{l}\n" for i, l in zip(test_idx, labels)),
                        encoding="utf-8")
        external = {"lstm": load_external_predictions(path)}
        cells = run_benchmark(ds, [spec], algorithms=["knn"], external=external)
        ext_cell = [c for c in cells if c.algorithm == "external:lstm"][0]
        want = evaluate(labels, ds.theta[300:400])
        assert ext_cell.report == want

    def test_external_missing_index_rejected(self, tmp_path):
        ds = noisy_dataset(seed=7)
        path = tmp_path / "preds.csv"
        path.write_text("index,predicted_theta\n300,1\n", encoding="utf-8")
        with pytest.raises(InvalidParameterError):
            run_benchmark(ds, [SplitSpec(train=(0, 299), test=(300, 399), name="T")],
                          algorithms=["knn"],
                          external={"x": load_external_predictions(path)})

    def test_external_repeated_index_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("index,predicted_theta\n5,1\n5,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 3: index 5 repeated$"):
            load_external_predictions(path)

    def test_nothing_to_score_rejected(self):
        """No algorithms is valid only beside external predictions."""
        ds = noisy_dataset()
        spec = SplitSpec(train=(0, 299), test=(300, 399), name="T")
        with pytest.raises(InvalidParameterError, match="no algorithms and no external"):
            run_benchmark(ds, [spec], algorithms=[])
        external = {"all_ones": {i: 1 for i in range(300, 400)}}
        cells = run_benchmark(ds, [spec], algorithms=[], external=external)
        assert [c.algorithm for c in cells] == ["external:all_ones"]

    @pytest.mark.parametrize("names", [("A", "A"), ("S2", None)], ids=["named", "defaulted"])
    def test_repeated_split_name_rejected(self, names):
        """Two splits of one name, given or defaulted to S<position>, are
        refused before any cell runs, with the external rows as well."""
        ds = noisy_dataset()
        splits = [SplitSpec(train=(0, 199), test=(200, 299), name=names[0]),
                  SplitSpec(train=(0, 299), test=(300, 399), name=names[1])]
        with pytest.raises(InvalidParameterError, match=f"^split name {names[0]} repeated$"):
            run_benchmark(ds, splits, algorithms=["knn"],
                          external={"all_ones": {i: 1 for i in range(200, 400)}})

    def test_each_split_lists_its_built_ins_then_its_external_rows(self):
        ds = noisy_dataset()
        splits = [SplitSpec(train=(0, 199), test=(200, 299), name="B"),
                  SplitSpec(train=(0, 299), test=(300, 399), name="A")]
        external = {"ones": {i: 1 for i in range(200, 400)}, "zeros": {i: 0 for i in range(200, 400)}}
        cells = run_benchmark(ds, splits, algorithms=["knn", "decision_tree"], external=external,
                              max_workers=2)
        assert [(c.split_name, c.algorithm) for c in cells] == [
            (name, alg) for name in ("B", "A")
            for alg in ("knn", "decision_tree", "external:ones", "external:zeros")]

    @pytest.mark.parametrize("spec,line", [
        (SplitSpec(train=(0, 399), test=None, name="T"), "split T has no test range"),
        (SplitSpec(train=(0, 299), test=(300, 319), name="T"), "test range 300..319 selects no anchors"),
    ], ids=["no-test-range", "no-test-anchors"])
    def test_empty_split_rejected(self, spec, line):
        ds = noisy_dataset()
        ds = LabeledDataset(anchor_index=np.r_[0:300, 320:400], features=ds.features[:380],
                            theta=ds.theta[:380])
        with pytest.raises(InvalidParameterError, match=f"^{line}$"):
            run_benchmark(ds, [spec], algorithms=["knn"])


class TestCell:
    """``run_benchmark`` cells are ``fit_and_score`` calls, one per job."""

    SPLITS = [SplitSpec(train=(0, 199), test=(200, 299), name="A"),
              SplitSpec(train=(0, 299), test=(300, 399), name="B")]
    ALGS = ["random_forest", "knn", "neural_net"]
    HP = {"random_forest": {"trees": 3}, "neural_net": {"epochs": 5}}

    def test_each_cell_is_fit_and_score_with_its_derived_seed(self):
        """Seeded learners see ``(seed, split position, algorithm position)``."""
        ds = noisy_dataset(seed=9)
        cells = run_benchmark(ds, self.SPLITS, self.ALGS, self.HP, seed=4, max_workers=2)
        assert len(cells) == len(self.SPLITS) * len(self.ALGS)
        for si, spec in enumerate(self.SPLITS):
            train_set, test_set = split(ds, spec)
            for ai, alg in enumerate(self.ALGS):
                want = fit_and_score(spec.name, alg, train_set, test_set, self.HP.get(alg),
                                     (4, si, ai))
                assert cells[si * len(self.ALGS) + ai] == want, (spec.name, alg)
        # the derived seed matters: the forest scores differently under another one
        other = fit_and_score("A", "random_forest", *split(ds, self.SPLITS[0]),
                              self.HP["random_forest"], (4, 1, 0))
        assert other.report != cells[0].report

    def test_no_test_rows_give_no_report(self):
        ds = noisy_dataset()
        train_set, test_set = split(ds, SplitSpec(train=(0, 399)))
        cell = fit_and_score("T", "knn", train_set, test_set, None, 0)
        assert cell.report is None
        assert cell.hyperparams["k"] == 5
        assert cell.degenerate is False

    def test_single_class_training_range_is_flagged_degenerate(self):
        ds = noisy_dataset()
        ds = LabeledDataset(anchor_index=ds.anchor_index, features=ds.features,
                            theta=np.r_[np.zeros(100, dtype=int), ds.theta[100:]])
        spec = SplitSpec(train=(0, 99), test=(100, 399), name="T")
        with pytest.warns(UserWarning, match="contains only class 0"):
            cells = run_benchmark(ds, [spec], algorithms=["knn", "decision_tree"])
        assert [c.degenerate for c in cells] == [True, True]
        assert cells[0].report.class1.recall == 0.0
        assert not any(c.degenerate for c in run_benchmark(ds, self.SPLITS[:1], ["knn"]))

    def test_mapped_function_and_jobs_pickle(self, monkeypatch):
        """A process pool can send what ``run_benchmark`` maps; a closure
        could not be sent."""
        seen = []

        def spy(fn, items, workers):
            seen.append((fn, list(items)))
            return map(fn, seen[-1][1])

        monkeypatch.setattr(benchmark, "ordered_map", spy)
        cells = run_benchmark(noisy_dataset(), self.SPLITS, ["knn"], seed=2)
        (fn, jobs), = seen
        assert len(jobs) == len(cells) == 2
        assert pickle.loads(pickle.dumps(fn)) is fn
        assert pickle.loads(pickle.dumps(fn))(pickle.loads(pickle.dumps(jobs[1]))) == cells[1]


class TestSerialization:
    def _cells(self):
        ds = noisy_dataset(seed=2)
        return run_benchmark(ds, [SplitSpec(train=(0, 299), test=(300, 399), name="T1")],
                             algorithms=FAST_ALGS)

    def test_csv_header_and_rows(self):
        cells = self._cells()
        buf = io.StringIO()
        write_benchmark_csv(buf, cells)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ("split,algorithm,precision0,recall0,f1_0,support0,"
                            "precision1,recall1,f1_1,support1")
        assert len(lines) == 1 + len(cells)

    def test_numpy_hyperparams_dump_as_json(self):
        """A numpy integer override is held as an ``int``, so the cells'
        hyperparameters dump as hyperparams_used.json does."""
        ds = noisy_dataset(seed=2)
        bank = {"knn": {"k": np.int64(3)}, "naive_bayes_gaussian": {"variance_floor": np.float32(0.5)}}
        cells = run_benchmark(ds, [SplitSpec(train=(0, 299), test=(300, 399), name="T1")],
                              algorithms=list(bank), hyperparams_bank=bank)
        assert type(cells[0].hyperparams["k"]) is int
        assert json.loads(tables.dumps({c.algorithm: c.hyperparams for c in cells})) == {
            "knn": {"k": 3, "standardize": True},
            "naive_bayes_gaussian": {"variance_floor": 0.5, "standardize": True}}

    def test_text_table_contains_all_algorithms(self):
        cells = self._cells()
        text = format_benchmark_text(cells)
        assert "== split T1 ==" in text
        for alg in FAST_ALGS:
            assert alg in text
