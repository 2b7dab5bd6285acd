"""Synthetic generation, CSV round trips, and the stratified split."""

import numpy as np
import pytest

from ballot.data import (
    Dataset,
    DatasetSpec,
    Split,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    make_dataset,
    save_csv,
)
from ballot.errors import ConfigurationError, DataError
from ballot.pipeline import TrainConfig, train_dense


def synth(**overrides):
    base = dict(classes=3, counts=(30, 12, 12), dim=4, std=0.8, seed=1)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSynthetic:
    def test_reference_histogram(self):
        x, y = gen_synthetic(SyntheticSpec())
        assert x.shape == (1000, 20)
        assert np.bincount(y).tolist() == [700, 100, 100, 100]

    def test_deterministic(self):
        a = gen_synthetic(synth())
        b = gen_synthetic(synth())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_data(self):
        a = gen_synthetic(synth())
        b = gen_synthetic(synth(seed=2))
        assert not np.array_equal(a[0], b[0])

    def test_class_means_separated(self):
        x, y = gen_synthetic(synth(std=0.0))
        # with zero noise every sample sits on its class mean
        for c in range(3):
            rows = x[y == c]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
            assert np.linalg.norm(rows[0]) == pytest.approx(3.0, rel=1e-12)

    def test_noiseless_classes_are_learnable(self):
        spec = DatasetSpec(
            synthetic=SyntheticSpec(classes=2, counts=(10, 10), dim=4,
                                    std=0.0, seed=1)
        )
        cfg = TrainConfig(hidden=(8,), epochs=6, rewind_epoch=2,
                          batch_size=8, seed=0)
        (arts,) = train_dense(cfg, make_dataset(spec), [cfg.seed])
        assert arts.dense_report.accuracy == 1.0
        assert arts.dense_report.cwv == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            synth(classes=1, counts=(5,))
        with pytest.raises(ConfigurationError):
            synth(counts=(5, 5))
        with pytest.raises(ConfigurationError):
            synth(counts=(30, 12, 1))
        with pytest.raises(ConfigurationError):
            synth(dim=0)
        with pytest.raises(ConfigurationError):
            synth(mean_scale=0.0)
        with pytest.raises(ConfigurationError):
            synth(std=-0.1)
        with pytest.raises(ConfigurationError):
            synth(seed=-1)


class TestCsv:
    def test_export_is_byte_deterministic(self, tmp_path):
        x, y = gen_synthetic(synth())
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(x, y, pa)
        save_csv(x, y, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_round_trip_exact(self, tmp_path):
        x, y = gen_synthetic(synth())
        path = tmp_path / "d.csv"
        save_csv(x, y, path)
        x2, y2 = load_csv(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)

    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1.5,2,0\n-1,0.25,1\n3,4,1\n0,0,0\n")
        x, y = load_csv(path)
        assert x.shape == (4, 2)
        assert y.tolist() == [0, 1, 1, 0]
        assert x[0].tolist() == [1.5, 2.0]

    def test_custom_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("target,f\n0,1.0\n1,2.0\n")
        x, y = load_csv(path, label_column="target")
        assert x.tolist() == [[1.0], [2.0]]
        assert y.tolist() == [0, 1]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="label column 'label' not found"):
            load_csv(path)

    def test_label_gap_reports_line(self, tmp_path):
        # distinct labels {0, 1, 7}: three classes, so 7 is out of range
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n2,1\n3,7\n4,0\n")
        with pytest.raises(DataError, match=r"label 7 at line 4 is outside 0\.\.2"):
            load_csv(path)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n1,oops,1\n")
        with pytest.raises(DataError,
                           match="non-numeric value 'oops' in column 'b' at line 3"):
            load_csv(path)

    def test_non_numeric_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,x\n")
        with pytest.raises(DataError, match="non-numeric label 'x' at line 2"):
            load_csv(path)

    def test_fractional_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0.5\n")
        with pytest.raises(DataError, match="not a non-negative integer"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n1,0\n")
        with pytest.raises(DataError, match="row at line 3 has 2 cells"):
            load_csv(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\ninf,0\n1,1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_and_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="is empty"):
            load_csv(path)
        path.write_text("a,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)


class TestSplit:
    def test_counts_round_then_clamp(self):
        ds = make_dataset(DatasetSpec(synthetic=synth()))
        # class 0: round(0.8 * 30) = 24; classes 1, 2: round(9.6) = 10
        assert np.bincount(ds.train.y).tolist() == [24, 10, 10]
        assert np.bincount(ds.test.y).tolist() == [6, 2, 2]
        assert ds.n_classes == 3
        assert ds.dim == 4

    def test_split_indices_preserve_order(self):
        # indices are sorted, and the generator groups class 0 first,
        # so labels come out non-decreasing
        ds = make_dataset(DatasetSpec(synthetic=synth()))
        assert (np.diff(ds.train.y) >= 0).all()
        assert (np.diff(ds.test.y) >= 0).all()

    def test_every_class_in_both_splits(self):
        ds = make_dataset(DatasetSpec(synthetic=synth(counts=(5, 3, 2)),
                                      split=0.8))
        assert set(ds.train.y) == {0, 1, 2}
        assert set(ds.test.y) == {0, 1, 2}

    def test_deterministic(self):
        a = make_dataset(DatasetSpec(synthetic=synth()))
        b = make_dataset(DatasetSpec(synthetic=synth()))
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test.y, b.test.y)

    def test_csv_split_deterministic(self, tmp_path):
        x, y = gen_synthetic(synth(seed=5))
        path = tmp_path / "d.csv"
        save_csv(x, y, path)
        a = make_dataset(DatasetSpec(csv_path=str(path)))
        b = make_dataset(DatasetSpec(csv_path=str(path)))
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test.X, b.test.X)

    def test_singleton_class_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n2,0\n3,1\n")
        with pytest.raises(DataError, match="class 1 has fewer than 2 samples"):
            make_dataset(DatasetSpec(csv_path=str(path)))

    def test_no_overlap_and_full_coverage(self):
        spec = synth()
        x, _ = gen_synthetic(spec)
        ds = make_dataset(DatasetSpec(synthetic=spec))
        combined = np.concatenate([ds.train.X, ds.test.X])
        assert combined.shape == x.shape
        # every original row lands in exactly one split
        seen = {tuple(r) for r in combined}
        assert seen == {tuple(r) for r in x}


class TestNormalize:
    def test_matches_train_statistics(self):
        spec = synth()
        raw = make_dataset(DatasetSpec(synthetic=spec, normalize=False))
        norm = make_dataset(DatasetSpec(synthetic=spec, normalize=True))
        mu = raw.train.X.mean(axis=0)
        sd = raw.train.X.std(axis=0)
        sd[sd == 0.0] = 1.0
        assert np.array_equal(norm.train.X, (raw.train.X - mu) / sd)
        assert np.array_equal(norm.test.X, (raw.test.X - mu) / sd)
        assert np.array_equal(norm.train.y, raw.train.y)

    def test_constant_column_divides_by_one(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "a,b,label\n"
            "5.0,1.0,0\n5.0,2.0,0\n5.0,3.0,1\n5.0,4.0,1\n"
        )
        ds = make_dataset(DatasetSpec(csv_path=str(path), normalize=True))
        assert (ds.train.X[:, 0] == 0.0).all()
        assert (ds.test.X[:, 0] == 0.0).all()
        assert np.isfinite(ds.train.X).all()


class TestSpecValidation:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            DatasetSpec()
        with pytest.raises(ConfigurationError, match="exactly one"):
            DatasetSpec(csv_path="x.csv", synthetic=synth())

    def test_split_bounds(self):
        with pytest.raises(ConfigurationError, match="split"):
            DatasetSpec(synthetic=synth(), split=0.0)
        with pytest.raises(ConfigurationError, match="split"):
            DatasetSpec(synthetic=synth(), split=1.0)

    def test_nested_synthetic_validated(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(synthetic=synth(dim=0))


class TestTrainOneHot:
    def test_labels_outside_the_classes_rejected(self):
        # a label of n_classes or more cannot be one-hot encoded, and a
        # negative one would silently index from the end
        x = np.zeros((3, 2))
        for labels in ([0, 1, 2], [0, -1, 1]):
            ds = Dataset(train=Split(x, np.array(labels)),
                         test=Split(x, np.array([0, 1, 1])), n_classes=2, dim=2)
            with pytest.raises(DataError, match="0..1"):
                ds.train_onehot
