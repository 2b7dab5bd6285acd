"""Synthetic generation, CSV round trips, and the stratified split."""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ballot import data
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
from ballot.model import FORWARD_BLOCK_ROWS
from ballot.pipeline import TrainConfig, train_dense

from conftest import load_csv_rows, write_undecodable_at_block_edge


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
        # for training, which takes its classes from the file
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n2,1\n3,7\n4,0\n")
        with pytest.raises(DataError, match=r"label 7 at line 4 is outside 0\.\.2"):
            make_dataset(DatasetSpec(csv_path=str(path)))

    def test_label_gap_loads(self, tmp_path):
        # which labels form the classes is the caller's rule
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n2,1\n3,7\n4,0\n")
        assert load_csv(path)[1].tolist() == [0, 1, 7, 0]

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

    def test_long_feature_cell_is_data_error(self, tmp_path):
        # a non-numeric cell over the csv module's field size limit
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\n" + "x" * 200_000 + ",1\n2,0\n")
        with pytest.raises(DataError, match="malformed CSV at line 3: field larger"):
            load_csv(path)

    @pytest.mark.parametrize("tail", ["", "x,1\n"])
    def test_long_numeric_cell_fails_in_both_passes(self, tmp_path, tail):
        # the cell is a number np.loadtxt would read (as 0.0), but the csv
        # module refuses it, so the file fails whichever pass reads it
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n0." + "0" * 200_000 + "1,0\n1.0,1\n" + tail)
        assert same_outcome(path) == (
            "error", "malformed CSV at line 2: field larger than field limit (131072)")

    def test_long_header_cell_is_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a" * 200_000 + ",label\n1,0\n2,1\n")
        with pytest.raises(DataError, match="malformed CSV at line 1: field larger"):
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


# finite float64 values, weighted toward signed zeros, subnormals and
# the ends of the range
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.225073858507201e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1.7e308, -1.79e308]),
)
# cells and line endings for files that may or may not parse
CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "-0", "1.0", "0.5", "1e300", "-1", "nan",
                     "inf", "-Infinity", '"1"', "1_0", "#", "", " 1 ", "1e",
                     "\xa01", "\x0c2", "٣", "0x1", "9223372036854775808"]),
    st.text(alphabet='0123456789.+-eE_ "#infaNI', max_size=6),
)
ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\n\n", ""])
# row counts at and around the edges of the first two blocks
BLOCK_EDGES = st.sampled_from([FORWARD_BLOCK_ROWS - 1, FORWARD_BLOCK_ROWS,
                               FORWARD_BLOCK_ROWS + 1, 2 * FORWARD_BLOCK_ROWS + 1])


def same_outcome(path):
    """load_csv and the row-wise reference agree: equal bits, or the
    same DataError message."""
    outcomes = []
    for loader in (load_csv, load_csv_rows):
        try:
            x, y = loader(path)
            outcomes.append(("ok", x.shape, x.dtype, x.tobytes(), y.dtype, y.tobytes(),
                             x.flags.c_contiguous))
        except DataError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestCsvFastPath:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.integers(1, 6), BLOCK_EDGES).flatmap(lambda n: st.tuples(
               hnp.arrays(np.float64, st.tuples(st.just(n), st.integers(1, 4)),
                          elements=FLOATS),
               hnp.arrays(np.int64, n, elements=st.integers(0, 9)),
               hnp.arrays(np.int64, n, elements=st.integers(0, 9)))),
           st.data())
    def test_bit_equal_to_row_parser(self, tmp_path, arrays, draw):
        x, first, last = arrays
        at = draw.draw(st.integers(0, x.shape[1]), label="label position")
        table = np.insert(x, at, first, axis=1)
        path = tmp_path / "d.csv"
        save_csv(table, last, path)
        got = load_csv(path)
        assert same_outcome(path)[0] == "ok"
        assert got[0].tobytes() == table.tobytes()
        assert got[1].tobytes() == last.tobytes()
        # the label column anywhere but last
        got = load_csv(path, label_column=f"f{at}")
        ref = load_csv_rows(path, label_column=f"f{at}")
        want = np.column_stack([x, last.astype(np.float64)])
        assert got[0].tobytes() == ref[0].tobytes() == want.tobytes()
        assert got[1].tobytes() == ref[1].tobytes() == first.tobytes()
        assert got[0].flags.c_contiguous

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.lists(st.tuples(CELLS, CELLS, CELLS, ENDINGS), min_size=1, max_size=4),
        st.text(alphabet='01.5e-"#,\n\r na', max_size=30),
    ))
    def test_any_text_same_as_row_parser(self, tmp_path, body):
        if isinstance(body, list):
            body = "".join(f"{a},{b},{c}{end}" for a, b, c, end in body)
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,label\n" + body).encode())
        same_outcome(path)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(BLOCK_EDGES, st.lists(st.tuples(CELLS, CELLS, CELLS, ENDINGS),
                                 min_size=1, max_size=3),
           st.integers(0, FORWARD_BLOCK_ROWS + 1))
    def test_text_across_block_edges_same_as_row_parser(self, tmp_path, before,
                                                        body, after):
        # drawn lines after ``before`` good ones, so they fall at or near
        # a block edge, and ``after`` good ones behind them
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,label\n" + "0.5,-1,0\n" * before
                          + "".join(f"{a},{b},{c}{end}" for a, b, c, end in body)
                          + "2,1e-3,1\n" * after).encode())
        same_outcome(path)

    def test_fast_path_taken_on_save_csv_output(self, tmp_path, monkeypatch):
        x, y = gen_synthetic(synth())
        path = tmp_path / "d.csv"
        save_csv(x, y, path)

        def row_parser(*args):
            raise AssertionError("row-wise parser called")

        monkeypatch.setattr(data, "_row_blocks", row_parser)
        x2, y2 = load_csv(path)
        assert x2.tobytes() == x.tobytes() and y2.tobytes() == y.tobytes()

    def test_quoted_last_line_resumes_at_its_block(self, tmp_path, monkeypatch):
        # two and a half blocks: two load in C, and the row-wise parser
        # reads only the third, which holds the quoted cell
        done, half = 2 * FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS // 2
        x, y = gen_synthetic(synth(counts=(done - half, half, half)))
        path = tmp_path / "d.csv"
        save_csv(x, y, path)
        *lines, last = path.read_text().splitlines(keepends=True)
        first, rest = last.split(",", 1)
        path.write_text("".join(lines) + f'"{first}",{rest}')
        ref = load_csv_rows(path)
        real_parse, starts = data._parse_rows, []

        def counted_parse(reader, header, label_idx, first_line):
            for row in real_parse(reader, header, label_idx, first_line):
                starts.append(first_line)
                yield row

        monkeypatch.setattr(data, "_parse_rows", counted_parse)
        got = load_csv(path)
        assert got[0].tobytes() == ref[0].tobytes() == x.tobytes()
        assert got[1].tobytes() == ref[1].tobytes() == y.tobytes()
        assert starts == [done + 2] * (y.size - done)

    def test_error_after_loaded_blocks_names_its_line(self, tmp_path):
        # line numbers of the row-wise pass count the rows loaded before it:
        # the header, two blocks and five rows precede the bad line
        good = "0.5,1\n" * (2 * FORWARD_BLOCK_ROWS + 5)
        line = 2 * FORWARD_BLOCK_ROWS + 7
        path = tmp_path / "d.csv"
        for bad, message in (("x" * 200_000 + ",1\n", f"malformed CSV at line {line}: "),
                             ('"1",0\n2,0.5\n', f"label '0.5' at line {line + 1} is not"),
                             ('1,"0\n"\n2,x\n', f"row at line {line} runs onto the next")):
            path.write_text("a,label\n" + good + bad)
            assert same_outcome(path)[1].startswith(message)

    @pytest.mark.parametrize("text, message", [
        ("a,label\n1,0\n\n2,1\n", "row at line 3 has 0 cells, expected 2"),
        ("a,label\n1,0\n2,1\n\n", "row at line 4 has 0 cells, expected 2"),
        ("a,label\n1,0\n#,1\n", "non-numeric value '#' in column 'a' at line 3"),
        ("a,label\n1,0\n2,#\n", "non-numeric label '#' at line 3"),
        ("a,label\n1,0\n2,1#x\n", "non-numeric label '1#x' at line 3"),
        ("a,label\nnan,0\n1,1\n", "non-finite feature value in CSV"),
        ("a,label\n1,0\n2,nan\n", "label 'nan' at line 3 is not a non-negative integer"),
        ("a,label\n1,0\n2,0.5\n", "label '0.5' at line 3 is not a non-negative integer"),
        ("a,label\n1,0\n2,-1\n", "label '-1' at line 3 is not a non-negative integer"),
        ("a,label\n1,1e300\n", "label '1e300' at line 2 is too large"),
        ("a,label\n1,9223372036854775808\n",
         "label '9223372036854775808' at line 2 is too large"),
        # a record is one line: a quoted line break is named at its first line
        ('a,label\n"1\n",0\n2,0\nx,1\n', "row at line 2 runs onto the next line"),
        ('a,label\n1,0\n2,"0\r\n"\n', "row at line 3 runs onto the next line"),
        ('"a\n",label\n1,0\n', "header at line 1 runs onto the next line"),
        ("label\n0\n1\n", "no feature columns besides the label"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert same_outcome(path) == ("error", message)

    @pytest.mark.parametrize("text, x, y", [
        ('a,label\n"1",0\n2,"1"\n', [[1.0], [2.0]], [0, 1]),
        ("a,label\n1_0,0\n2,1\n", [[10.0], [2.0]], [0, 1]),
        ("a,label\r\n1,0\r\n-0,1\r\n", [[1.0], [-0.0]], [0, 1]),
        ("a,label\n1,-0\n2,9223372036854774784\n", [[1.0], [2.0]],
         [0, 9223372036854774784]),
    ])
    def test_loads_what_float_accepts(self, tmp_path, text, x, y):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert same_outcome(path)[0] == "ok"
        got_x, got_y = load_csv(path)
        assert got_x.tobytes() == np.array(x).tobytes()
        assert got_y.tolist() == y

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,label\n1,0\n\xff,1\n")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(path)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_undecodable_block_start_is_not_the_end_of_the_file(self, tmp_path, blocks):
        # the bad byte opens a block and a decoder chunk: no line of that
        # block is read, which must not pass for an empty read
        path = tmp_path / "d.csv"
        write_undecodable_at_block_edge(path, blocks)
        outcome = same_outcome(path)
        assert outcome[0] == "error" and outcome[1].startswith(f"cannot read {path}: ")
        with pytest.raises(DataError) as raised:
            list(data.csv_blocks(path))
        assert str(raised.value) == outcome[1]

    @pytest.mark.parametrize("before", [0, 3, 100])
    def test_bad_row_ahead_of_an_undecodable_byte_wins(self, tmp_path, before):
        # the block after two loaded ones holds, ``before`` rows in, a bad
        # row, then 100 rows of 105 bytes, then the bad byte: the block's
        # read stops at that byte, more than a decoder chunk past the row
        path = tmp_path / "d.csv"
        head = "a,label\n" + "0.5,1\n" * (2 * FORWARD_BLOCK_ROWS + before)
        long = ("0." + "2" * 100 + ",0\n") * 100
        path.write_bytes((head + "2,x\n" + long).encode() + b"\xff,1\n" + b"1,1\n" * 9)
        line = 2 * FORWARD_BLOCK_ROWS + before + 2
        assert same_outcome(path) == ("error", f"non-numeric label 'x' at line {line}")
        # a bad row after the bad byte is never reached
        path.write_bytes((head + long).encode() + b"\xff,1\n2,x\n")
        assert same_outcome(path)[1].startswith(f"cannot read {path}: 'utf-8' codec")

    def test_each_line_is_read_once(self, tmp_path, monkeypatch):
        # the quoted cell sends the third block to the row-wise pass,
        # which goes on from the lines in hand: no line is read again
        done = 2 * FORWARD_BLOCK_ROWS
        path = tmp_path / "d.csv"
        path.write_text("a,label\n" + "0.5,1\n" * (done + 3) + '"2",0\n' + "1,1\n" * 9)
        real_reading, seen = data.reading, []

        def noted(fh):
            for line in fh:
                seen.append(line)
                yield line

        @contextlib.contextmanager
        def counted_reading(*args, **kwargs):
            with real_reading(*args, **kwargs) as fh:
                yield noted(fh)

        monkeypatch.setattr(data, "reading", counted_reading)
        x, y = load_csv(path)
        assert seen == path.read_text().splitlines(keepends=True)
        assert y.size == done + 13 and x[done + 3].tolist() == [2.0]


class TestSplit:
    def test_distinct_matches_np_unique(self):
        rng = np.random.default_rng(5)
        top = np.iinfo(np.int64).max
        for size in (0, 1, 7, 1000):
            y = rng.integers(0, 40, size)
            y[: size // 3] = top - rng.integers(0, 3, size // 3)
            rng.shuffle(y)
            got = data._distinct(y)
            assert got.dtype == y.dtype and got.tobytes() == np.unique(y).tobytes()

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
