"""Config parsing: defaults, dotted-path errors, and the effective echo."""

import json
import re
from pathlib import Path

import pytest

from ballot.config import config_from_dict, effective_dict, load_config
from ballot.data import DatasetSpec, SyntheticSpec
from ballot.errors import ConfigurationError
from ballot.pipeline import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def parse(**sections):
    return config_from_dict(dict(sections))


class TestDefaults:
    def test_empty_object_is_complete(self):
        app = config_from_dict({})
        t = app.train
        assert t.hidden == (64, 64)
        assert t.epochs == 30
        assert t.lr0 == 0.1
        assert t.milestone_fractions == (0.4, 0.6, 0.8)
        assert t.batch_size == 32
        assert t.omega == 0.05
        assert t.gamma == 10.0
        assert t.eta == 0.95
        assert t.rewind_epoch == 10
        assert t.epsilon == 0.05
        assert t.delta == 0.0
        assert t.max_rounds == 3
        assert t.seed == 0
        assert app.method == "ballot"
        d = app.dataset
        assert d.csv_path is None
        assert d.split == 0.8
        assert d.normalize is False
        assert d.synthetic.counts == (700, 100, 100, 100)
        assert d.synthetic.dim == 20
        assert d.synthetic.classes == 4

    def test_default_rewind_clamps_to_short_runs(self):
        app = parse(train={"epochs": 5})
        assert app.train.rewind_epoch == 4

    def test_explicit_rewind_respected(self):
        app = parse(refine={"rewind_epoch": 3})
        assert app.train.rewind_epoch == 3

    def test_classes_inferred_from_counts(self):
        app = parse(data={"synthetic": {"counts": [10, 10, 10]}})
        assert app.dataset.synthetic.classes == 3

    @pytest.mark.parametrize("data", [{}, {"csv_path": "d.csv"}],
                             ids=["synthetic", "csv"])
    def test_null_synthetic_section_equals_an_omitted_one(self, data):
        # null selects no generator: the defaults without csv_path, none with it
        assert parse(data={**data, "synthetic": None}) == parse(data=data)


class TestRejections:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError,
                           match="unknown configuration key 'fuo'"):
            parse(fuo=1)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigurationError,
                           match="unknown configuration key 'train.fuo'"):
            parse(train={"fuo": 1})
        with pytest.raises(ConfigurationError,
                           match="unknown configuration key 'data.synthetic.sd'"):
            parse(data={"synthetic": {"sd": 1}})

    def test_eta_upper_bound_open(self):
        with pytest.raises(ConfigurationError, match="'prune.eta'"):
            parse(prune={"eta": 1.5})
        with pytest.raises(ConfigurationError, match="'prune.eta'"):
            parse(prune={"eta": 1.0})
        with pytest.raises(ConfigurationError, match="'prune.eta'"):
            parse(prune={"eta": 0.0})

    def test_omega_bounds(self):
        with pytest.raises(ConfigurationError, match="'prune.omega'"):
            parse(prune={"omega": 0.0})
        with pytest.raises(ConfigurationError, match="'prune.omega'"):
            parse(prune={"omega": 1.2})
        assert parse(prune={"omega": 1.0}).train.omega == 1.0

    def test_rewind_must_stay_below_epochs(self):
        with pytest.raises(
            ConfigurationError,
            match=r"must be below train.epochs \(30\), got 50",
        ):
            parse(refine={"rewind_epoch": 50}, train={"epochs": 30})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError,
                           match="'prune.method' must be one of"):
            parse(prune={"method": "snip"})

    def test_counts_classes_mismatch(self):
        with pytest.raises(ConfigurationError, match="3 entries for 4 classes"):
            parse(data={"synthetic": {"classes": 4, "counts": [5, 5, 5]}})

    def test_sources_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            parse(data={"csv_path": "d.csv", "synthetic": {}})

    def test_type_errors(self):
        with pytest.raises(ConfigurationError, match="'train.epochs'"):
            parse(train={"epochs": 2.5})
        with pytest.raises(ConfigurationError, match="'train.epochs'"):
            parse(train={"epochs": True})
        with pytest.raises(ConfigurationError, match="'train.lr0'"):
            parse(train={"lr0": 0})
        with pytest.raises(ConfigurationError, match="'train.batch'"):
            parse(train={"batch": 0})
        with pytest.raises(ConfigurationError, match="'seed'"):
            parse(seed=-1)
        with pytest.raises(ConfigurationError, match="'refine.max_rounds'"):
            parse(refine={"max_rounds": 0})
        with pytest.raises(ConfigurationError, match="'refine.epsilon'"):
            parse(refine={"epsilon": -0.1})
        with pytest.raises(ConfigurationError, match="'model.hidden'"):
            parse(model={"hidden": []})
        with pytest.raises(ConfigurationError, match="'model.hidden'"):
            parse(model={"hidden": [64, 0]})
        with pytest.raises(ConfigurationError, match="'data.normalize'"):
            parse(data={"normalize": "yes"})
        with pytest.raises(ConfigurationError, match="'data.label_column'"):
            parse(data={"label_column": ""})
        with pytest.raises(ConfigurationError, match="'data.split'"):
            parse(data={"split": 1.0})
        with pytest.raises(ConfigurationError, match="must be an object"):
            parse(train=[1, 2])
        with pytest.raises(ConfigurationError, match="root must be"):
            config_from_dict([])

    def test_negative_delta_allowed(self):
        assert parse(refine={"delta": -1.0}).train.delta == -1.0

    def test_milestones_validation(self):
        with pytest.raises(ConfigurationError, match="'train.milestones'"):
            parse(train={"milestones": [0.6, 0.4]})
        with pytest.raises(ConfigurationError, match="'train.milestones'"):
            parse(train={"milestones": [0.4, 0.4]})
        with pytest.raises(ConfigurationError, match="'train.milestones'"):
            parse(train={"milestones": [0.0, 0.5]})
        with pytest.raises(ConfigurationError, match="'train.milestones'"):
            parse(train={"milestones": "mid"})
        app = parse(train={"milestones": [0.5]})
        assert app.train.milestone_fractions == (0.5,)


INTEGER_PATHS = [
    "train.epochs", "train.batch", "refine.rewind_epoch", "refine.max_rounds",
    "seed", "data.synthetic.classes", "data.synthetic.dim", "data.synthetic.seed",
]


def nested(path, value):
    """The config object that sets only the dotted ``path`` to ``value``."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", INTEGER_PATHS)
def test_non_finite_integer_rejected_by_path(path, literal):
    raw = json.loads(json.dumps(nested(path, "X")).replace('"X"', literal))
    with pytest.raises(ConfigurationError, match=f"'{re.escape(path)}'"):
        config_from_dict(raw)


FLOAT_PATHS = [
    "train.lr0", "prune.omega", "prune.gamma", "prune.eta", "refine.epsilon",
    "refine.delta", "data.split", "data.synthetic.mean_scale",
    "data.synthetic.std",
]


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("path", FLOAT_PATHS)
def test_integer_beyond_float_range_rejected_by_path(path, value):
    with pytest.raises(ConfigurationError,
                       match=f"^'{re.escape(path)}' must be finite$"):
        config_from_dict(nested(path, value))


# One rule, one message: the JSON config and the direct constructor.
PARITY = {
    "epochs_0": ({"train": {"epochs": 0}}, lambda: TrainConfig(epochs=0)),
    "lr0_0": ({"train": {"lr0": 0}}, lambda: TrainConfig(lr0=0)),
    "omega_1.2": ({"prune": {"omega": 1.2}}, lambda: TrainConfig(omega=1.2)),
    "eta_1.0": ({"prune": {"eta": 1.0}}, lambda: TrainConfig(eta=1.0)),
    "rewind_equals_epochs": (
        {"train": {"epochs": 10}, "refine": {"rewind_epoch": 10}},
        lambda: TrainConfig(epochs=10, rewind_epoch=10),
    ),
    "empty_hidden": ({"model": {"hidden": []}}, lambda: TrainConfig(hidden=())),
    "split_1.0": (
        {"data": {"split": 1.0}},
        lambda: DatasetSpec(synthetic=SyntheticSpec(), split=1.0),
    ),
    "dim_0": ({"data": {"synthetic": {"dim": 0}}}, lambda: SyntheticSpec(dim=0)),
    "count_of_1": (
        {"data": {"synthetic": {"counts": [700, 100, 100, 1]}}},
        lambda: SyntheticSpec(counts=(700, 100, 100, 1)),
    ),
    "classes_differ_from_counts": (
        {"data": {"synthetic": {"classes": 4, "counts": [5, 5, 5]}}},
        lambda: SyntheticSpec(classes=4, counts=(5, 5, 5)),
    ),
    "both_data_sources": (
        {"data": {"csv_path": "d.csv", "synthetic": {}}},
        lambda: DatasetSpec(csv_path="d.csv", synthetic=SyntheticSpec()),
    ),
}


@pytest.mark.parametrize("raw, build", PARITY.values(), ids=PARITY.keys())
def test_json_and_constructor_share_one_message(raw, build):
    with pytest.raises(ConfigurationError) as from_json:
        config_from_dict(raw)
    with pytest.raises(ConfigurationError) as from_python:
        build()
    assert str(from_python.value) == str(from_json.value)


def test_readme_lists_every_default():
    text = README.read_text()
    block = text.split("All keys with their defaults:", 1)[1]
    documented = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
    assert documented == effective_dict(config_from_dict({}))


class TestEffectiveEcho:
    def test_round_trip_identity(self):
        app = parse(
            model={"hidden": [16, 8]},
            train={"epochs": 12, "lr0": 0.05, "batch": 16,
                   "milestones": [0.5, 0.75]},
            prune={"omega": 0.3, "gamma": 2.0, "eta": 0.9,
                   "method": "magnitude"},
            refine={"rewind_epoch": 2, "epsilon": 0.1, "delta": 0.01,
                    "max_rounds": 2},
            data={"synthetic": {"counts": [20, 10], "dim": 5, "std": 0.5,
                                "seed": 7}, "split": 0.75, "normalize": True},
            seed=3,
        )
        assert config_from_dict(effective_dict(app)) == app

    def test_round_trip_defaults(self):
        app = config_from_dict({})
        assert config_from_dict(effective_dict(app)) == app

    def test_csv_variant(self):
        app = parse(data={"csv_path": "d.csv", "label_column": "target"})
        echoed = effective_dict(app)
        assert echoed["data"]["csv_path"] == "d.csv"
        assert "synthetic" not in echoed["data"]
        assert config_from_dict(echoed) == app

    def test_echo_is_json_serializable(self):
        payload = json.dumps(effective_dict(config_from_dict({})))
        assert config_from_dict(json.loads(payload)) == config_from_dict({})


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"train": {"epochs": 3}}')
        assert load_config(path).train.epochs == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"cannot read config {path}: 'utf-8'")):
            load_config(path)
