"""JSON run configuration, parsed and checked through one table.

Each row of ``KEYS`` is one settable leaf key: its dotted JSON path, the
dataclass and field that hold it, its default (a callable one is derived
from the other fields), its kind and its bounds.  The rows set the field
defaults, check and normalize the fields whenever a config object is
built, route keys and reject unknown ones by dotted path in
``config_from_dict``, and order the ``effective_dict`` echo, so a Python
caller and a JSON file meet each rule with the same message.  Rules that
span fields sit beside the table, in ``__post_init__``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from typing import Callable, NamedTuple

from .errors import ConfigurationError
from .fileio import read_json

METHODS = ("ballot", "lth", "magnitude", "random")


class Key(NamedTuple):
    path: str
    owner: str  # "train", "dataset", "synthetic" or "app"
    field: str
    default: object  # a callable derives the value from its owner
    kind: Callable
    bounds: tuple = ()  # (operator, limit) pairs


_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _shown(value):
    """A sequence as JSON spells it, so both callers read one message."""
    return list(value) if isinstance(value, tuple) else value


def _real(row: Key, value, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, Real):
        kind = "an integer" if integer else "a number"
        raise ConfigurationError(f"'{row.path}' must be {kind}, got {value!r}")
    if not isinstance(value, Integral) and not math.isfinite(value):
        raise ConfigurationError(f"'{row.path}' must be finite")
    if integer and int(value) != value:
        raise ConfigurationError(f"'{row.path}' must be an integer, got {value!r}")
    try:
        value = int(value) if integer else float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigurationError(f"'{row.path}' must be finite") from None
    for op, limit in row.bounds:
        if not _OPS[op](value, limit):
            raise ConfigurationError(f"'{row.path}' must be {op} {limit}, got {value}")
    return value


def _is(test: Callable, wanted: str, convert: Callable = lambda v: v) -> Callable:
    """A kind for the values ``test`` passes, stored as ``convert`` makes
    them; ``wanted`` ends the message, and a ``{!r}`` in it shows the value."""
    def kind(row: Key, value):
        if not test(value):
            raise ConfigurationError(
                f"'{row.path}' must be " + wanted.format(_shown(value)))
        return convert(value)
    return kind


def _ints(least: int, wanted: str) -> Callable:
    return _is(lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(
        isinstance(n, Integral) and not isinstance(n, bool) and n >= least for n in v
    ), wanted + ", got {!r}", lambda v: tuple(int(n) for n in v))


_int = partial(_real, integer=True)
_fractions = _is(lambda v: isinstance(v, (list, tuple)) and all(
    isinstance(f, Real) and not isinstance(f, bool) and 0 < f < 1 for f in v
) and all(a < b for a, b in zip(v, v[1:])),
    "a strictly increasing list of fractions inside (0, 1), got {!r}",
    lambda v: tuple(float(f) for f in v))


# In echo order: effective_dict writes the keys in this order.
KEYS = (
    Key("model.hidden", "train", "hidden", (64, 64),
        _ints(1, "a non-empty list of positive integers")),
    Key("train.epochs", "train", "epochs", 30, _int, ((">=", 1),)),
    Key("train.lr0", "train", "lr0", 0.1, _real, ((">", 0),)),
    Key("train.batch", "train", "batch_size", 32, _int, ((">=", 1),)),
    Key("train.milestones", "train", "milestone_fractions", (0.4, 0.6, 0.8),
        _fractions),
    Key("prune.omega", "train", "omega", 0.05, _real, ((">", 0), ("<=", 1))),
    Key("prune.gamma", "train", "gamma", 10.0, _real, ((">", 0),)),
    Key("prune.eta", "train", "eta", 0.95, _real, ((">", 0), ("<", 1))),
    Key("prune.method", "app", "method", "ballot",
        _is(lambda v: v in METHODS, f"one of {list(METHODS)}, got {{!r}}")),
    Key("refine.rewind_epoch", "train", "rewind_epoch",
        lambda t: min(10, t.epochs - 1), _int, ((">=", 0),)),
    Key("refine.epsilon", "train", "epsilon", 0.05, _real, ((">=", 0),)),
    Key("refine.delta", "train", "delta", 0.0, _real),
    Key("refine.max_rounds", "train", "max_rounds", 3, _int, ((">=", 1),)),
    Key("data.split", "dataset", "split", 0.8, _real, ((">", 0), ("<", 1))),
    Key("data.normalize", "dataset", "normalize", False,
        _is(lambda v: isinstance(v, bool), "true or false")),
    Key("data.label_column", "dataset", "label_column", "label",
        _is(lambda v: isinstance(v, str) and v != "", "a non-empty string")),
    Key("data.csv_path", "dataset", "csv_path", None,
        _is(lambda v: v is None or isinstance(v, str), "a string")),
    Key("data.synthetic.classes", "synthetic", "classes",
        lambda s: len(s.counts), _int, ((">=", 2),)),
    Key("data.synthetic.counts", "synthetic", "counts", (700, 100, 100, 100),
        _ints(2, "a list of integers >= 2")),
    Key("data.synthetic.dim", "synthetic", "dim", 20, _int, ((">=", 1),)),
    Key("data.synthetic.mean_scale", "synthetic", "mean_scale", 3.0, _real,
        ((">", 0),)),
    Key("data.synthetic.std", "synthetic", "std", 1.0, _real, ((">=", 0),)),
    Key("data.synthetic.seed", "synthetic", "seed", 0, _int, ((">=", 0),)),
    Key("seed", "train", "seed", 0, _int, ((">=", 0),)),
)
_ROWS = {row.path: row for row in KEYS}
_SECTIONS = {path.rsplit(".", 1)[0] for path in _ROWS if "." in path}


def _owner(name: str):
    """A frozen dataclass whose table fields take their defaults from
    ``KEYS`` and are checked and normalized, derived ones last, before the
    class's own ``__post_init__`` applies the rules that span fields."""
    def wrap(cls):
        rows = sorted((row for row in KEYS if row.owner == name),
                      key=lambda row: callable(row.default))
        rules = getattr(cls, "__post_init__", lambda self: None)

        def post_init(self):
            for row in rows:
                value = getattr(self, row.field)
                if value is None and callable(row.default):
                    value = row.default(self)
                object.__setattr__(self, row.field, row.kind(row, value))
            rules(self)

        for row in rows:
            setattr(cls, row.field, None if callable(row.default) else row.default)
        cls.__post_init__ = post_init
        return dataclass(frozen=True)(cls)
    return wrap


@_owner("synthetic")
class SyntheticSpec:
    """Gaussian blobs: class c draws its mean uniformly on the sphere of
    radius ``mean_scale`` (deterministically from ``seed``) and samples
    ``counts[c]`` points with isotropic noise of standard deviation
    ``std``.  Unequal counts create the class imbalance under study."""

    classes: int
    counts: tuple
    dim: int
    mean_scale: float
    std: float
    seed: int

    def __post_init__(self):
        if self.classes != len(self.counts):
            raise ConfigurationError(
                f"'data.synthetic.counts' has {len(self.counts)} entries for "
                f"{self.classes} classes"
            )


@_owner("dataset")
class DatasetSpec:
    csv_path: str | None
    label_column: str
    synthetic: SyntheticSpec | None = None
    split: float
    normalize: bool

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigurationError(
                "'data.csv_path' and 'data.synthetic' are mutually exclusive: "
                "exactly one must be set"
            )


@_owner("train")
class TrainConfig:
    hidden: tuple
    epochs: int
    lr0: float
    milestone_fractions: tuple
    batch_size: int
    omega: float
    gamma: float
    eta: float
    rewind_epoch: int
    epsilon: float
    delta: float
    max_rounds: int
    seed: int

    def __post_init__(self):
        if self.rewind_epoch >= self.epochs:
            raise ConfigurationError(
                f"'refine.rewind_epoch' must be below train.epochs "
                f"({self.epochs}), got {self.rewind_epoch}"
            )


@_owner("app")
class AppConfig:
    train: TrainConfig
    dataset: DatasetSpec
    method: str


def _leaves(raw: dict, prefix: str = ""):
    """(row, value) for every key under ``raw``; unknown keys and sections
    that are not objects are rejected by their dotted path."""
    for key, value in raw.items():
        path = prefix + key
        if path in _ROWS:
            yield _ROWS[path], value
        elif path in _SECTIONS:
            if path == "data.synthetic" and value is None:
                continue  # null selects no generator, as omitting it does
            if not isinstance(value, dict):
                raise ConfigurationError(f"'{path}' must be an object")
            yield from _leaves(value, path + ".")
        else:
            raise ConfigurationError(f"unknown configuration key '{path}'")


def config_from_dict(raw: dict) -> AppConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("configuration root must be a JSON object")
    given = {"train": {}, "dataset": {}, "synthetic": {}, "app": {}}
    for row, value in _leaves(raw):
        given[row.owner][row.field] = value
    train = TrainConfig(**given["train"])
    data = raw.get("data", {})
    if data.get("csv_path") is None or data.get("synthetic") is not None:
        given["dataset"]["synthetic"] = SyntheticSpec(**given["synthetic"])
    return AppConfig(train, DatasetSpec(**given["dataset"]), **given["app"])


def load_config(path) -> AppConfig:
    return config_from_dict(read_json(path, "config", ConfigurationError))


def effective_dict(app: AppConfig) -> dict:
    """The fully resolved configuration, echoed into reports: every row in
    table order, less the data source that is not in use."""
    owners = {"train": app.train, "dataset": app.dataset,
              "synthetic": app.dataset.synthetic, "app": app}
    echo: dict = {}
    for row in KEYS:
        value = getattr(owners[row.owner], row.field, None)
        if value is None:
            continue
        *sections, leaf = row.path.split(".")
        node = echo
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = _shown(value)
    return echo
