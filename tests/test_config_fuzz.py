"""A config fuzzer generated from the harness's schema table.

Each example takes one kind's small test config, replaces one or two of its
fields with generated values and runs it.  The fields come from
``harness._SCHEMA`` and the variant tables of its tagged rows, so a row
added there is fuzzed with no edit here.  A config must either run to rows
(possibly flagged divergent) or raise ``ConfigError`` naming a config field;
any other exception is a fault.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restep import harness
from restep.harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    default_config,
    resolve_config,
    run_experiment,
)
from test_harness import TINY_TRAIN, tiny_config

# The parsers of the tagged rows: parser -> (tag field, variant table).
TAGGED = {
    harness.world_from_config: ("type", harness._WORLDS),
    harness.schedule_from_config: ("kind", harness._SCHEDULES),
    harness._time_dist_from_config: ("kind", harness._TIME_DISTS),
}


def _checks(check):
    """``check`` and the checks nested in it as list items."""
    while check is not None:
        yield check
        check = getattr(check, "item", None)


def _tagged_rows():
    """(path, tag, variant table) of every row whose value, or list item,
    is a tagged mapping."""
    for path, check in harness._SCHEMA.items():
        for c in _checks(check):
            if c in TAGGED:
                yield (path, *TAGGED[c])


ENUM_NAMES = sorted(
    {o for check in harness._SCHEMA.values() for c in _checks(check)
     for o in getattr(c, "options", ()) if isinstance(o, str)}
    | {name for _, _, table in _tagged_rows() for name in table}
)
NAMES = st.text(max_size=3) | st.sampled_from(ENUM_NAMES)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.floats(), NAMES)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=9)


def _like(check, value=None):
    """Values of the type ``check`` accepts, in the list shape of ``value``
    when it is given, so that more mutated configs get past the checks to
    the run: a choice's options, and numbers anywhere within a number row's
    bounds (``.bounds``), which brings up the bounds themselves and
    magnitudes near 1e300.  Whole numbers stay small, since they count
    steps, rows and units and so set the run's size."""
    if hasattr(check, "options"):
        return st.sampled_from(check.options)
    if hasattr(check, "bounds"):
        return st.integers(-2, 8) if isinstance(value, int) else st.floats(*check.bounds)
    if hasattr(check, "item"):
        if isinstance(value, list):
            n = len(value)
            return st.lists(_like(check.item, value[0]), min_size=n, max_size=n)
        return st.lists(_like(check.item), min_size=1, max_size=3)
    return VALUES


@st.composite
def _variant_dicts(draw, tag, table):
    """A mapping of a random variant, now and then missing a field."""
    name = draw(st.sampled_from(sorted(table)))
    out = {tag: name}
    for field, check in table[name].items():
        if draw(st.integers(0, 9)):
            out[field] = draw(_like(check) | VALUES)
    return out


def _mutable_fields(cfg):
    """(path, value strategy) of every field of ``cfg`` that a table row
    checks, and of every field of its tagged mappings' variants."""
    tagged = {path: (tag, table) for path, tag, table in _tagged_rows()}
    out = []
    for path, check in harness._SCHEMA.items():
        section, _, key = path.rpartition(".")
        node = cfg.get(section, {}) if section else cfg
        if key not in node:
            continue
        if path not in tagged:
            out.append((path, _like(check, node[key]) | SCALARS | VALUES))
            continue
        tag, table = tagged[path]
        dicts = _variant_dicts(tag, table)
        if getattr(check, "item", None) is not None:  # a list of mappings
            out.append((path, st.lists(dicts, min_size=1, max_size=3) | VALUES))
            continue
        out.append((path, dicts | VALUES))
        out.append((f"{path}.{tag}", st.sampled_from(sorted(table)) | SCALARS))
        for field, field_check in table[node[key][tag]].items():
            out.append((f"{path}.{field}",
                        _like(field_check, node[key][field]) | SCALARS | VALUES))
    return out


def _field_paths():
    """Every path a ConfigError may name, with list indices dropped."""
    paths = set(harness._SCHEMA)
    for path, tag, table in _tagged_rows():
        paths |= {f"{path}.{f}" for variant in table.values() for f in (tag, *variant)}
    return paths


FIELD_PATHS = _field_paths()


def _base_config(kind):
    """The kind's resolved small test config; a kind that has a ``train``
    section trains the small network, under the trained estimator where it
    has a choice (the oracle reads no train field)."""
    cfg = tiny_config(kind)
    if "train" in default_config(kind):
        cfg["train"] = dict(TINY_TRAIN)
        if "estimator" in cfg.get("eval", {}):
            cfg["eval"]["estimator"] = "trained"
    return resolve_config(cfg)


def _put(cfg, path, value):
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme values overflow
@settings(max_examples=17, deadline=None)
@given(data=st.data())
def test_mutated_config_runs_or_names_a_field(kind, data):
    cfg = _base_config(kind)
    fields = _mutable_fields(cfg)
    picks = data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2,
                               unique_by=lambda f: f[0]))
    # Deeper paths first, so that a replaced mapping is not then edited.
    for path, values in sorted(picks, key=lambda f: -f[0].count(".")):
        _put(cfg, path, data.draw(values, label=path))
    try:
        report = run_experiment(cfg, write=False)
    except ConfigError as err:
        field = re.sub(r"\[\d+\]", "", str(err).split(":", 1)[0])
        assert field in FIELD_PATHS, str(err)
    else:
        assert report.rows
