import dataclasses
import json
import math

import pytest

import multishape as ms
from multishape.cli import main
from multishape.align import MAX_SCALES
from multishape.config import MAX_ROTATION_PLAN, RunConfig, schema_keys
from multishape.synthgen import (
    MAX_CANVAS_SIDE, MAX_K, MAX_OBJECTS, MAX_SCENE_PIXELS)


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("MULTISHAPE_SEED", raising=False)


# the section field each top-level key sets
TOP_LEVEL = {
    "k": "generator.k",
    "variance_threshold": "learning.variance_threshold",
    "energy_threshold_fraction": "evolution.energy_threshold_fraction",
}


def resolved(cfg, key):
    """The config field a dotted key sets."""
    key = TOP_LEVEL.get(key, key)
    if key == "learning.max_outer_iterations":
        return cfg.learning.evolution.max_outer_iterations
    section, _, name = key.rpartition(".")
    if section == "grid":
        return getattr(cfg.evolution.grid, name)
    return getattr(getattr(cfg, section), name)


def other_value(default):
    """A valid non-default value of the default's type."""
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 0.9
    return (default[0], default[1] + default[0])


def as_text(value):
    if isinstance(value, tuple):
        return f"{value[0]},{value[1]}"
    return repr(value)


def test_defaults_come_from_dataclasses():
    cfg = RunConfig.from_values({})
    assert cfg == RunConfig()
    assert cfg.generator == ms.GeneratorConfig()
    assert cfg.evolution == ms.EvolutionConfig()
    assert cfg.evolution.grid == ms.GridSearchConfig()
    assert cfg.learning == ms.LearningConfig()
    # each setting is stored once, in its section
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "generator", "evolution", "learning"]


@pytest.mark.parametrize("key", schema_keys())
def test_every_key_reaches_its_field(key):
    value = other_value(resolved(RunConfig(), key))
    cfg = RunConfig.from_values({key: as_text(value)})
    assert resolved(cfg, key) == value


@pytest.mark.parametrize("doc", [
    {"k": True},
    {"grid": {"r_step": True}},
    {"evolution": {"max_outer_iterations": False}},
    {"generator": {"base_radius": [True, 40]}},
    {"generator": {"canvas": [256, False]}},
    # nor is a non-finite number, alone or as a pair element
    {"evolution": {"max_outer_iterations": float("inf")}},
    {"generator": {"base_radius": [float("nan"), 40]}},
])
def test_json_booleans_exit2(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["generate", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:config: bad value")
    assert not (tmp_path / "d").exists()


HOSTILE_VALUES = [float("nan"), float("inf"), float("-inf"), "nan", "-inf",
                  1e300, 72.9, [float("nan"), 40], [256.5, 200]]


@pytest.mark.parametrize("key", schema_keys())
def test_hostile_values_return_or_config_error(key):
    # none of these builds a grid, so a huge accepted value allocates nothing
    default = resolved(RunConfig(), key)
    kind = type(default[0] if isinstance(default, tuple) else default)
    for value in HOSTILE_VALUES:
        elements = value if isinstance(value, list) else [value]
        numbers = [float(element) for element in elements]
        rejected = not all(map(math.isfinite, numbers)) or (
            kind is int and not all(x.is_integer() for x in numbers))
        try:
            RunConfig.from_values({key: value})
        except ms.ConfigError:
            continue
        assert not rejected, (key, value)


def test_whole_json_floats_reach_integer_keys():
    cfg = RunConfig.from_values({"k": 72.0, "generator.canvas": [256.0, 200]})
    assert cfg.generator.k == 72 and cfg.generator.canvas == (256, 200)
    assert type(cfg.generator.k) is int
    assert type(cfg.generator.canvas[0]) is int


@pytest.mark.parametrize("make, values", [
    (ms.GeneratorConfig, {"base_radius": (math.nan, 40.0)}),
    (ms.GeneratorConfig, {"k": math.nan}),
    (ms.GridSearchConfig, {"r_step": math.nan}),
    (ms.LearningConfig, {"step": math.nan}),
    (ms.EvolutionConfig, {"max_outer_iterations": math.nan}),
])
def test_dataclasses_reject_nan(make, values):
    with pytest.raises(ValueError):
        make(**values)


def test_shared_keys_reach_every_section():
    cfg = RunConfig.from_values({"k": "72",
                                 "energy_threshold_fraction": "0.2",
                                 "variance_threshold": "0.9",
                                 "grid.theta_count": "36"})
    assert cfg.generator.k == 72
    for evolution in (cfg.evolution, cfg.learning.evolution):
        assert evolution.energy_threshold_fraction == 0.2
        assert evolution.grid.theta_count == 36
    assert cfg.learning.variance_threshold == 0.9


def test_schema_keys_pinned():
    # a new configuration key must be added here on purpose
    assert schema_keys() == [
        "energy_threshold_fraction",
        "evolution.max_outer_iterations",
        "generator.base_radius",
        "generator.boundary_noise_amplitude",
        "generator.canvas",
        "generator.centroid_spacing",
        "generator.eccentricity",
        "generator.n_objects",
        "generator.seed",
        "grid.r_max",
        "grid.r_min",
        "grid.r_step",
        "grid.theta_count",
        "k",
        "learning.max_cycles",
        "learning.max_outer_iterations",
        "learning.max_tries_per_example",
        "learning.step",
        "variance_threshold",
    ]


REMOVED_KEYS = [
    "evolution.rng_seed",
    "evolution.alignment_refresh_period",
    "evolution.fd_step",
    "evolution.initial_trust_radius",
    "evolution.min_trust_radius",
    "evolution.max_trust_radius",
    "evolution.shrink_ratio_threshold",
    "evolution.grow_ratio_threshold",
    "evolution.exact_fd_hessian",
]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_flag_exit2(tmp_path, capsys, key):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(tmp_path / "d"), f"--{key}", "1"])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_config_exit2(tmp_path, capsys, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}=1\n")
    assert main(["generate", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_variance_threshold_checked_at_config_time():
    for value in (2, 0, -0.5, 1.0 + 1e-12):
        with pytest.raises(ms.ConfigError, match="variance_threshold"):
            RunConfig.from_values({"variance_threshold": value})
    with pytest.raises(ValueError):
        ms.LearningConfig(variance_threshold=math.nan)
    assert RunConfig.from_values({"variance_threshold": 1}).learning \
        .variance_threshold == 1


@pytest.mark.parametrize("command", [
    ["generate", "--out", "{out}"],
    ["train", "--dataset", "{out}_missing", "--out", "{out}"],
])
def test_variance_threshold_exit2_before_io(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    argv = [arg.format(out=out) for arg in command]
    assert main(argv + ["--variance_threshold", "2"]) == 2
    assert capsys.readouterr().err.startswith(
        "error:config: variance_threshold must be in (0, 1]")
    assert list(tmp_path.iterdir()) == []


# each value passes its key's own checks but breaks a size ceiling, and
# from_values rejects it before anything of that size is built; the second
# element is the ceiling the error names
CEILING_CASES = [
    ({"grid.theta_count": 1e9}, MAX_ROTATION_PLAN),
    ({"k": 1024, "grid.theta_count": MAX_ROTATION_PLAN // 1024 + 1},
     MAX_ROTATION_PLAN),
    ({"grid.r_step": 1e-12}, MAX_SCALES),
    ({"grid.r_min": 1.0, "grid.r_max": 1.0 + MAX_SCALES * 0.125,
      "grid.r_step": 0.125}, MAX_SCALES),
    ({"grid.r_max": 1e300}, MAX_SCALES),
    ({"generator.canvas": [100000, 100000]}, MAX_CANVAS_SIDE),
    ({"generator.canvas": [256, 10001]}, MAX_CANVAS_SIDE),
    ({"k": 10**7}, MAX_K),
    ({"k": 10001}, MAX_K),
    ({"generator.n_objects": [2, 1e9]}, MAX_OBJECTS),
    ({"generator.n_objects": [2, MAX_OBJECTS + 1]}, MAX_OBJECTS),
    # each under its own ceiling, but ~93 GiB of truth masks together
    ({"generator.n_objects": [MAX_OBJECTS, MAX_OBJECTS],
      "generator.canvas": [MAX_CANVAS_SIDE, MAX_CANVAS_SIDE]},
     MAX_SCENE_PIXELS),
    ({"generator.n_objects": [2, 11],
      "generator.canvas": [MAX_CANVAS_SIDE, MAX_CANVAS_SIDE]},
     MAX_SCENE_PIXELS),
]


def as_document(values):
    doc = {}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
    return doc


@pytest.mark.parametrize("values, ceiling", CEILING_CASES)
def test_size_ceilings_exit2(tmp_path, capsys, values, ceiling):
    with pytest.raises(ms.ConfigError, match=str(ceiling)):
        RunConfig.from_values(values)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(as_document(values)))
    assert main(["generate", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and str(ceiling) in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("values", [
    {"k": MAX_K},
    {"k": 1024, "grid.theta_count": MAX_ROTATION_PLAN // 1024},
    {"grid.r_min": 1.0, "grid.r_max": 1.0 + (MAX_SCALES - 1) * 0.125,
     "grid.r_step": 0.125},
    {"generator.canvas": [MAX_CANVAS_SIDE, MAX_CANVAS_SIDE]},
    {"generator.n_objects": [MAX_OBJECTS, MAX_OBJECTS]},
    # exactly MAX_SCENE_PIXELS
    {"generator.n_objects": [10, 10],
     "generator.canvas": [MAX_CANVAS_SIDE, MAX_CANVAS_SIDE]},
])
def test_values_at_the_ceilings_accepted(values):
    RunConfig.from_values(values)
