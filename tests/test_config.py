import json
import math

import pytest

import multishape as ms
from multishape.cli import main
from multishape.config import RunConfig, schema_keys


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("MULTISHAPE_SEED", raising=False)


def resolved(cfg, key):
    """The config field a dotted key sets."""
    if key == "learning.max_outer_iterations":
        return cfg.learning.evolution.max_outer_iterations
    section, _, name = key.rpartition(".")
    if section == "grid":
        return getattr(cfg.evolution.grid, name)
    return getattr(getattr(cfg, section) if section else cfg, name)


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
    assert cfg.k == 72 and cfg.generator.canvas == (256, 200)
    assert type(cfg.k) is int and type(cfg.generator.canvas[0]) is int


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
