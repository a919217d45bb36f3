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
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 0.9
    return (default[0], default[1] + default[0])


def as_text(value):
    if isinstance(value, tuple):
        return f"{value[0]},{value[1]}"
    return str(value).lower() if isinstance(value, bool) else repr(value)


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


REMOVED_KEYS = ["evolution.rng_seed", "evolution.alignment_refresh_period"]


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
