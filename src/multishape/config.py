"""Unified run configuration for the command-line pipeline.

A configuration document is either JSON or flat ``dotted.key=value`` lines;
unknown keys are rejected by name.  Every key can also be supplied as a
same-named command-line flag, and the MULTISHAPE_SEED environment variable
overrides the generator seed last.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .align import GridSearchConfig
from .errors import ConfigError
from .evolution import EvolutionConfig
from .importance import LearningConfig
from .synthgen import GeneratorConfig

SEED_ENV_VAR = "MULTISHAPE_SEED"

# top-level keys shared by several sections; each takes its default from
# the section dataclass that consumes it
_SHARED = ("k", "variance_threshold", "energy_threshold_fraction")


def _coerce(key, default, value):
    """Parse ``value`` to the type of the key's default."""
    kind = type(default)
    try:
        if kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("1", "true", "yes", "on"):
                    return True
                if value.lower() in ("0", "false", "no", "off"):
                    return False
            raise ValueError(value)
        if kind is int:
            if isinstance(value, bool):
                raise ValueError(value)
            return int(value)
        if kind is float:
            return float(value)
        # pairs take the element type of the default's first element
        if isinstance(value, str):
            parts = [p.strip() for p in value.split(",")]
        else:
            parts = list(value)
        if len(parts) != 2:
            raise ValueError(value)
        elem = type(default[0])
        return (elem(parts[0]), elem(parts[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for key {key!r}: {value!r}") from exc


def _flatten(doc, prefix=""):
    for key, value in doc.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{dotted}.")
        else:
            yield dotted, value


@dataclass
class RunConfig:
    """Validated settings for the whole pipeline."""

    k: int = GeneratorConfig.k
    variance_threshold: float = LearningConfig.variance_threshold
    energy_threshold_fraction: float = EvolutionConfig.energy_threshold_fraction
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)

    @classmethod
    def from_values(cls, values):
        """Build from a dotted-key mapping; unknown keys are rejected."""
        merged = dict(_SCHEMA)
        for key, value in values.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = _coerce(key, _SCHEMA[key], value)
        if SEED_ENV_VAR in os.environ:
            merged["generator.seed"] = _coerce(
                "generator.seed", _SCHEMA["generator.seed"],
                os.environ[SEED_ENV_VAR])

        def section(name):
            skip = len(name) + 1
            return {key[skip:]: value for key, value in merged.items()
                    if key.startswith(f"{name}.")}

        try:
            generator = GeneratorConfig(k=merged["k"], **section("generator"))
            evolution = EvolutionConfig(
                energy_threshold_fraction=merged["energy_threshold_fraction"],
                grid=GridSearchConfig(**section("grid")),
                **section("evolution"))
            learn_section = section("learning")
            inner_iters = learn_section.pop("max_outer_iterations")
            learning = LearningConfig(
                variance_threshold=merged["variance_threshold"],
                evolution=replace(evolution, max_outer_iterations=inner_iters),
                **learn_section)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(generator=generator, evolution=evolution,
                   learning=learning, **{key: merged[key] for key in _SHARED})

    @classmethod
    def load(cls, path=None, overrides=None):
        """Load from an optional file plus dotted-key overrides."""
        values = {} if path is None else read_config_file(path)
        values.update(overrides or {})
        return cls.from_values(values)


def read_config_file(path):
    """Parse a JSON or flat key=value configuration file to dotted keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return dict(_flatten(doc))
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _defaults(prefix, config):
    """Dotted key -> default for the plain fields of a config dataclass.

    Sections leave out the shared top-level keys, which set them instead.
    """
    return {f"{prefix}{f.name}": getattr(config, f.name)
            for f in fields(config)
            if not is_dataclass(getattr(config, f.name))
            and not (prefix and f.name in _SHARED)}


# every key's default and coercion type come from the config dataclasses
_SCHEMA = {
    **_defaults("", RunConfig()),
    **_defaults("generator.", GeneratorConfig()),
    **_defaults("evolution.", EvolutionConfig()),
    **_defaults("grid.", GridSearchConfig()),
    **_defaults("learning.", LearningConfig()),
    "learning.max_outer_iterations":
        LearningConfig().evolution.max_outer_iterations,
}


def schema_keys():
    return sorted(_SCHEMA)
