"""Learning per-example importance weights by cycling increments.

Each training pair is a clump scene with the ground-truth shape vectors of
its objects.  A pair's quality under the current model is the terminated
energy of a full evolution run on its scene.  Each cycle is one pass over
the examples in manifest order.  For each example the learner tentatively
bumps its weight by the configured step, builds the model once from the
bumped weights, and keeps the bump only while the terminated energy of the
example's own pair strictly decreases.  Cycling stops after a pass with no
accepted bump or when the cycle cap is reached, so every run terminates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyDataset
from .evolution import EvolutionConfig, evolve, scene_searchers
from .shape_model import (
    DEFAULT_VARIANCE_THRESHOLD,
    ShapeExample,
    WeightedExampleSet,
    build_model,
)


@dataclass(frozen=True)
class TrainingPair:
    """A clump scene together with its objects' true shape vectors."""

    scene: object
    shapes: list

    def __post_init__(self):
        if len(self.shapes) != self.scene.n_objects:
            raise DimensionMismatch(
                f"{self.scene.scene_id}: {len(self.shapes)} shapes for "
                f"{self.scene.n_objects} centroids")


@dataclass(frozen=True)
class LearningConfig:
    """Weight step and the budget caps that keep learning finite."""

    step: float = 0.1
    max_tries_per_example: int = 20
    max_cycles: int = 50
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD
    evolution: EvolutionConfig = field(
        default_factory=lambda: EvolutionConfig(max_outer_iterations=50))

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError("weight step must be positive")
        if not all(isinstance(cap, numbers.Integral) and cap >= 1
                   for cap in (self.max_tries_per_example, self.max_cycles)):
            raise ValueError("learning caps must be positive")
        if not 0 < self.variance_threshold <= 1:
            raise ValueError("variance_threshold must be in (0, 1]")


@dataclass(frozen=True)
class WeightUpdate:
    """One committed weight increase and its effect on the pair's energy."""

    cycle: int
    pair_index: int
    example_index: int
    scene_id: str
    object_id: int
    weight: float
    energy_before: int
    energy_after: int


def dataset_examples(dataset, step=None):
    """Flatten pairs into a weighted example set in manifest order.

    The set checks each shape (see :class:`multishape.WeightedExampleSet`).

    ``step`` is accepted and unused; it goes once the benchmark's callers
    stop passing it (ROADMAP item 2).
    """
    return WeightedExampleSet([ShapeExample(pair.scene.scene_id, i, radii)
                               for pair in dataset
                               for i, radii in enumerate(pair.shapes)])


def terminated_energy(pair, model, evolution_config):
    """Final energy of an evolution run on the pair's scene."""
    k = np.asarray(pair.shapes[0]).size
    if k != model.k:
        raise DimensionMismatch(
            f"pair shapes have K={k} but the model has K={model.k}")
    return evolve(pair.scene, model, evolution_config)[1].energy


def learn(dataset, config=None):
    """Cycle weight increases until no pair's terminated energy improves.

    Returns the final weights (manifest order), the model built from them,
    and the list of committed updates.
    """
    config = config or LearningConfig()
    if not dataset:
        raise EmptyDataset("no training pairs")

    example_set = dataset_examples(dataset)
    # integer increment counts keep tentative bumps exactly revertible
    counts = np.zeros(len(example_set), dtype=np.int64)

    def weights_for(c):
        return 1.0 + config.step * c

    def model_for(c):
        trial_set = WeightedExampleSet(example_set.examples, weights_for(c))
        return build_model(trial_set, config.variance_threshold)

    model = model_for(counts)
    # a search depends on the scene, K and the grid config, not the model,
    # so each pair's searchers serve every trial evolve of the call
    searchers = [scene_searchers(pair.scene, model.k, config.evolution)
                 for pair in dataset]

    # the model scored is always the one built from ``counts`` and evolve is
    # deterministic, so revisited (pair, counts) states are scored once
    energies = {}

    def energy_for(pair_index, pair_model):
        key = (pair_index, counts.tobytes())
        if key not in energies:
            energies[key] = evolve(dataset[pair_index].scene, pair_model,
                                   config.evolution,
                                   searchers[pair_index])[1].energy
        return energies[key]

    owners = [p for p, pair in enumerate(dataset) for _ in pair.shapes]
    history = []
    for cycle in range(config.max_cycles):
        committed = len(history)
        for g, p in enumerate(owners):
            for _ in range(config.max_tries_per_example):
                before = energy_for(p, model)
                counts[g] += 1
                trial_model = model_for(counts)
                after = energy_for(p, trial_model)
                if after >= before:
                    counts[g] -= 1
                    break
                model = trial_model
                history.append(WeightUpdate(
                    cycle=cycle,
                    pair_index=p,
                    example_index=g,
                    scene_id=example_set.examples[g].scene_id,
                    object_id=example_set.examples[g].object_id,
                    weight=float(weights_for(counts[g])),
                    energy_before=before,
                    energy_after=after,
                ))
        if len(history) == committed:
            break
    return weights_for(counts), model, history
