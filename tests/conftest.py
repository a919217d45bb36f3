import numpy as np
import pytest

import multishape as ms


def disk_mask(dims, center, radius):
    """Pixels whose centers are within ``radius`` of ``center``."""
    width, height = dims
    yy, xx = np.mgrid[0:height, 0:width]
    return np.hypot(xx + 0.5 - center[0], yy + 0.5 - center[1]) <= radius


def ellipse_mask(dims, center, a, b, rotation=0.0):
    width, height = dims
    yy, xx = np.mgrid[0:height, 0:width]
    dx = xx + 0.5 - center[0]
    dy = yy + 0.5 - center[1]
    u = dx * np.cos(rotation) + dy * np.sin(rotation)
    v = -dx * np.sin(rotation) + dy * np.cos(rotation)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def disk_family_examples(k=72, count=8, radius_lo=14.0, radius_hi=22.0,
                         ripple=0.06, seed=3):
    """Shape vectors of mildly perturbed disks, for small PCA models."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(k) / k
    examples = []
    for i in range(count):
        base = rng.uniform(radius_lo, radius_hi)
        amp = rng.uniform(0.0, ripple)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        order = int(rng.integers(2, 5))
        radii = base * (1.0 + amp * np.cos(order * angles + phase))
        examples.append(ms.ShapeExample(f"fam_{i:02d}", 0, radii))
    return examples


@pytest.fixture(scope="session")
def small_model():
    examples = disk_family_examples()
    return ms.build_model(ms.WeightedExampleSet(examples))


@pytest.fixture(scope="session")
def tiny_dataset():
    cfg = ms.GeneratorConfig(seed=11, n_objects=(2, 3),
                             base_radius=(10.0, 16.0), canvas=(112, 112),
                             k=72)
    return ms.generate_batch(cfg, 6)


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset):
    examples = []
    for scene in tiny_dataset[:4]:
        for i, (mask, centroid) in enumerate(zip(scene.truth, scene.centroids)):
            examples.append(ms.ShapeExample(
                scene.scene_id, i, ms.sample_shape_vector(mask, centroid, 72)))
    return ms.build_model(ms.WeightedExampleSet(examples))
