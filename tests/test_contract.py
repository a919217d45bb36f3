"""The numeric contract of the public entry points.

Each bad number or array either returns or raises ``ValueError`` or a
:class:`multishape.MultishapeError` whose message names the argument, with
every warning an error.  A bad number is NaN, an infinity, a subnormal or a
huge value; a count also gets a fraction; an array gets each of those as
one element, or comes 0-D, 3-D, empty or one element longer.  The bad
masks of every mask door are ``TestMaskDoor``'s; the writers' cases here
also check that what was written reads back.  A bad radius once sent the
alignment search into an endless scan, so the search cases run in one
child process with a timeout.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import multishape as ms
from conftest import disk_family_examples, disk_mask

BAD_NUMBERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
               "subnormal": 5e-324, "1e300": 1e300, "1e308": 1e308}

CENTROID = (8.0, 8.0)
CLUMP = disk_mask((16, 16), CENTROID, 6.0)
RADII = np.full(12, 5.0)


def bad_arrays(good):
    """Each bad number as the first element of ``good``, and ``good``'s
    first element 0-D, ``good`` as a 3-D array, an empty array, and
    ``good`` one element longer."""
    good = np.asarray(good, dtype=np.float64)
    variants = []
    for name, value in BAD_NUMBERS.items():
        bad = good.copy()
        bad.flat[0] = value
        variants.append((name, bad))
    return variants + [("0-D", np.asarray(good.flat[0])),
                       ("3-D", good.reshape(1, 1, -1)),
                       ("empty", np.empty(0)),
                       ("longer", np.append(good, good.flat[0]))]


def example_set(radii=RADII + 2.0, weights=(1.0, 2.0, 1.0)):
    return ms.WeightedExampleSet([ms.ShapeExample("s0", 0, RADII),
                                  ms.ShapeExample("s1", 0, RADII + 1.0),
                                  ms.ShapeExample("s2", 3, radii)], weights)


def model_with(field, value):
    model = ms.build_model(ms.WeightedExampleSet(disk_family_examples()))
    array = getattr(model, field).copy()
    array.flat[0] = value
    setattr(model, field, array)
    return model


def save_and_load(model, path):
    ms.save_model(model, path)
    return ms.load_model(path)


def write_and_read(mask, path):
    ms.write_pgm(path, mask)
    return ms.read_pgm(path)


# (entry point, argument, the argument's name in the message, the good
# value's bad variants, call); numbers are checked as given, arrays as
# bad_arrays of the good value
ENTRY_POINTS = [
    ("WeightedExampleSet", "radii", r"example 's2' object 3: radii",
     bad_arrays(RADII), lambda v, path: example_set(radii=v)),
    ("WeightedExampleSet", "weights", "weights",
     bad_arrays([1.0, 2.0, 1.0]), lambda v, path: example_set(weights=v)),
    ("build_model", "radii", "radii",
     bad_arrays(RADII), lambda v, path: ms.build_model(example_set(radii=v))),
    ("build_model", "weights", "weights",
     bad_arrays([1.0, 2.0, 1.0]),
     lambda v, path: ms.build_model(example_set(weights=v))),
    ("build_model", "variance_threshold", "variance_threshold",
     BAD_NUMBERS.items(),
     lambda v, path: ms.build_model(example_set(), variance_threshold=v)),
    ("weighted_mean", "radii", "radii",
     bad_arrays(RADII), lambda v, path: ms.weighted_mean(example_set(v))),
    ("weighted_mean", "weights", "weights",
     bad_arrays([1.0, 2.0, 1.0]),
     lambda v, path: ms.weighted_mean(example_set(weights=v))),
    ("covariance", "radii", "radii",
     bad_arrays(RADII), lambda v, path: ms.covariance(example_set(v), RADII)),
    # the mean is a shape vector, checked by the shape door
    ("covariance", "mean", "radii",
     bad_arrays(RADII), lambda v, path: ms.covariance(example_set(), v)),
    ("trust_region_step", "g", "gradient",
     bad_arrays([1.0, -2.0]),
     lambda v, path: ms.trust_region_step(v, np.diag([2.0, 1.0]), 1.0)),
    ("trust_region_step", "hess", "Hessian",
     bad_arrays([[2.0, 0.0], [0.0, 1.0]]),
     lambda v, path: ms.trust_region_step(np.array([1.0, -2.0]), v, 1.0)),
    ("trust_region_step", "delta", "trust radius",
     BAD_NUMBERS.items(),
     lambda v, path: ms.trust_region_step(np.array([1.0, -2.0]),
                                          np.diag([2.0, 1.0]), v)),
    ("Sr1Hessian.update", "step", "step",
     bad_arrays([1.0, -2.0]),
     lambda v, path: ms.Sr1Hessian(2).update(v, np.array([0.5, 3.0]))),
    ("Sr1Hessian.update", "grad_change", "gradient change",
     bad_arrays([0.5, 3.0]),
     lambda v, path: ms.Sr1Hessian(2).update(np.array([1.0, -2.0]), v)),
    ("synthesize", "coeffs", "coefficient",
     # NaN coefficients are left to the raster and search doors
     [(name, bad) for name, bad in bad_arrays(np.zeros(3)) if name != "nan"],
     lambda v, path: ms.synthesize(model_with("mean", 5.0), v)),
    ("save_model", "mean", "mean|JSON", BAD_NUMBERS.items(),
     lambda v, path: save_and_load(model_with("mean", v), path)),
    ("save_model", "eigenvalues", "eigenvalues|JSON", BAD_NUMBERS.items(),
     lambda v, path: save_and_load(model_with("eigenvalues", v), path)),
    ("write_pgm", "mask", re.escape("(0, 5)"),
     [("empty", np.zeros((0, 5), dtype=bool))], write_and_read),
    ("write_pgm", "mask", re.escape("(5, 0)"),
     [("empty", np.zeros((5, 0), dtype=bool))], write_and_read),
    ("rasterize", "radii", "radii",
     bad_arrays(RADII),
     lambda v, path: ms.rasterize(v, CENTROID, ms.Alignment(), (16, 16))),
    ("align", "radii", "radii",
     bad_arrays(RADII), lambda v, path: ms.align(v, CENTROID, CLUMP)),
    # a clump that fills the canvas makes every rotation feasible
    ("align", "radii-full-clump", "radii",
     bad_arrays(RADII),
     lambda v, path: ms.align(v, CENTROID, np.ones((16, 16), dtype=bool))),
    ("AlignmentSearcher.search", "radii", "radii",
     bad_arrays(RADII),
     lambda v, path: ms.AlignmentSearcher(CENTROID, CLUMP, 12).search(v)),
    ("rasterize", "centroid", "centroid",
     BAD_NUMBERS.items(),
     lambda v, path: ms.rasterize(RADII, (v, 8.0), ms.Alignment(), (16, 16))),
    ("Alignment", "r", "scale",
     BAD_NUMBERS.items(), lambda v, path: ms.Alignment(r=v)),
    ("Alignment", "theta", "rotation",
     BAD_NUMBERS.items(), lambda v, path: ms.Alignment(theta=v)),
    ("sample_shape_vector", "centroid", "centroid",
     BAD_NUMBERS.items(),
     lambda v, path: ms.sample_shape_vector(CLUMP, (v, 8.0), 12)),
]

# counts also get a fraction
BAD_COUNTS = [*BAD_NUMBERS.items(), ("fraction", 12.5)]

K_ENTRY_POINTS = [
    ("sample_shape_vector",
     lambda v, path: ms.sample_shape_vector(CLUMP, CENTROID, v)),
    ("overlapping_degree",
     lambda v, path: ms.overlapping_degree(CLUMP, [CLUMP], CENTROID, v)),
    ("RadialGrid",
     lambda v, path: ms.geometry.RadialGrid(CENTROID, (16, 16), v, 4.0)),
    ("AlignmentSearcher",
     lambda v, path: ms.AlignmentSearcher(CENTROID, CLUMP, v)),
    ("generate_scene",
     lambda v, path: ms.generate_scene(ms.GeneratorConfig(k=v), 0)),
]

SETTINGS = [
    (ms.LearningConfig, "step", BAD_NUMBERS.items(), "weight step"),
    (ms.LearningConfig, "max_tries_per_example", BAD_COUNTS, "caps"),
    (ms.LearningConfig, "max_cycles", BAD_COUNTS, "caps"),
    (ms.LearningConfig, "variance_threshold", BAD_NUMBERS.items(),
     "variance_threshold"),
    (ms.EvolutionConfig, "energy_threshold_fraction", BAD_NUMBERS.items(),
     "energy_threshold_fraction"),
    (ms.EvolutionConfig, "max_outer_iterations", BAD_COUNTS,
     "max_outer_iterations"),
    (ms.GridSearchConfig, "r_min", BAD_NUMBERS.items(), "r_min|scales"),
    (ms.GridSearchConfig, "r_max", BAD_NUMBERS.items(), "r_max|scales"),
    (ms.GridSearchConfig, "r_step", BAD_NUMBERS.items(), "r_step|scales"),
    (ms.GridSearchConfig, "theta_count", BAD_COUNTS, "theta_count"),
    (ms.GeneratorConfig, "k", BAD_COUNTS, r"\bk\b"),
    (ms.GeneratorConfig, "boundary_noise_amplitude", BAD_NUMBERS.items(),
     "boundary_noise_amplitude"),
]


def use_settings(make, field, value):
    """Build a setting; a grid config also lists its scales and angles."""
    config = make(**{field: value})
    if isinstance(config, ms.GridSearchConfig):
        config.r_values(), config.theta_values()
    return config


# entry points whose cases run in the child process
SEARCHES = ("align", "AlignmentSearcher.search")


def contract_cases():
    """(case id, whether it runs in the child, call, value, name)."""
    for entry, argument, name, variants, call in ENTRY_POINTS:
        for kind, value in variants:
            yield (f"{entry}-{argument}-{kind}", entry in SEARCHES, call,
                   value, name)
    for entry, call in K_ENTRY_POINTS:
        for kind, value in BAD_COUNTS:
            yield f"{entry}-k-{kind}", False, call, value, r"\b[kK]\b"
    for make, field, variants, name in SETTINGS:
        for kind, value in variants:
            yield (f"{make.__name__}-{field}-{kind}", False,
                   lambda v, path, make=make, field=field:
                   use_settings(make, field, v), value, name)


def message_of(call, value, path):
    """None when the call returns, else the message of the ``ValueError``
    or ``MultishapeError`` it raised; anything else propagates."""
    try:
        call(value, path)
    except (ValueError, ms.MultishapeError) as exc:
        return str(exc)
    return None


def print_search_outcomes():
    """Print, as JSON, each search case's message, or the repr of any
    other exception it raised; every warning is an error."""
    warnings.simplefilter("error")
    outcomes = {}
    for case, in_child, call, value, _ in contract_cases():
        if in_child:
            try:
                outcomes[case] = ["message", message_of(call, value, None)]
            except Exception as exc:
                outcomes[case] = ["unexpected", repr(exc)]
    print(json.dumps(outcomes))


@pytest.fixture(scope="module")
def search_outcomes():
    child = subprocess.run(
        [sys.executable, "-c",
         "import test_contract as t; t.print_search_outcomes()"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, in_child, call, value, name", [
    pytest.param(*case, id=case[0]) for case in contract_cases()])
def test_returns_or_names_argument(request, tmp_path, case, in_child, call,
                                   value, name):
    path = tmp_path / "out"
    if in_child:
        kind, message = request.getfixturevalue("search_outcomes")[case]
        assert kind == "message", message
    else:
        message = message_of(call, value, path)
    if message is not None:
        assert re.search(name, message), message
        assert not path.exists()


@pytest.mark.filterwarnings("error")
def test_radius_ceiling_runs_clean():
    """Radii at MAX_RADIUS, every rotation feasible on a full clump."""
    radii = np.full(12, ms.geometry.MAX_RADIUS)
    full = np.ones((16, 16), dtype=bool)
    assert ms.align(radii, CENTROID, full) == ms.Alignment(2.0, 0.0)
    assert ms.AlignmentSearcher(CENTROID, full, 12).search(radii).r == 2.0
    assert ms.rasterize(radii, CENTROID, ms.Alignment(2.0), (16, 16)).all()
