"""Joint segmentation of overlapping objects in a binary clump mask.

Each object is represented by K radial boundary distances from its
centroid.  A PCA shape space built from weighted training examples supplies
shape hypotheses; all objects in a clump are segmented together by
trust-region evolution of their shape coefficients against the clump mask,
with per-object scale and rotation refreshed by grid search.  Training
example importances can be learned by a cycling increment rule.
"""

from .align import AlignmentSearcher, GridSearchConfig, align
from .errors import (
    CanvasTooSmall,
    CentroidOutsideMask,
    ConfigError,
    DatasetIOError,
    DegenerateMask,
    DimensionMismatch,
    EmptyDataset,
    EmptyExampleSet,
    EmptyInput,
    EmptyTruth,
    ManifestMismatch,
    MultishapeError,
    RankDeficient,
    ZeroGradient,
)
from .evolution import (
    EvolutionConfig,
    EvolutionState,
    Sr1Hessian,
    TraceRow,
    energy,
    evolve,
    fd_hessian,
    gradient_fd,
    hessian_approx,
    mask_energy,
    trust_region_step,
)
from .importance import LearningConfig, TrainingPair, learn, terminated_energy
from .metrics import (
    ObjectReport,
    PixelReport,
    bin_by_degree,
    degree_bin,
    dsc,
    object_report,
    overlapping_degree,
    pixel_metrics,
)
from .netpbm import read_pgm, write_pgm, write_ppm
from .raster import Alignment, boundary, rasterize, union
from .scene import ClumpScene
from .shape_model import (
    ShapeExample,
    ShapeModel,
    WeightedExampleSet,
    build_model,
    clamp_coefficients,
    covariance,
    load_model,
    sample_shape_vector,
    save_model,
    synthesize,
    weighted_mean,
)
from .synthgen import (
    GeneratorConfig,
    export_dataset,
    generate_batch,
    generate_scene,
    import_dataset,
)

__version__ = "0.1.0"
