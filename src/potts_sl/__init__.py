"""Soft self-labeling for scribble-supervised segmentation at desk scale.

Simplex-valued pixel fields, affinity graphs, six pairwise relaxations of the
Potts smoothness model, cross-entropy couplings between predictions and soft
pseudo-labels, a logit-space pseudo-label solver with scribble pinning, exact
and brute-force oracles, and an alternating trainer for a pixelwise
linear-softmax classifier.
"""

from .affinity import AffinityConfig, AffinityGraph, Image, NeighborhoodKind, build_graph
from .config import RunConfig, parse_config_text, read_config
from .data_terms import XentKind, corrupted_target, xent_grad, xent_value
from .errors import (
    DIVERGENT,
    DataError,
    DivergentPointError,
    InfiniteDivergenceError,
    NumericalError,
    is_divergent,
)
from .fileio import (
    DEFAULT_PALETTE,
    read_ground_truth,
    read_image,
    read_probfield,
    read_scribbles,
    visualize,
    write_image,
    write_labels,
    write_probfield,
)
from .losses import LossConfig, scribble_nll, sl_loss, ws_loss
from .metrics import miou
from .oracles import (
    brute_force_discrete,
    discrete_energy,
    finite_diff_check,
    random_walker_solve,
)
from .potts import PottsKind, potts_grad, potts_sum, potts_sum_grad, potts_value
from .simplex import (
    Distribution,
    LogitField,
    ProbField,
    ScribbleField,
    argmax_decode,
    entropy,
    kl,
    one_hot,
    softmax,
)
from .solver import (
    SolveReport,
    SolverConfig,
    pseudo_label_objective,
    soft_jaccard,
    solve_pseudo_labels,
)
from .trainer import (
    PixelModel,
    TrainConfig,
    alternate,
    corruption_experiment,
    pixel_features,
    predict,
    pretrain,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
