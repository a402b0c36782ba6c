"""Quantization dimension machinery for self-affine grid carpets.

The package solves the implicit dimension equation for the r-th quantization
dimension of a Bernoulli measure on a grid self-affine carpet, builds the
threshold antichains of approximate squares that drive the upper and lower
estimates, machine-checks every inequality those estimates rest on, and
estimates quantization errors empirically from chaos-game samples.
"""

from .antichain import (
    Antichain,
    BadTau,
    CapExceeded,
    CertificateCheck,
    CertificateReport,
    JCertificate,
    L1L2Result,
    build_l1_l2,
    build_upsilon,
    certify,
    glue,
    s2_family,
)
from .carpet import (
    BadProbabilities,
    CarpetError,
    CarpetSpec,
    CellNotInG,
    DegenerateGrid,
    DuplicateCell,
    IndexSets,
    ThinDigitSet,
    apply_map,
    cell_probabilities,
    derive_indices,
    load_config,
    make_spec,
    validate_spec,
)
from .constants import NoBracket, SpectralConstants, constants, lhs, solve_sr
from .product import (
    CylinderPair,
    ProductWeights,
    embed,
    log_w_mass,
    product_weights,
    s1_scan,
    w_mass,
)
from .quantize import (
    BadK,
    Codebook,
    LloydResult,
    SamplePool,
    antichain_codebook,
    distortion,
    distortion_stats,
    lloyd,
    lloyd_best,
    sample,
    theoretical_proxy,
)
from .runner import ConfigError, RunConfig, StageError, fit_slope, run
from .words import (
    ROOT,
    ApproxSquare,
    BadWord,
    EmptyWord,
    Relation,
    Word,
    all_words,
    children,
    compare,
    decode_word,
    ell,
    encode_word,
    energy,
    flatten,
    log_energy,
    log_measure,
    log_weight,
    measure,
    order,
    rect,
    validate_word,
    weight,
)

__version__ = "0.1.0"
