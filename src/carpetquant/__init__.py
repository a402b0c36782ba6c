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
    s2_family,
)
from .carpet import (
    BadProbabilities,
    CarpetError,
    CarpetSpec,
    ConfigError,
    DegenerateGrid,
    DuplicateCell,
    IndexSets,
    ThinDigitSet,
    derive_indices,
    load_config,
    make_spec,
    validate_spec,
)
from .codes import BadWord, Word, ell, encode_word
from .constants import NoBracket, SpectralConstants, constants, lhs, solve_sr
from .product import ProductWeights, product_weights, s1_scan
from .quantize import (
    BadK,
    Codebook,
    LloydResult,
    SamplePool,
    antichain_codebook,
    distortion,
    lloyd,
    lloyd_best,
    sample,
    theoretical_proxy,
)
from .runner import RunConfig, StageError, fit_slope, run

__version__ = "0.1.0"
