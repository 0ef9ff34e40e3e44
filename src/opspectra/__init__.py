"""Spectral analysis and normality classification for banded-plus-finite-rank
operators on l2(N)."""

__version__ = "0.1.0"

from .core import (DiagonalDescriptor, FiniteRankTerm, StructuredOperator,
                   constant_diagonal, diagonal, embed_at, from_dense_corner,
                   gram, identity, is_selfadjoint, rank_one, right_shift,
                   self_commutator, toeplitz, weighted_shift, zero)
from .errors import (ConvergenceFailure, DimensionMismatch, EssentialPoint,
                     NotHermitian, NotHyponormal, NotNormAttainingClass,
                     NotStabilized, OperatorLibraryError, ParseError,
                     PointOnCurve, SpecFileError, TemplateMismatch,
                     ValidationError)
from .symbols import (AreaEstimate, EssentialCurve, LaurentSymbol,
                      RegionComponent, SpectralSummary, ess_min_modulus,
                      essential_spectrum, fredholm_index, index_by_truncation,
                      spectral_area, symbol, winding, winding_regions)
from .numerics import (DiscreteEigenReport, EigenSystem, discrete_eigs_below,
                       hermitian_eig, min_modulus, operator_norm, svd_polar)
from .classify import (ANResult, CheckResult, ClassificationReport, Verdict,
                       check_am_normal, check_an, check_an_normal_equivalence,
                       check_an_positive, check_an_selfadjoint,
                       check_hyponormal, check_normal, check_paranormal,
                       check_selfadjoint, classify, discrete_singular_levels,
                       paranormal_pair_normality, putnam_check,
                       spectral_summary, weyl_normality_criterion)
from .decompose import (BlockDecomposition, H0Block, normality_from_blocks,
                        spectrum_inclusion_check, structure_decompose,
                        verify_decomposition)
from .specfiles import (BUNDLED, OperatorSpec, load_bundled, parse_spec,
                        parse_spec_text, resolve_spec, serialize_spec)
