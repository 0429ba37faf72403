"""Wavelet-coefficient fields, their norms, and profile decomposition."""

from .dyadic import (
    DyadicAffine,
    DyadicRationalVec,
    WaveletIndex,
    act_on_index,
    compose,
    invert,
    magnitude,
    orthogonality_gap,
    relative_map,
)
from .extract import (
    BesovInput,
    Decomposition,
    ExtractConfig,
    GroupMember,
    LpInput,
    ProfileGroup,
    VerificationReport,
    cross_interaction,
    extract_profiles,
    input_space_norm,
    reconstruct,
    remainder,
    remainder_space_norm,
    verify,
)
from .field import CoeffField, combine, rank, split_top, transform
from .norms import (
    BesovParams,
    EmbeddingChainReport,
    InterpolationCheck,
    besov_norm,
    coeff_lp,
    cross_square_pair,
    embedding_chain_check,
    interpolation_check,
    lp_norm,
    sup_amplitude,
)
from .synth import (
    AlignmentReport,
    ParamLaw,
    PlantedProfile,
    SeededStream,
    SyntheticSpec,
    align_frames,
    generate,
    validate_spec,
)

__all__ = [
    "DyadicAffine", "DyadicRationalVec", "WaveletIndex", "act_on_index", "compose",
    "invert", "magnitude", "orthogonality_gap", "relative_map",
    "BesovInput", "Decomposition", "ExtractConfig", "GroupMember", "LpInput",
    "ProfileGroup", "VerificationReport", "cross_interaction", "extract_profiles",
    "input_space_norm", "reconstruct", "remainder",
    "remainder_space_norm", "verify",
    "CoeffField", "combine", "rank", "split_top", "transform",
    "BesovParams", "EmbeddingChainReport", "InterpolationCheck",
    "besov_norm", "coeff_lp", "cross_square_pair",
    "embedding_chain_check", "interpolation_check", "lp_norm", "sup_amplitude",
    "AlignmentReport", "ParamLaw", "PlantedProfile", "SeededStream",
    "SyntheticSpec", "align_frames", "generate", "validate_spec",
]
__version__ = "0.1.0"
