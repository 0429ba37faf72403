"""Wavelet-coefficient fields, their norms, and profile decomposition."""

from .dyadic import (
    DyadicAffine,
    DyadicCube,
    DyadicRationalVec,
    WaveletIndex,
    act_on_index,
    compose,
    cube_of,
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
    partial_sums,
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
    NormReport,
    besov_norm,
    coeff_lp,
    cross_square_integral,
    embedding_chain_check,
    interpolation_check,
    lp_norm,
    norm_report,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
