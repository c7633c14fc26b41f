"""Low-rank spectral query compression with simulated-oracle Riemannian optimization."""

from .tensor_core import (
    HosvdFactorization,
    as_matrix,
    as_tensor3,
    fold,
    hosvd,
    mode_n_product,
    reconstruct,
    tail_energy,
    truncated_reconstruct,
    unfold,
)
from .spectral_masking import (
    EPS_DECREASE,
    EPS_INCREASE,
    EPS_MAX,
    EPS_MIN,
    CompressedState,
    SpectralMaskSet,
    adapt_epsilon,
    asm_compress,
    budget,
    compress_within_budget,
    mask_factorization,
    masked_tensor,
    spectral_mask,
)
from .manifold import (
    RankDeficiencyError,
    StiefelPoint,
    TuckerPoint,
    TuckerTangent,
    qr_retraction,
    riemannian_grad_tucker,
    stiefel_step,
    tangent_norm_sq,
    tangent_project_stiefel,
    tangent_to_ambient,
    tucker_from_tensor,
    tucker_retract,
    tucker_to_tensor,
    zero_tangent,
)
from .query_codec import (
    CapacityError,
    CodecError,
    DecodedQuery,
    FramingError,
    IntegrityError,
    VersionError,
    decode,
    encode,
)
from .oracle_sim import (
    OracleBackend,
    OracleConfig,
    OracleResponse,
    SimulatedOracle,
    aggregate,
    ensemble_infer,
)
from .optimizer import (
    DescentReport,
    RunTrace,
    StepSchedule,
    TaskSpec,
    TraceRow,
    descent_certificate,
    run_cqd,
    run_cqd_ensemble,
    step_size,
    stochastic_grad,
)
from .bench_cli import ExperimentConfig, Report, emit_report, gen_synthetic

__version__ = "0.1.0"
