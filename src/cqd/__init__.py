"""Low-rank spectral query compression with simulated-oracle Riemannian optimization.

The package re-exports what a run needs; import every other name from its module.
"""

from .manifold import gen_synthetic, tucker_from_tensor
from .optimizer import StepSchedule, TaskSpec, run_cqd, run_cqd_ensemble
from .oracle_sim import OracleConfig

__version__ = "0.1.0"
