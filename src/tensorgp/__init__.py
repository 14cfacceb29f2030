"""Bayesian tensor completion with tensor-variate Gaussian and t processes.

A K-mode tensor of noisy (possibly binary, possibly incomplete)
observations is modeled as a draw from a stochastic process over tensors
whose Kronecker-structured covariance is built from kernels between factor
rows.  Variational EM alternates closed-form posterior updates over the
latent tensor (computed in the per-mode eigenbasis, never materializing the
full covariance) with l1-regularized quasi-Newton updates of the factors.
"""

from .distributions import (
    TensorNormalParams,
    TensorTParams,
    sample_finite_tucker,
    sample_tensor_normal,
    sample_tensor_t,
    std_normal_cdf,
    tensor_normal_logpdf,
    tensor_t_logpdf,
    truncated_normal_mean,
)
from .evaluate import (
    ExperimentSpec,
    auc,
    cv_splits,
    mse,
    normalize_tensor,
    random_mask,
    run_experiment,
    synth_generate,
)
from .inference import (
    FittedModel,
    ModelConfig,
    VariationalState,
    e_step_eta,
    e_step_m,
    e_step_z,
    fit,
    m_step_gradient,
    m_step_objective,
    optimize_factors,
    trace_sigma_inv_upsilon,
)
from .kernels import KernelSpec, SpectralGram, gram_matrix
from .prediction import (
    PredictiveMoments,
    cross_covariance,
    predict_batch,
    predict_gaussian,
    predict_probit,
    predictive_grids,
    predictive_moments,
)
from .tensorio import load_model, parse_config, read_tensor, save_model, write_tensor
from .tensors import mode_k_product, multi_index, multi_mode_vector_contract

__version__ = "0.1.0"
