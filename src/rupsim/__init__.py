"""Simulation and estimation toolkit for nonparametric regression under
random unbiased perturbations of the conditional law Y|X.

Generators for dataset-level perturbations that keep the covariate marginal
fixed, local polynomial estimators with explicit weights, a nested Monte
Carlo risk decomposition (bias / sampling variance / distributional
variance), effective-sample-size bandwidth rules, and exact block-Gaussian
KL computations for scaling checks.
"""

from .bandwidth import (BandwidthSelection, EffectiveSampleSize, NeedsMultipleDomains,
                        NumericDeadEnd, domain_cv_bandwidth, effective_sample_size,
                        estimate_tau_from_summaries, naive_cv_bandwidth,
                        oracle_bandwidth, within_bucket_noise_variance)
from .baseline import (BaselineConfig, Dataset, RegressionFunction, get_function,
                       sample_baseline, sine_function, zero_function)
from .kernels import (EPANECHNIKOV, KERNELS, SMOOTH_BUMP, TRIANGULAR, UNIFORM,
                      Kernel, get_kernel)
from .klscale import (BlockCovariance, KlScalingTable, TwoPointConstruction,
                      block_precision_apply, conditional_kl, correlated_noise_kl_suite, kl_mc)
from .local_poly import (LocalFit, LpeConfig, NoLocalSupport, SortedDesign, WeightVector,
                         equivalent_kernel_weights, fit_predict, local_fit, predict_grid,
                         sort_design)
from .perturbation import (CorrelatedNoiseSpec, PartitionSpec, PerturbationRealization,
                           PerturbationStrength, WeightLaw, bucket_of, delta_at,
                           delta_variance_mc, draw_perturbation, kl_to_baseline_partition,
                           load_realization, perturbation_strength, realization_from_json,
                           realization_to_json, sample_perturbed, save_realization)
from .risk import (MiseCurve, RiskReport, dist_var_weight_oracle, mise_ladder, mise_mc,
                   optimal_bandwidth_curve, pointwise_risk_mc, rate_fit)
from .streams import map_indexed, substream, substreams

__version__ = "0.1.0"
