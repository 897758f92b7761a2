"""Desk-scale laboratory for early-abort diffusion generation.

An analytically tractable diffusion engine over scene mixtures, mid-run
capture of predicted final images and attention maps, a per-object presence
detector, abort-policy economics (closed form and Monte Carlo), and a live
abort-and-reseed runtime, all reproducible bit for bit from explicit seeds.
"""

from .dataset import (DatasetConfig, DatasetManifest, SampleRecord,
                      build_prompt_grid, generate_dataset, label_image,
                      load_manifest)
from .detector import (ConfusionReport, DesignMatrix, DetectorModel,
                       FEATURE_NAMES, build_design_matrix,
                       calibrate_threshold, evaluate_detector, extract_features,
                       fit_detector, train_logistic)
from .engine import (CapturedStep, GenerationRecord, LatentState,
                     NoiseSchedule, Posterior, attention_map, ddim_step,
                     exact_epsilon, make_schedule, predict_final_image,
                     responsibilities, sample_with_capture, trajectory)
from .errors import (DegenerateLabels, DegenerateVariance, DimensionMismatch,
                     EmptyTargets, GrammarError, HeadLabError, InvalidT,
                     MissingCapture, MissingReport, NeverAccepts,
                     NonFiniteLoss, RestartLimitExceeded, TrialBudgetExceeded,
                     UnknownObject, UsageError)
from .rng import SplitMix64, mix64
from .scene import (MixtureSpec, ObjectSpec, Prompt, build_conditional_mixture,
                    completeness_probability, default_catalog, dump_catalog,
                    extract_targets, load_catalog, pattern_distribution,
                    prompt_text, render_mean_image)
from .timesaver import (AttemptDistribution, PolicyParams, SimReport,
                        baseline_cost, expected_cost_closed_form,
                        monte_carlo_cost, relative_saving, sweep_probability,
                        sweep_tlast)
from .runtime import (RunPolicy, RunTrace, measure_campaign,
                      run_until_complete)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
