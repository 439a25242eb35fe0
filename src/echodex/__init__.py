"""Echo index tooling for input-driven recurrent networks.

A trained RNN driven by an input sequence is a nonautonomous dynamical
system; its echo index counts the simultaneously stable responses it
can produce for that input.  This package provides the state-update
map and its Jacobian, sequence-space plumbing (shift, metrics,
generators), sufficient-condition certifiers for index 1, ensemble
estimation of the index, pullback fibres, separatrix location, a
reservoir training recipe with output feedback, and preset experiments
exposed through the `echodex` command.
"""

from .core import (ConfigurationError, RnnParams, Trajectory, jacobian,
                   jacobian_batch, load_params, orbit, save_params,
                   spectral_norm, step, step_batch)
from .sequences import (ContextTask, InputSequence, WindowExhausted, d_prod,
                        d_unif, gen_context_task, gen_two_symbol,
                        gen_uniform_scaled, load_input, load_sequence,
                        save_sequence, shift, splice_large_input)
from .contraction import (ContractionReport, LargeInputSpec, Region,
                          absorbing_entry_bound, global_esp_check,
                          large_input_radius, local_contraction_norm,
                          region_contraction_check, region_invariance_check,
                          strip_bounds_closed_form)
from .index import (Cluster, EchoIndexReport, EnsembleRun, IndexProtocol,
                    PullbackFibre, SeparatrixResult, cluster_asymptotics,
                    ensemble_to_csv, estimate_echo_index,
                    estimate_echo_indices, hausdorff_semidistance,
                    pair_divergence_step, pullback_fibre, run_ensemble,
                    separatrix_bisect)
from .training import (ReservoirConfig, TrainedModel, closed_loop_eval,
                       init_reservoir, load_model, nrmse, pca_project,
                       ridge_readout, save_model, teacher_forced_states)
from .presets import (KloedenSystem, context_reservoir, scalar_params,
                      switching_inputs, switching_params)
from .experiments import (Assertion, ExperimentResult, resolve_config,
                          run_context_task, run_fold_bisect, run_from_manifest,
                          run_kloeden, run_preset, run_scalar_sweep,
                          run_splice_demo, run_switching2d)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "Assertion", "Cluster", "ConfigurationError", "ContextTask",
    "ContractionReport", "EchoIndexReport", "EnsembleRun",
    "ExperimentResult", "IndexProtocol", "InputSequence",
    "KloedenSystem", "LargeInputSpec", "PullbackFibre", "Region",
    "ReservoirConfig", "RnnParams", "SeparatrixResult", "TrainedModel",
    "Trajectory", "WindowExhausted",
    "absorbing_entry_bound", "closed_loop_eval", "cluster_asymptotics",
    "context_reservoir", "d_prod", "d_unif", "ensemble_to_csv",
    "estimate_echo_index", "estimate_echo_indices", "gen_context_task",
    "gen_two_symbol", "gen_uniform_scaled", "global_esp_check",
    "hausdorff_semidistance", "init_reservoir", "jacobian", "jacobian_batch",
    "large_input_radius", "load_input", "load_model", "load_params",
    "load_sequence", "local_contraction_norm", "nrmse", "orbit",
    "pair_divergence_step", "pca_project", "pullback_fibre",
    "region_contraction_check", "region_invariance_check", "resolve_config",
    "ridge_readout", "run_context_task", "run_ensemble", "run_fold_bisect",
    "run_from_manifest", "run_kloeden", "run_preset", "run_scalar_sweep",
    "run_splice_demo", "run_switching2d", "save_model", "save_params",
    "save_sequence", "scalar_params", "separatrix_bisect", "shift",
    "spectral_norm", "splice_large_input", "step", "step_batch", "substream",
    "switching_inputs", "switching_params", "teacher_forced_states",
]
