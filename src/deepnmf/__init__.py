"""deepnmf: deep nonnegative matrix factorization with sparsity penalties.

Accelerated projected-gradient block solvers, NNSVD seeding, layer-wise
pretraining plus whole-system fine-tuning for five penalty variants, an
optional nonlinear inter-layer projection path, and a k-means/NMI/ER/NP
evaluation harness with an experiment CLI.
"""

from .activations import ACTIVATIONS, Activation, get_activation
from .apg import ApgProblem, StopRule, apg_solve
from .dataio import (DatasetBundle, load_bundle, load_factors, load_labels,
                     load_matrix, save_bundle, save_factors, save_labels,
                     save_matrix)
from .errors import (DataFormatError, DeepNmfError, InvalidInputError,
                     NumericalError)
from .experiment import (EvalConfig, ExperimentConfig, SweepAxes,
                         draw_layer_structures, parse_config, run_experiment)
from .linalg import as_matrix, check_nonneg, frobenius_sq, sym_spectral_norm
from .metrics import (Partition, confusion_matrix, error_rate, from_labels,
                      kmeans, naive_precision, nmi)
from .models import (FactorStack, ModelSpec, VARIANTS, finetune_objective,
                     finetune_problem, make_spec, objective, pretrain_problem)
from .nnsvd import nnsvd_init
from .nonlinear import (basis_gradient, nonlinear_finetune, nonlinear_objective,
                        representation_gradient)
from .synth import synth_generate
from .train import TrainConfig, TrainReport, finetune, fit, pretrain

__version__ = "0.1.0"
