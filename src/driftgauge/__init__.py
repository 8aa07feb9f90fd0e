"""driftgauge: label-free accuracy estimation from embedding-distribution shift.

Given pooled embedding sets for a model's training workload (source) and an
unlabeled deployment workload (target), the toolkit computes a compact shift
vector between them, regresses dataset-level accuracy from it with a small
MLP trained on labeled synthetic workloads, attaches a split-conformal
prediction interval, and meta-learns initializations that adapt to unseen
base models from a small probe set.  Budget-constrained meta-set accounting
and a latency benchmark for the sliced-distance kernel round out the tooling.
"""

from .descriptors import (
    FEATURE_NAMES,
    NUM_FEATURES,
    ProjectionBasis,
    ShiftDescriptor,
    SWDConfig,
    build_basis,
    compute_delta,
    frechet_descriptor,
    hybrid_swd,
    mahalanobis_descriptor,
    random_directions,
    sliced_w2,
    sliced_w2_per_slice,
    variance_log_ratios,
)
from .errors import DriftGaugeError
from .evaluator import (
    LoadedModel,
    MLPParams,
    Normalizer,
    TrainConfig,
    TrainReport,
    adamw_step,
    cosine_lr,
    init_mlp,
    load_model,
    loss_and_grad,
    predict,
    predict_many,
    save_model,
    train,
)
from .meta_learning import (
    MetaTask,
    ReptileConfig,
    adapt_to_model,
    inner_adapt,
    meta_train,
    reptile_outer,
)
from .meta_set import (
    BudgetLedger,
    BudgetPlan,
    CostModel,
    MetaInstance,
    build_meta_instance,
    draw_sample_sets,
    load_meta_set,
    plan_budget,
    save_meta_set,
    worst_case_bound,
)
from .metrics import (
    Interval,
    canonical_sql,
    conformal_interval,
    exact_match,
    mae,
)
from .synth import (
    BenchResult,
    GaussianWorkloadSpec,
    bench_swd,
    gen_gaussian_workload,
    shift_family,
    synthetic_accuracy_fn,
)
from .workload import (
    DEFAULT_VARIANCE_FLOOR,
    EmbeddingSet,
    MomentSummary,
    load_embedding_set,
    moments,
    save_embedding_set,
    subsample,
)

__version__ = "0.1.0"
