"""crowdrel: true-label inference and per-instance annotator reliability
estimation from noisy multi-annotator labels."""

from .baselines import DsModel, DsResult, dawid_skene, majority_vote
from .data import (
    AnnotationSet,
    GoldLabels,
    Instance,
    LabelSet,
    feature_matrix,
    load_annotations,
    load_gold,
    load_instances,
    validate,
)
from .evaluate import (
    DenoiseResult,
    F1Scores,
    ReliabilityReport,
    denoise_experiment,
    f1,
    fleiss_kappa,
    krippendorff_alpha,
    reliability_report,
)
from .featurize import (
    EmbeddingTable,
    Vocabulary,
    average_embed,
    fit_tfidf,
    load_embeddings,
    transform_tfidf,
)
from .model import (
    JointPosterior,
    ModelState,
    TrainConfig,
    TrainResult,
    ce_losses,
    e_step,
    load_model,
    posterior_from_priors,
    pretrain,
    q_objective,
    save_model,
    train,
)
from .simulate import AnnotatorProfile, default_panel, gen_2d, graded_panel, simulate_annotations

__version__ = "0.1.0"
