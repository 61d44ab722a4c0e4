"""Fuzzy topic models over globally weighted term-document matrices.

Train with :func:`train`, fold unseen documents in with :func:`fold_in` or
:func:`fold_in_many`, and evaluate with :func:`classify` or
:func:`heldout_loglik`. The same operations are available on the command
line as ``flatm``.
"""

from .corpus import (
    InputFormatError,
    RawDocument,
    TermDocMatrix,
    TokenizerConfig,
    Vocabulary,
    build_matrix,
    default_stopwords,
    load_corpus,
    load_stopwords,
    tokenize,
)
from .fcm import (
    FcmConfig,
    FcmResult,
    fcm_run,
    objective,
    update_centers,
    update_memberships,
)
from .model import (
    CascadeSchedule,
    OutOfVocabularyError,
    ScheduleError,
    TopicModel,
    TrainConfig,
    cascade_reduce,
    fold_in,
    fold_in_many,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    stage_seed,
    top_words,
    topic_given_doc,
    train,
    word_given_doc,
    word_given_topic,
    word_probabilities,
)
from .evaluation import (
    EvalReport,
    SplitPlan,
    classify,
    corpus_log_likelihood,
    doc_log_likelihood,
    generate_synthetic,
    heldout_loglik,
    make_folds,
)
from .weighting import (
    GlobalWeightVector,
    GtwMethod,
    apply_gtw,
    compute_global_weights,
    global_weights_tsv,
    local_weights,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # corpus
    "InputFormatError",
    "RawDocument",
    "TermDocMatrix",
    "TokenizerConfig",
    "Vocabulary",
    "build_matrix",
    "default_stopwords",
    "load_corpus",
    "load_stopwords",
    "tokenize",
    # weighting
    "GlobalWeightVector",
    "GtwMethod",
    "apply_gtw",
    "compute_global_weights",
    "global_weights_tsv",
    "local_weights",
    # fcm
    "FcmConfig",
    "FcmResult",
    "fcm_run",
    "objective",
    "update_centers",
    "update_memberships",
    # model
    "CascadeSchedule",
    "OutOfVocabularyError",
    "ScheduleError",
    "TopicModel",
    "TrainConfig",
    "cascade_reduce",
    "fold_in",
    "fold_in_many",
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
    "stage_seed",
    "top_words",
    "topic_given_doc",
    "train",
    "word_given_doc",
    "word_given_topic",
    "word_probabilities",
    # evaluation
    "EvalReport",
    "SplitPlan",
    "classify",
    "corpus_log_likelihood",
    "doc_log_likelihood",
    "generate_synthetic",
    "heldout_loglik",
    "make_folds",
]
