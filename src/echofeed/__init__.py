"""Engagement-optimizing recommender, consent ledger, and filter-bubble
simulator.

The pipeline: build a sparse rating matrix from user engagement, fit a
regularized latent-factor model by SGD, and generate top-K recommendations.
A user-owned, hash-chained consent ledger gates which users' ratings may be
trained on and records token rewards; the simulator demonstrates how the
closed recommend/engage loop fragments users into communities.
"""

from .errors import EchoFeedError
from .ledger import (
    ChainReport,
    Keypair,
    LedgerBlock,
    PayloadType,
    PortableProfile,
    UserAccount,
    accounts,
    append_blocks,
    append_event,
    consented_ratings,
    credit_tokens,
    export_profile,
    import_profile,
    load_ledger,
    load_profile,
    new_ledger,
    save_ledger,
    save_profile,
    set_consent,
    verify_chain,
)
from .model import (
    FactorModel,
    init_model,
    l2_penalty,
    load_model,
    objective,
    predict,
    save_model,
)
from .ratings import (
    RatingMatrix,
    from_triplets,
    load_csv,
    split_holdout,
    write_csv,
)
from .simulate import (
    CommunityLabels,
    RecommendationList,
    engagement_round,
    fragmentation_index,
    synth_community_matrix,
    top_k,
)
from .training import TrainConfig, TrainReport, gradient_at, rmse, sgd_step, train

__version__ = "0.1.0"

__all__ = [
    "ChainReport",
    "CommunityLabels",
    "EchoFeedError",
    "FactorModel",
    "Keypair",
    "LedgerBlock",
    "PayloadType",
    "PortableProfile",
    "RatingMatrix",
    "RecommendationList",
    "TrainConfig",
    "TrainReport",
    "UserAccount",
    "accounts",
    "append_blocks",
    "append_event",
    "consented_ratings",
    "credit_tokens",
    "engagement_round",
    "export_profile",
    "fragmentation_index",
    "from_triplets",
    "gradient_at",
    "import_profile",
    "init_model",
    "l2_penalty",
    "load_csv",
    "load_ledger",
    "load_model",
    "load_profile",
    "new_ledger",
    "objective",
    "predict",
    "rmse",
    "save_ledger",
    "save_model",
    "save_profile",
    "set_consent",
    "sgd_step",
    "split_holdout",
    "synth_community_matrix",
    "top_k",
    "train",
    "verify_chain",
    "write_csv",
]
