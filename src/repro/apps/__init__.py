"""Applications built on the SymProp kernels.

Hypergraph analytics and symmetric tensor computations the paper's
introduction motivates: spectral methods via rank-1 kernel applies
(Z-eigenpairs, centrality) and low-rank link prediction via pointwise
reconstruction.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".tensor_apply": ("symmetric_apply", "rayleigh_quotient"),
        ".eigen": ("sshopm", "ZEigenpair"),
        ".centrality": ("z_eigenvector_centrality", "degree_centrality"),
        ".moments": ("empirical_moment_tensor",),
        ".link_prediction": (
            "score_candidates",
            "holdout_split",
            "auc_score",
            "link_prediction_auc",
        ),
    },
)
