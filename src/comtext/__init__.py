"""Community detection on social graphs with text-derived edge weights.

Two attribute signals are taken for each structural edge of the
interaction graph from its endpoints' posted text: content similarity
(cosine of tf-idf vectors) and sentiment bias (combined polar sentiment
vectors).  Their alpha-weighted sum weights the edge, and communities are
detected by seeded expansion from high-strength centers, scored with
weighted modularity.
"""

from .corpus import (
    Corpus,
    Document,
    EdgeList,
    build_corpus,
    ensure_users,
    load_corpus,
    load_edges,
    tokenize,
)
from .detect import Partition, detect, expand_communities, select_centers
from .errors import GraphError, ParameterError, ParseError, UndefinedModularityError
from .fixtures import SyntheticSpec, generate, karate_partition
from .graph import WeightedGraph, build_weighted_graph, structural_graph
from .metrics import QualityReport, nmi, quality_report
from .pipeline import CompareResult, RunConfig, RunResult, StageError, compare, run
from .sentiment import SentimentLexicon, bias_matrix, bias_score, load_lexicon, score_text
from .similarity import (
    PackedVector,
    SymmetricMatrix,
    similarity_matrix,
    similarity_score,
    user_vectors,
)

__version__ = "0.1.0"
