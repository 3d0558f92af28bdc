"""Dependency-context embedding toolkit.

Extracts typed dependency contexts from parsed corpora, trains skip-gram
negative-sampling embeddings from arbitrary (word, context) pairs, and
searches the space of context-bag configurations for the best one per word
class.
"""

from .conllu import ConlluError, Token, parse_conllu, read_corpus
from .evaluation import (
    EvalResult,
    WordPairDataset,
    cosine,
    evaluate,
    spearman,
    split_folds,
    toefl_evaluate,
)
from .extraction import (
    BagMappingTable,
    ExtractionConfig,
    Manifest,
    PairStream,
    bag_texts,
    collapse_prepositions,
    window_pairs,
    write_bag_files,
)
from .search import (
    Configuration,
    FitnessCache,
    SearchTrace,
    build_pool,
)
from .sgns import (
    EmbeddingStore,
    TrainerConfig,
    Vocabulary,
    build_vocab,
    load_embeddings,
    save_embeddings,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BagMappingTable",
    "Configuration",
    "ConlluError",
    "EmbeddingStore",
    "EvalResult",
    "ExtractionConfig",
    "FitnessCache",
    "Manifest",
    "PairStream",
    "SearchTrace",
    "Token",
    "TrainerConfig",
    "Vocabulary",
    "WordPairDataset",
    "bag_texts",
    "build_pool",
    "build_vocab",
    "collapse_prepositions",
    "cosine",
    "evaluate",
    "load_embeddings",
    "parse_conllu",
    "read_corpus",
    "save_embeddings",
    "spearman",
    "split_folds",
    "toefl_evaluate",
    "train",
    "window_pairs",
    "write_bag_files",
]
