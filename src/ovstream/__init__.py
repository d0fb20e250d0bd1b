"""Online continual learning for open-vocabulary classifiers over embedding streams.

The engine combines a frozen cosine-softmax scorer with an online-tuned
decoder through per-class accuracy-weighted voting, replays stored samples
under several sampling strategies, and compresses stored token features with
per-instance weighted PCA plus integer quantization.
"""

from .core import (
    FormatError,
    LabelEmbeddingTable,
    argmax_label,
    zero_shot_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "FormatError",
    "LabelEmbeddingTable",
    "argmax_label",
    "zero_shot_probabilities",
    "__version__",
]
