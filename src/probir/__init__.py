"""Probabilistic text retrieval: BM11 scoring with locational/categorical
extensions, two automatic-feedback engines, unsupervised segmentation,
dictionary-based cross-lingual search, and a graded-judgment evaluator."""

__version__ = "0.1.0"
