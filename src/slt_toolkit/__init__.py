"""Corpus preprocessing and evaluation toolkit for sign language
translation pipelines: subtitle cleaning, German text normalization,
BLEU / reduced BLEU scoring, vocabulary statistics, inverse text
normalization and feature-window planning.

Import each name from the submodule that defines it, for example
``from slt_toolkit.metrics import bleu``.
"""

__version__ = "0.4.0"
