"""Corpus preprocessing and evaluation toolkit for sign language
translation pipelines: subtitle cleaning, German text normalization,
BLEU / reduced BLEU scoring, vocabulary statistics, inverse text
normalization and feature-window planning.

Submodules load on first use: ``import slt_toolkit`` imports none of
them, and ``slt_toolkit.bleu`` or ``slt_toolkit.metrics`` imports only
``metrics``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the names it exports.
_MODULES = {
    "corpus": ("Source", "Utterance", "load_corpus", "load_segments",
               "write_corpus", "write_segments"),
    "cleaning": ("CleanOutcome", "Verdict", "clean_corpus", "detect_language",
                 "match_status_message"),
    "normalize": ("AbbrevTable", "normalize_text"),
    "numbers_de": ("parse_number_de", "spell_date_de", "spell_number_de"),
    "itn": ("contract_numbers_de", "restore_display"),
    "metrics": ("BleuScore", "bleu", "count_stopwords", "default_stoplist",
                "read_stop_words", "reduced_bleu", "remove_stopwords",
                "select_checkpoint"),
    "stats": ("CorpusStats", "compare_stats", "vocab_stats"),
    "frameplan": ("WindowPlan", "plan_padding", "plan_windows"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule sets it as an attribute
        return _import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
