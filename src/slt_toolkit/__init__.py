"""Corpus preprocessing and evaluation toolkit for sign language
translation pipelines: subtitle cleaning, German text normalization,
BLEU / reduced BLEU scoring, vocabulary statistics, inverse text
normalization and feature-window planning."""

from .corpus import Corpus, Source, Utterance, load_corpus, load_segments, \
    write_corpus, write_segments
from .cleaning import CleanConfig, CleanOutcome, LanguageProfile, Verdict, \
    clean_corpus, detect_language, match_status_message
from .normalize import AbbrevTable, NormConfig, find_numeric_spans, \
    normalize_text
from .numbers_de import parse_number_de, spell_date_de, spell_number_de
from .itn import contract_numbers_de, restore_display
from .metrics import BleuScore, StopList, bleu, count_stopwords, \
    default_stoplist, reduced_bleu, remove_stopwords, select_checkpoint
from .stats import CorpusStats, compare_stats, vocab_stats
from .frameplan import MouthPlan, PadSpec, WindowPlan, WindowSpec, \
    plan_mouth, plan_padding, plan_windows

__version__ = "0.1.0"
