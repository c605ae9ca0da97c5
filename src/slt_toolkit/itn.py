"""Rule-based inverse text normalization for display formatting.

Restores digits from spelled-out German numbers, uppercases sentence
starts and appends a terminal period. This is a deliberately small
approximation of a full ITN service: noun recasing, date re-contraction
and comma placement are out of scope.
"""

from __future__ import annotations

import re

from .numbers_de import NUMBER_PIECES, NUMBER_START_PIECES, parse_number_de

# Standalone "ein"/"eine" are (almost always) articles, not the number one.
_ARTICLE_WORDS = {"ein", "eine"}

# Longest run of adjacent tokens tried as one spelled number ("zwei
# millionen" as well as the joined "zweimillionen").
_MAX_RUN = 4

# Exact preconditions for parse_number_de, so that tokens no number word
# can start with or contain are never joined and parsed. A run starts only
# at a token whose first one or two characters begin a start piece; it
# extends only over tokens whose first one or two characters occur in some
# concatenation of pieces (inside one piece or across two).
_START_HEADS = {word[:k] for word in NUMBER_START_PIECES for k in (1, 2)}
_INNER_HEADS = {word[k:k + size] for word in NUMBER_PIECES
                for k in range(len(word)) for size in (1, 2)}
_INNER_HEADS |= {last + first for last in {word[-1] for word in NUMBER_PIECES}
                 for first in {word[0] for word in NUMBER_PIECES}}


def contract_numbers_de(text: str) -> str:
    """Replace maximal runs of German number words with digit strings."""
    tokens = text.split()
    n = len(tokens)
    out: list[str] = []
    i = 0
    while i < n:
        token = tokens[i]
        best_len = 0
        if token[:2] in _START_HEADS:
            run = ""
            for j in range(i, min(i + _MAX_RUN, n)):
                if j > i and tokens[j][:2] not in _INNER_HEADS:
                    break
                run += tokens[j]
                value = parse_number_de(run)
                if value is not None:
                    best_len = j - i + 1
                    best_value = value
        if best_len and not (best_len == 1 and token in _ARTICLE_WORDS):
            out.append(str(best_value))
            i += best_len
        else:
            out.append(token)
            i += 1
    return " ".join(out)


_TERMINAL = (".", "!", "?")
_SENTENCE_SPLIT_RE = re.compile(r"([.!?])")


def restore_display(text: str) -> str:
    """Contract numbers, capitalize the sentence start, add a final period."""
    if not text.strip():
        return text
    # Even indices are the sentences, odd ones the terminals between them;
    # each sentence is scanned only up to its first letter.
    pieces = _SENTENCE_SPLIT_RE.split(contract_numbers_de(text))
    for k in range(0, len(pieces), 2):
        piece = pieces[k]
        for m, ch in enumerate(piece):
            if ch.isalpha():
                pieces[k] = piece[:m] + ch.upper() + piece[m + 1:]
                break
    result = "".join(pieces)
    if not result.rstrip().endswith(_TERMINAL):
        result = result.rstrip() + "."
    return result
