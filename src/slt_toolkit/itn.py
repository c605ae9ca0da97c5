"""Rule-based inverse text normalization for display formatting.

Restores digits from spelled-out German numbers, uppercases sentence
starts and appends a terminal period. This is a deliberately small
approximation of a full ITN service: noun recasing, date re-contraction
and comma placement are out of scope.
"""

from __future__ import annotations

import re

from .numbers_de import NUMBER_PIECES, NUMBER_START_PIECES, SCALES, \
    parse_number_de

# Longest run of adjacent tokens tried as one spelled number ("zwei
# millionen" as well as the joined "zweimillionen"): split after each
# scale word, every scale and tausend give a coefficient and the scale word,
# and the last group adds one token ("zwei milliarden drei millionen vier
# tausend fünf").
_MAX_RUN = 2 * (len(SCALES) + 1) + 1

# Exact preconditions for parse_number_de, so that tokens no number word
# can start with or contain are never joined and parsed. A run starts only
# at a token whose first three characters (``token[:3]``) begin a start
# piece, and extends only over tokens whose first three characters occur in
# some concatenation of pieces. Every piece has at least three characters,
# so those lie inside one piece or across the boundary of two: a piece's
# last one or two characters followed by another's first one or two.
_START_HEADS = {word[:k] for word in NUMBER_START_PIECES for k in (1, 2, 3)}
_INNER_HEADS = {word[k:k + size] for word in NUMBER_PIECES
                for k in range(len(word)) for size in (1, 2, 3)}
_INNER_HEADS |= {tail + head
                 for tail in {word[-k:] for word in NUMBER_PIECES
                              for k in (1, 2)}
                 for head in {word[:k] for word in NUMBER_PIECES
                              for k in (1, 2)}
                 if len(tail) + len(head) <= 3}


def contract_numbers_de(text: str) -> str:
    """Replace maximal runs of German number words with digit strings."""
    tokens = text.split()
    n = len(tokens)
    out: list[str] = []
    i = 0
    while i < n:
        token = tokens[i]
        end = i
        if token[:3] in _START_HEADS:
            # Gate the window first, then parse its runs from the longest
            # down: the first run that parses is the longest one that does.
            end = i + 1
            stop = min(i + _MAX_RUN, n)
            while end < stop and tokens[end][:3] in _INNER_HEADS:
                end += 1
            while end > i:
                value = parse_number_de("".join(tokens[i:end]))
                if value is not None:
                    break
                end -= 1
            else:
                end = i
        if end > i:
            out.append(str(value))
            i = end
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
