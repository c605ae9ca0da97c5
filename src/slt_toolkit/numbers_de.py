"""German cardinal/ordinal spelling and the inverse word-to-digit parser.

Cardinals follow the usual compound convention: units-und-tens joined into
one word, thousand groups concatenated ("zweiundvierzig",
"eintausendeins", "zweimillionendreihundert"). The final "one" takes
"eins" standalone, "ein" before hundert/tausend and "eine" before the
feminine scale words million/milliarde.
"""

from __future__ import annotations

MAX_NUMBER = 999_999_999_999

_UNITS = ["", "eins", "zwei", "drei", "vier", "fünf", "sechs", "sieben",
          "acht", "neun"]
_TEENS = ["zehn", "elf", "zwölf", "dreizehn", "vierzehn", "fünfzehn",
          "sechzehn", "siebzehn", "achtzehn", "neunzehn"]
_TENS = ["", "", "zwanzig", "dreißig", "vierzig", "fünfzig", "sechzig",
         "siebzig", "achtzig", "neunzig"]

# The feminine scale words above tausend, largest first: (value, singular
# after "eine", plural after any other coefficient).
SCALES = ((10 ** 9, "milliarde", "milliarden"),
          (10 ** 6, "million", "millionen"))

# Every spelling parse_number_de accepts is a concatenation of these
# pieces, and begins with one of the start pieces.
NUMBER_START_PIECES = frozenset(
    _UNITS[1:] + _TEENS + _TENS[2:] + ["ein", "eine", "null"])
NUMBER_PIECES = NUMBER_START_PIECES | {"hundert", "und", "tausend"} | {
    word for _, one, many in SCALES for word in (one, many)}

MONTHS = ["januar", "februar", "märz", "april", "mai", "juni", "juli",
          "august", "september", "oktober", "november", "dezember"]


def _spell_under_100(n: int, one: str) -> str:
    if n == 0:
        return ""
    if n == 1:
        return one
    if n < 10:
        return _UNITS[n]
    if n < 20:
        return _TEENS[n - 10]
    tens, unit = divmod(n, 10)
    if unit == 0:
        return _TENS[tens]
    return _spell_under_100(unit, "ein") + "und" + _TENS[tens]


def _spellings(one: str) -> list[str]:
    """The spellings of 0..999 whose final "one" is ``one``, "" for 0,
    joined from 10 hundred heads and 100 under-hundred tails."""
    heads = [""] + [_spell_under_100(h, "ein") + "hundert"
                    for h in range(1, 10)]
    tails = [_spell_under_100(n, one) for n in range(100)]
    return [head + tail for head in heads for tail in tails]


# Spellings under 1000, one list per final-"one" form: "eins" standalone,
# "ein" before tausend, "eine" before the feminine scale words.
_SPELL_EINS = _spellings("eins")
_SPELL_EIN = _spellings("ein")
_SPELL_EINE = _spellings("eine")


def spell_number_de(n: int) -> str:
    """Spell a cardinal in [0, 999_999_999_999] as one lowercase word."""
    if not 0 <= n <= MAX_NUMBER:
        raise ValueError(f"number out of range [0, {MAX_NUMBER}]: {n}")
    if n < 1000:
        return _SPELL_EINS[n] if n else "null"
    word = ""
    for value, one, many in SCALES:
        coef, n = divmod(n, value)
        if coef:
            word += _SPELL_EINE[coef] + (one if coef == 1 else many)
    thousands, low = divmod(n, 1000)
    if thousands:
        word += _SPELL_EIN[thousands] + "tausend"
    return word + _SPELL_EINS[low]


# Inverse tables, one per final-"one" form. Spellings under 1000 are unique
# within each form, so parsing a chunk is a dict lookup.
_TABLE_EINS = dict(zip(_SPELL_EINS[1:], range(1, 1000)))
_TABLE_EIN = dict(zip(_SPELL_EIN[1:], range(1, 1000)))
_TABLE_EINE = dict(zip(_SPELL_EINE[1:], range(1, 1000)))


def parse_number_de(word: str) -> int | None:
    """Inverse of spell_number_de; None when the word is not a cardinal."""
    if word == "null":
        return 0
    rest = word
    total = 0
    if "milli" in word:  # neither scale split applies without it
        for value, one, many in SCALES:
            idx = rest.find(one)
            if idx <= 0:
                continue
            coef = _TABLE_EINE.get(rest[:idx])
            scale = one if coef == 1 else many
            if coef is None or not rest.startswith(scale, idx):
                return None
            total += coef * value
            rest = rest[idx + len(scale):]
    idx = rest.find("tausend")
    if idx == 0:
        return None
    if idx > 0:
        thousands = _TABLE_EIN.get(rest[:idx], 0)
        if thousands == 0:
            return None
        total += thousands * 1000
        rest = rest[idx + len("tausend"):]
    if rest:
        low = _TABLE_EINS.get(rest, 0)
        if low == 0:
            return None
        total += low
    return total if total else None


_ORDINAL_IRREGULAR = {1: "erster", 3: "dritter", 7: "siebter", 8: "achter"}


def spell_ordinal_de(n: int) -> str:
    """Day-of-month ordinal in the masculine nominative '-ter' form."""
    if not 1 <= n <= 31:
        raise ValueError(f"ordinal out of range [1, 31]: {n}")
    if n in _ORDINAL_IRREGULAR:
        return _ORDINAL_IRREGULAR[n]
    return _spell_under_100(n, "eins") + ("ter" if n < 20 else "ster")


def spell_year_de(year: int) -> str:
    """Years 1100-1999 use the hundreds convention, otherwise plain cardinal."""
    if 1100 <= year <= 1999:
        hundreds, rest = divmod(year, 100)
        return (_spell_under_100(hundreds, "ein") + "hundert"
                + _spell_under_100(rest, "eins"))
    return spell_number_de(year)


_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _days_in_month(year: int, month: int) -> int:
    """Length of a Gregorian month; the leap-year rule is calendar.isleap's."""
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        return 29
    return _MONTH_DAYS[month - 1]


def spell_date_de(day: int, month: int, year: int) -> str:
    """Spell a calendar date, e.g. (3, 10, 2022) -> 'dritter oktober ...'."""
    if not 1 <= month <= 12:
        raise ValueError(f"invalid month: {month}")
    if not 1 <= day <= _days_in_month(year, month):
        raise ValueError(f"invalid date: {day}.{month}.{year}")
    return f"{spell_ordinal_de(day)} {MONTHS[month - 1]} {spell_year_de(year)}"
