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

# Every spelling parse_number_de accepts is a concatenation of these
# pieces, and begins with one of the start pieces.
NUMBER_START_PIECES = frozenset(
    _UNITS[1:] + _TEENS + _TENS[2:] + ["ein", "eine", "null"])
NUMBER_PIECES = NUMBER_START_PIECES | {
    "hundert", "und", "tausend", "million", "millionen", "milliarde",
    "milliarden"}

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
    unit_word = "ein" if unit == 1 else _UNITS[unit]
    return unit_word + "und" + _TENS[tens]


def _spell_under_1000(n: int, one: str = "eins") -> str:
    hundreds, rest = divmod(n, 100)
    word = ""
    if hundreds:
        word += ("ein" if hundreds == 1 else _UNITS[hundreds]) + "hundert"
    word += _spell_under_100(rest, one)
    return word


def spell_number_de(n: int) -> str:
    """Spell a cardinal in [0, 999_999_999_999] as one lowercase word."""
    if not 0 <= n <= MAX_NUMBER:
        raise ValueError(f"number out of range [0, {MAX_NUMBER}]: {n}")
    if n == 0:
        return "null"
    billions, rest = divmod(n, 10 ** 9)
    millions, rest = divmod(rest, 10 ** 6)
    thousands, low = divmod(rest, 1000)
    word = ""
    if billions:
        if billions == 1:
            word += "einemilliarde"
        else:
            word += _spell_under_1000(billions, one="eine") + "milliarden"
    if millions:
        if millions == 1:
            word += "einemillion"
        else:
            word += _spell_under_1000(millions, one="eine") + "millionen"
    if thousands:
        word += _spell_under_1000(thousands, one="ein") + "tausend"
    if low:
        word += _spell_under_1000(low, one="eins")
    return word


def _inverse_table(one: str) -> dict[str, int]:
    """{_spell_under_1000(n, one): n for n in 1..999}, keys in that order,
    joined from 10 hundred heads and 100 under-hundred tails; the first
    spelling is "" for 0 and is dropped."""
    heads = [""] + [_spell_under_1000(100 * h) for h in range(1, 10)]
    tails = [_spell_under_100(n, one) for n in range(100)]
    spellings = [head + tail for head in heads for tail in tails]
    return dict(zip(spellings[1:], range(1, 1000)))


# Inverse tables, one per final-"one" form. Spellings under 1000 are unique
# within each form, so parsing a chunk is a dict lookup.
_TABLE_EINS = _inverse_table("eins")
_TABLE_EIN = _inverse_table("ein")
_TABLE_EINE = _inverse_table("eine")


def _parse_feminine_scale(rest: str, word: str, table: dict[str, int]):
    """Split off '<coef><word>[plural]' from the front; None if malformed."""
    idx = rest.find(word)
    if idx <= 0:
        return 0, rest
    coef = table.get(rest[:idx])
    if coef is None:
        return None
    tail = rest[idx + len(word):]
    if coef == 1:
        if rest[:idx] != "eine":
            return None
        return 1, tail
    suffix = "n" if word.endswith("e") else "en"
    if not tail.startswith(suffix):
        return None
    return coef, tail[len(suffix):]


def parse_number_de(word: str) -> int | None:
    """Inverse of spell_number_de; None when the word is not a cardinal."""
    if word == "null":
        return 0
    rest = word
    billions = millions = 0
    if "milli" in word:  # neither scale split applies without it
        result = _parse_feminine_scale(rest, "milliarde", _TABLE_EINE)
        if result is None:
            return None
        billions, rest = result
        result = _parse_feminine_scale(rest, "million", _TABLE_EINE)
        if result is None:
            return None
        millions, rest = result
    thousands = 0
    idx = rest.find("tausend")
    if idx == 0:
        return None
    if idx > 0:
        thousands = _TABLE_EIN.get(rest[:idx], 0)
        if thousands == 0:
            return None
        rest = rest[idx + len("tausend"):]
    low = 0
    if rest:
        low = _TABLE_EINS.get(rest, 0)
        if low == 0:
            return None
    total = billions * 10 ** 9 + millions * 10 ** 6 + thousands * 1000 + low
    return total if total else None


_ORDINAL_IRREGULAR = {1: "erster", 3: "dritter", 7: "siebter", 8: "achter"}


def spell_ordinal_de(n: int) -> str:
    """Day-of-month ordinal in the masculine nominative '-ter' form."""
    if not 1 <= n <= 31:
        raise ValueError(f"ordinal out of range [1, 31]: {n}")
    if n in _ORDINAL_IRREGULAR:
        return _ORDINAL_IRREGULAR[n]
    if n < 20:
        return _spell_under_1000(n) + "ter"
    return _spell_under_1000(n, one="ein") + "ster"


def spell_year_de(year: int) -> str:
    """Years 1100-1999 use the hundreds convention, otherwise plain cardinal."""
    if 1100 <= year <= 1999:
        hundreds, rest = divmod(year, 100)
        word = _spell_under_100(hundreds, one="ein") + "hundert"
        if rest:
            word += _spell_under_1000(rest, one="eins")
        return word
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
