"""Seeded generator of SRF/FN-like German subtitle inputs for the benchmark.

Every function takes a ``random.Random`` built from the run's seed, writes
the files the program under test reads into a work directory and returns
the planted labels that the checks compare against. The program never
sees the labels.

Why the inputs look the way they do
-----------------------------------
prep     2k raw utterances, about 10% planted noise (3% sound cues, of
         which half fill the whole line; 1.5% hashtag lines; 1.5% agency
         status messages; 2% English and 2% French sentences), enough of
         each kind for every cleaning rule to fire dozens of times per
         pass. DE lines carry 1-2 numeric or abbreviation spans on average (integers with and without
         thousands separators, dates, decimals, percentages, prices, clock
         times, units, table abbreviations), so number spelling is on the
         hot path as it is on news and weather subtitles.
select   600 normalized reference segments and 5 checkpoints. Checkpoints are
         perturbations of the references at graded content error rates
         (6-24%) crossed with graded stop-word insertion rates (2-30%), so
         the BLEU winner (ckpt3) and the reduced-BLEU winner (ckpt1)
         differ: that is the case reduced BLEU exists for.
display  normalized model output where about every third token belongs to
         a spelled number: split scale runs ("zwei millionen"), years in
         both conventions, "komma" decimals and "ein"/"eine" articles,
         which makes the ITN contraction try its full 4-token window.

Sizes (2k utterances, 600 references, 5k display lines) keep one pass of
each workload near 0.3-0.5 s, so that a run times many passes: the
machine's speed changes from one second to the next and a timing
estimate needs many samples to follow it.

Draws are never filtered against the open defects of the library; lines
that exercise one of them carry a ``known_defect`` tag so the checks can
count them separately from unexpected failures.
"""

from __future__ import annotations

import json
import random
import unicodedata
from pathlib import Path

# --- German cardinals, spelled independently of the library -----------------

_ONES = ["null", "eins", "zwei", "drei", "vier", "fünf", "sechs", "sieben",
         "acht", "neun", "zehn", "elf", "zwölf", "dreizehn", "vierzehn",
         "fünfzehn", "sechzehn", "siebzehn", "achtzehn", "neunzehn"]
_TENS = ["", "", "zwanzig", "dreißig", "vierzig", "fünfzig", "sechzig",
         "siebzig", "achtzig", "neunzig"]
_SCALES = ((10 ** 9, "eine", "milliarde", "milliarden"),
           (10 ** 6, "eine", "million", "millionen"),
           (10 ** 3, "ein", "tausend", "tausend"))


def _below_1000(n: int, one: str) -> str:
    """1..999; a bare final 1 is spelled ``one`` ("eins", "ein", "eine")."""
    hundreds, rest = divmod(n, 100)
    word = ("ein" if hundreds == 1 else _ONES[hundreds]) + "hundert" \
        if hundreds else ""
    if rest == 1:
        return word + one
    if rest < 20:
        return word + (_ONES[rest] if rest else "")
    tens, unit = divmod(rest, 10)
    if unit:
        word += ("ein" if unit == 1 else _ONES[unit]) + "und"
    return word + _TENS[tens]


def spell_tokens(n: int, split: bool) -> list[str]:
    """German cardinal as one compound word, or split at the scale words
    ("zwei millionen dreihundert tausend") the way ASR output writes it."""
    if n == 0:
        return ["null"]
    parts: list[str] = []
    for value, one, singular, plural in _SCALES:
        count, n = divmod(n, value)
        if count:
            parts += [_below_1000(count, one), singular if count == 1 else plural]
    if n:
        parts.append(_below_1000(n, "eins"))
    return parts if split else ["".join(parts)]


def spell_year(year: int) -> str:
    if 1100 <= year <= 1999:
        hundreds, rest = divmod(year, 100)
        return _below_1000(hundreds, "ein") + "hundert" + \
            (_below_1000(rest, "eins") if rest else "")
    return spell_tokens(year, split=False)[0]


# --- prep: raw corpus -------------------------------------------------------

_CITIES = ["Bern", "Zürich", "Basel", "Genf", "Luzern", "Lugano", "Chur",
           "Winterthur", "St. Gallen", "Biel", "Thun", "Aarau", "Sion"]
_NAMES = ["Meier", "Keller", "Müller", "Schneider", "Frei", "Brunner",
          "Gerber", "Baumann", "Steiner", "Fischer", "Weber", "Huber"]
_CANTONS = ["Bern", "Zürich", "Wallis", "Tessin", "Graubünden", "Aargau"]

# German subtitle lines; each {kind} slot is filled by _slot().
_DE_TEMPLATES = [
    "Guten Abend, meine Damen und Herren.",
    "Die Temperaturen steigen morgen auf {temp}.",
    "Am {date} stimmt die Schweiz über die Vorlage ab.",
    "Der Bund rechnet mit Mehrkosten von {dec} Mrd. Franken.",
    "Das sind {pct} mehr als im Vorjahr.",
    "Der Zug nach {city} fährt um {time} ab Gleis {small}.",
    "Laut Prof. {name} ist das Risiko eher gering.",
    "Es gab {small} Verletzte, u.a. in {city}.",
    "{name} gewinnt das Rennen mit {dec} Sekunden Vorsprung.",
    "Die neue Wohnung in {city} misst {area}.",
    "Der Wind erreicht in den Alpen bis zu {speed}.",
    "Rund {big} Menschen haben die Ausstellung besucht.",
    "Das Budget beträgt ca. {dec} Mio. Franken.",
    "Im Jahr {year} wurde das Gebäude eröffnet.",
    "Heute vor {small} Jahren, am {date}, begann alles.",
    "Das Ticket kostet neu {price}.",
    "Bis {year} sollen es {pct} sein.",
    "Dr. {name} leitet die Klinik seit {year}.",
    "Die Arbeitslosenquote liegt aktuell bei {pct}.",
    "Der FC {city} gewinnt {goals} gegen {city}.",
    "Es braucht z.B. mehr Geld für die Bildung.",
    "Das Spiel beginnt heute Abend um {time}.",
    "In {city} schneit es bis auf {big} Meter hinunter.",
    "Die Initiative wurde mit {pct} Ja-Stimmen angenommen.",
    "Die Bahnhofstr. {small} bleibt bis am {date} gesperrt.",
    "Wir sehen uns morgen wieder.",
    "Das ist eine gute Frage.",
    "Vielen Dank für das Gespräch.",
    "Nach {small} Minuten fällt das erste Tor.",
    "Der Pegel des Rheins stieg um {dec} Meter.",
    "Die Teuerung beträgt {pct}, bzw. etwas weniger als erwartet.",
    "Sie sind {small} Jahre alt und wohnen in {city}.",
    "Der Gipfel liegt auf {big} Metern über Meer.",
    "Etwa {big} Zuschauerinnen und Zuschauer waren dabei.",
    "Die Sitzung dauert max. {small} Stunden.",
    "Das Paket wiegt {dec} kg.",
    "Der Kt. {canton} meldet {small} neue Fälle.",
    "Vgl. dazu die Zahlen vom {date}.",
    "Die Strecke ist {dec} km lang.",
    "„Wir sind sehr zufrieden“, sagt {name}.",
    "Es regnet – zum Glück nur kurz…",
    "Und jetzt zum Wetter.",
]

# Additional clauses that lengthen a line to the typical 10-14 tokens.
_DE_TAILS = [
    "", "", "", " Das ist ein neuer Rekord.", " Weitere Infos folgen.",
    " Das sagt Dr. {name}.", " Die Polizei sucht Zeugen.",
    " Der Entscheid fällt am {date}.", " Es geht um {big} Franken.",
]

_DE_OPENERS = ["", "", "", "", "- ", "Ja, ", "Also: ", "Nun, "]

_SOUND_CUES = ["*Musik*", "*Applaus*", "*Gelächter*", "*Jubel*",
               "*Glocken läuten*", "*Spannende Musik*", "*Hupen*",
               "*Telefon klingelt*"]

_HASHTAG_TEMPLATES = [
    "#SRFmeteo: Morgen bis {temp} warm.",
    "#Abstimmung{year}: Alle Resultate online.",
    "#Eishockey {name} trifft zum {goals}.",
    "#fokusnews Heute um {time} live.",
]

STATUS_MESSAGES = ("1:1-Untertitelung.",
                   "Livepassagen können Fehler enthalten.",
                   "Mit Live-Untertiteln von SWISS TXT")
_STATUS_TAILS = ["", "", " ", ".", "..."]

# Foreign sentences: every one has a function-word share of at least 0.3
# once punctuation is ignored, so the rule-based identifier is expected to
# catch it. Function words are taken from the package profiles and avoid
# the words the profiles share with the German stop list.
_EN_FUNCTION = {"the", "of", "and", "to", "is", "are", "it", "you", "we",
                "i", "this", "for", "what", "do", "be", "was", "a", "that",
                "with", "have", "not", "they", "at"}
_FR_FUNCTION = {"pour", "votre", "la", "le", "je", "ne", "pas", "nous",
                "de", "vous", "que", "en", "dans", "une", "elle", "est",
                "au", "et", "il", "un", "les", "sur", "avec"}
_EN_SENTENCES = [
    "Thank you for the invitation.", "Thank you.",
    "I don't know what to do.", "We are very happy to be here.",
    "This is the best day of my life!", "What do you think about it?",
    "Ladies and gentlemen, welcome to the show.",
    "It was a great game for us.", "Are you sure?", "Yes, of course.",
    "I love you!", "Where is it?", "Happy birthday to you!",
    "See you later.", "Nice to meet you.",
    "They have not seen it yet.", "We have to go, it is late.",
]
_FR_SENTENCES = [
    "Merci beaucoup pour votre attention.", "C'est la vie.",
    "Je ne sais pas.", "Nous sommes très contents de vous voir.",
    "Qu'est-ce que vous en pensez?", "Merci à vous.",
    "Le match commence dans une heure.",
    "Elle est la meilleure joueuse de la saison.",
    "Au revoir et à bientôt!", "Il y a un problème avec le train.",
    "Les résultats sont sur le site.",
]


def _thousands(n: int, rng: random.Random) -> str:
    """Digit string with a dot, narrow/thin space, Swiss apostrophe or no
    thousands separator, as subtitlers write them."""
    sep = rng.choice([".", ".", " ", " ", "'", ""])
    text = f"{n:,}".replace(",", "\x00")
    return text.replace("\x00", sep)


def _slot(kind: str, rng: random.Random) -> tuple[str, list[str], str | None]:
    """(text, planted span kinds, known defect tag or None) for one slot."""
    if kind == "small":
        return str(rng.randint(1, 99)), ["INTEGER"], None
    if kind == "big":
        n = rng.choice([rng.randint(100, 9999), rng.randint(1000, 999_999),
                        rng.randint(1_000_000, 90_000_000)])
        return _thousands(n, rng), ["INTEGER"], None
    if kind == "year":
        return str(rng.randint(1950, 2030)), ["INTEGER"], None
    if kind == "date":
        day, month = rng.randint(1, 28), rng.randint(1, 12)
        fmt = rng.choice(["{d}.{m}.{y}", "{d:02d}.{m:02d}.{y}"])
        return fmt.format(d=day, m=month, y=rng.randint(1990, 2030)), \
            ["DATE"], None
    if kind == "dec":
        return f"{rng.randint(0, 99)},{rng.randint(1, 99)}", ["DECIMAL"], None
    if kind == "pct":
        value = rng.choice([str(rng.randint(1, 99)),
                            f"{rng.randint(1, 60)},{rng.randint(1, 9)}"])
        unit = rng.choice([" Prozent", "%", " %"])
        return value + unit, ["DECIMAL" if "," in value else "INTEGER",
                              "UNIT"], None
    if kind == "price":
        if rng.random() < 0.3:  # 1.299,50 Franken: separator plus decimals
            text = f"{_thousands(rng.randint(1000, 9999), rng)}," \
                   f"{rng.randint(10, 99)} Franken"
            return text, ["INTEGER", "DECIMAL"], None
        return rng.choice([f"{rng.randint(2, 200)} Franken",
                           f"CHF {rng.randint(2, 200)}.–",
                           f"{rng.randint(2, 200)} €"]), ["INTEGER", "UNIT"], None
    if kind == "time":
        h, m = rng.randint(0, 23), rng.choice([0, 15, 30, 45, 5, 20])
        return rng.choice([f"{h}.{m:02d} Uhr", f"{h}:{m:02d}"]), \
            ["INTEGER", "INTEGER"], None
    if kind == "temp":
        return rng.choice([f"{rng.randint(-5, 35)} Grad",
                           f"{rng.randint(-5, 35)} °C"]), ["INTEGER", "UNIT"], None
    if kind == "area":
        unit = rng.choice(["m²", "Quadratmeter", "m²", "m³"])
        defect = "superscript-digit" if unit in ("m²", "m³") else None
        return f"{rng.randint(20, 250)} {unit}", ["INTEGER", "UNIT"], defect
    if kind == "speed":
        return f"{rng.randint(40, 180)} km/h", ["INTEGER", "UNIT"], None
    if kind == "goals":
        return f"{rng.randint(0, 7)}:{rng.randint(0, 7)}", \
            ["INTEGER", "INTEGER"], None
    if kind == "city":
        return rng.choice(_CITIES), [], None
    if kind == "name":
        return rng.choice(_NAMES), [], None
    if kind == "canton":
        return rng.choice(_CANTONS), [], None
    raise KeyError(kind)


_ABBREVIATIONS = ("Mrd.", "Mio.", "Prof.", "u.a.", "ca.", "Dr.", "z.B.",
                  "bzw.", "max.", "Kt.", "Vgl.", "St.")


def _fill(template: str, rng: random.Random) -> tuple[str, list[str], set[str]]:
    spans: list[str] = []
    defects: set[str] = set()
    out = []
    rest = template
    while "{" in rest:
        head, _, tail = rest.partition("{")
        kind, _, rest = tail.partition("}")
        text, kinds, defect = _slot(kind, rng)
        out += [head, text]
        spans += kinds
        if defect:
            defects.add(defect)
    out.append(rest)
    text = "".join(out)
    spans += [f"ABBREV:{a}" for a in _ABBREVIATIONS if a in text]
    return text, spans, defects


def _german_line(rng: random.Random) -> tuple[str, list[str], set[str]]:
    text, spans, defects = _fill(rng.choice(_DE_TEMPLATES), rng)
    tail, tail_spans, tail_defects = _fill(rng.choice(_DE_TAILS), rng)
    return rng.choice(_DE_OPENERS) + text + tail, spans + tail_spans, \
        defects | tail_defects


def _foreign_defect(sentence: str, function_words: set[str]) -> str | None:
    """Tag a sentence the identifier only misses because punctuation is
    glued to its function words (ROADMAP item 4)."""
    tokens = sentence.lower().split()
    bare = sum(1 for t in tokens if t in function_words)
    stripped = sum(1 for t in tokens
                   if "".join(ch for ch in t if not unicodedata.category(ch)
                              .startswith("P")) in function_words)
    if stripped / len(tokens) < 0.3:
        raise ValueError(f"undetectable foreign sentence: {sentence!r}")
    return "lang-punct" if bare / len(tokens) < 0.3 else None


def make_prep(rng: random.Random, workdir: Path, n: int = 2_000) -> dict:
    """Raw corpus, clip manifest and per-utterance labels."""
    corpus_lines, manifest_lines, labels = [], [], []
    for i in range(n):
        source = "SRF" if rng.random() < 0.6 else "FN"
        uid = f"{source.lower()}-{i:06d}"
        draw = rng.random()
        defects: set[str] = set()
        spans: list[str] = []
        expected_text = None
        if draw < 0.015:
            category, verdict = "sound-cue", "DROPPED"
            text = rng.choice(_SOUND_CUES)
        elif draw < 0.03:
            category, verdict = "sound-cue-embedded", "EDITED"
            body, spans, defects = _german_line(rng)
            cue = rng.choice(_SOUND_CUES)
            text = f"{cue} {body}" if rng.random() < 0.5 else f"{body} {cue}"
            expected_text = body
            if "\u2009" in body or "\u202f" in body:
                # Stripping the cue also turns the thin spaces that group
                # thousands into plain spaces, which splits the number.
                defects.add("cue-space-collapse")
        elif draw < 0.045:
            category, verdict = "hashtag", "DROPPED"
            text, spans, defects = _fill(rng.choice(_HASHTAG_TEMPLATES), rng)
        elif draw < 0.06:
            category, verdict = "status", "DROPPED"
            text = rng.choice(STATUS_MESSAGES) + rng.choice(_STATUS_TAILS)
        elif draw < 0.08:
            category, verdict = "EN", "DROPPED"
            text = rng.choice(_EN_SENTENCES)
            defects = {d for d in [_foreign_defect(text, _EN_FUNCTION)] if d}
        elif draw < 0.10:
            category, verdict = "FR", "DROPPED"
            text = rng.choice(_FR_SENTENCES)
            defects = {d for d in [_foreign_defect(text, _FR_FUNCTION)] if d}
        else:
            category, verdict = "kept", "KEPT"
            text, spans, defects = _german_line(rng)
            expected_text = text
        tokens = len(text.split())
        duration = 0.0 if category == "status" and rng.random() < 0.3 \
            else round(tokens * rng.uniform(0.25, 0.45), 3)
        corpus_lines.append(json.dumps(
            {"id": uid, "text": text, "source": source,
             "duration_s": duration}, ensure_ascii=False))
        frames = round(duration * 25)
        width, height = rng.choice([(1280, 720), (1920, 1080), (1024, 576)])
        manifest_lines.append(json.dumps(
            {"id": uid, "frame_count": frames, "width": width,
             "height": height}))
        labels.append({"id": uid, "source": source, "text": text,
                       "duration_s": duration, "frames": frames,
                       "category": category, "verdict": verdict,
                       "expected_text": expected_text, "spans": spans,
                       "known_defects": sorted(defects)})
    (workdir / "raw.jsonl").write_text(
        "".join(line + "\n" for line in corpus_lines), encoding="utf-8")
    (workdir / "clips.jsonl").write_text(
        "".join(line + "\n" for line in manifest_lines), encoding="utf-8")
    return {"labels": labels, "lines": n}


# --- select: references and checkpoints -------------------------------------

# Common German function words; all of them are on the package stop list.
_STOP = ["der", "die", "das", "und", "ist", "in", "zu", "den", "von", "mit",
         "sich", "des", "auf", "für", "im", "dem", "ein", "eine",
         "als", "es", "an", "werden", "aus", "er", "hat", "dass",
         "sie", "wird", "einer", "um", "am", "sind", "noch",
         "wie", "einem", "über", "so", "zum", "war", "haben", "oder",
         "vor", "zur", "mehr", "man", "schon", "wenn",
         "da", "wir", "sehr", "doch", "wohl"]
_CONTENT = (
    "schweiz bund kanton stadt gemeinde regierung parlament initiative "
    "abstimmung vorlage franken prozent jahr jahre woche tag abend morgen "
    "wetter regen schnee sonne wind temperatur grad alpen see fluss rhein "
    "zug bahn strasse verkehr unfall polizei feuerwehr spital klinik "
    "ärztin arzt patient schule lehrer kinder familie eltern menschen "
    "leute frau mann politik wirtschaft firma arbeit stellen lohn preis "
    "kosten budget steuer bank geld markt export import energie strom "
    "atomkraft wasser klima umwelt wald tiere landwirtschaft bauern milch "
    "käse spiel match tor mannschaft trainer saison rennen sieg niederlage "
    "meister fans stadion konzert musik film festival ausstellung museum "
    "kultur sprache fernsehen radio zeitung internet daten forschung "
    "studie universität wissen zukunft vergangenheit geschichte krieg "
    "frieden gericht urteil gesetz recht bürger wahl partei mehrheit "
    "minderheit kritik lösung problem frage antwort entscheid plan ziel "
    "gestern heute bald später neu gross klein hoch tief stark schwach "
    "gut schlecht wichtig schwierig einfach klar sicher möglich sagt "
    "zeigt bringt kommt geht steigt sinkt bleibt fehlt hilft braucht "
    "baut plant fordert kritisiert unterstützt erklärt meldet berichtet"
).split()


def _reference(rng: random.Random) -> list[str]:
    tokens: list[str] = []
    for _ in range(rng.randint(8, 18)):
        draw = rng.random()
        if draw < 0.35:
            tokens.append(rng.choice(_STOP))
        elif draw < 0.42:
            tokens += spell_tokens(rng.choice([rng.randint(1, 99),
                                               rng.randint(100, 99_999)]),
                                   split=False)
        else:
            # Zipf-like: low indices are drawn far more often.
            tokens.append(_CONTENT[min(int(rng.paretovariate(1.1)) - 1,
                                       len(_CONTENT) - 1)])
    return tokens


# (name, content substitution/deletion rate, stop-word insertion rate)
CHECKPOINTS = (("ckpt1", 0.06, 0.30), ("ckpt2", 0.10, 0.12),
               ("ckpt3", 0.14, 0.02), ("ckpt4", 0.18, 0.20),
               ("ckpt5", 0.24, 0.06))


def _perturb(ref: list[str], content_err: float, stop_ins: float,
             rng: random.Random) -> str:
    out: list[str] = []
    for token in ref:
        draw = rng.random()
        if draw < content_err / 2:
            out.append(rng.choice(_CONTENT))          # substitution
        elif draw < content_err * 0.75:
            pass                                       # deletion
        elif draw < content_err:
            out += [token, rng.choice(_CONTENT)]       # content insertion
        else:
            out.append(token)
        if rng.random() < stop_ins:
            out.append(rng.choice(_STOP))              # stop-word insertion
    return " ".join(out)


def make_select(rng: random.Random, workdir: Path, n: int = 600) -> dict:
    refs = [_reference(rng) for _ in range(n)]
    (workdir / "ref.txt").write_text(
        "".join(" ".join(r) + "\n" for r in refs), encoding="utf-8")
    hyps = {}
    for name, content_err, stop_ins in CHECKPOINTS:
        lines = [_perturb(r, content_err, stop_ins, rng) for r in refs]
        (workdir / f"{name}.txt").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")
        hyps[name] = lines
    return {"refs": [" ".join(r) for r in refs], "hyps": hyps,
            "lines": n * len(CHECKPOINTS)}


# --- display: normalized model output dense in number words -----------------

_DISPLAY_FRAMES = [
    "{num} menschen haben {num} franken gespendet",
    "im jahr {year} lebten {num} leute in der stadt",
    "die temperatur steigt auf {small} grad und sinkt in der nacht auf {small} grad",
    "der kanton rechnet mit {dec} milliarden franken mehrkosten",
    "am {ordinal} {month} {year} stimmt die schweiz ab",
    "eine frau und ein mann haben {small} kinder",
    "es sind {dec} prozent mehr als im jahr {year}",
    "{num} zuschauerinnen und zuschauer sahen das spiel",
    "die mannschaft gewinnt {small} zu {small} gegen basel",
    "der zug fährt um {small} uhr {small} ab gleis {small}",
    "rund {num} tonnen wurden seit {year} exportiert",
    "ein grosser teil der {num} stellen ist noch offen",
    "die strecke ist {dec} kilometer lang und {num} meter hoch",
    "eins zu null für bern nach {small} minuten",
    "das budget steigt von {num} auf {num} franken",
    "eine studie zeigt {small} von {small} befragten sind zufrieden",
]
_MONTHS = ["januar", "februar", "märz", "april", "mai", "juni", "juli",
           "august", "september", "oktober", "november", "dezember"]
_ORDINALS = ["ersten", "zweiten", "dritten", "vierten", "fünften",
             "zehnten", "zwanzigsten", "einunddreissigsten"]


def _display_slot(kind: str, rng: random.Random) -> str:
    if kind == "small":
        return spell_tokens(rng.randint(0, 99), split=False)[0]
    if kind == "num":
        n = rng.choice([rng.randint(100, 9999), rng.randint(1000, 999_999),
                        rng.randint(1, 999) * 10 ** 6,
                        rng.randint(1_000_000, 999_999_999),
                        rng.randint(1, 99) * 10 ** 9])
        return " ".join(spell_tokens(n, split=rng.random() < 0.6))
    if kind == "year":
        return spell_year(rng.randint(1900, 2030))
    if kind == "dec":
        digits = " ".join(_ONES[int(d)] for d in str(rng.randint(1, 99)))
        return f"{spell_tokens(rng.randint(0, 99), split=False)[0]} komma {digits}"
    if kind == "ordinal":
        return rng.choice(_ORDINALS)
    if kind == "month":
        return rng.choice(_MONTHS)
    raise KeyError(kind)


def make_display(rng: random.Random, workdir: Path, n: int = 5_000) -> dict:
    lines = []
    for _ in range(n):
        frame = rng.choice(_DISPLAY_FRAMES)
        out, rest = [], frame
        while "{" in rest:
            head, _, tail = rest.partition("{")
            kind, _, rest = tail.partition("}")
            out += [head, _display_slot(kind, rng)]
        out.append(rest)
        lines.append("".join(out))
    (workdir / "model.txt").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8")
    return {"inputs": lines, "lines": n}


MAKERS = {"prep": make_prep, "select": make_select, "display": make_display}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs for one workload and return its planted labels."""
    return MAKERS[workload](random.Random(f"{workload}:{seed}"), workdir)
