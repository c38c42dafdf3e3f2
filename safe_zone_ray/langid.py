"""Deterministic language identification.

fastText ``lid.176.bin`` (the model named by the north star) cannot be
downloaded in this sandbox, so the stage ships a deterministic stand-in with
the same *interface* (label + score per document): a stopword/charset n-gram
heuristic over hand-written function-word profiles (public knowledge). The
actor-pool stage (stages/langquality.py) loads the profiles once in
``__init__`` — swap in fastText there when the model file is available
(constructor accepts ``model_path``).

Scoring: tokens are lowercased ``\\w+`` words; each language scores the
fraction of tokens in its function-word set, plus a bonus for its distinctive
diacritics; CJK-dominant text short-circuits to ``zh``. The claimed ``lang``
column is re-detected, never trusted (SURVEY.md section 0).
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

# Function-word profiles (top frequency words; public linguistic knowledge).
PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset(
        "the of and to in a is that it was for on are as with his they at be this have from or had by word but not what all were we when your can said there use an each which she do how their if will up other about out many then them these so some her would make like him into time has look two more write go see".split()
    ),
    "de": frozenset(
        "der die das und ist in den von zu mit sich des auf für nicht ein eine als auch es an werden aus er hat dass sie nach wird bei einer um am sind noch wie einem über einen so zum war haben nur oder aber vor zur bis mehr durch man sein wurde".split()
    ),
    "fr": frozenset(
        "le de la et les des en un du une que est pour qui dans a par plus pas au sur ne se ce il sont la avec son ont cette mais ses aux vous comme ou nous leur bien sans peut tout elle meme ces deux mes ainsi être été fait faire".split()
    ),
    "es": frozenset(
        "de la que el en y a los del se las por un para con no una su al lo como mas pero sus le ya o este si porque esta entre cuando muy sin sobre tambien me hasta hay donde quien desde todo nos durante todos uno les ni contra otros ese eso ante".split()
    ),
    "tr": frozenset(
        "bir ve bu da de için ile olarak daha çok en gibi ama kadar sonra ben sen o biz siz onlar ne var yok mi mu ki eğer çünkü ancak şu her şey iki üç gün yıl olan oldu olur değil".split()
    ),
    "it": frozenset(
        "di e il la che in a per è un una sono non con si da come le dei più anche lo ma ha questo della nel alla suo due essere stato fatto".split()
    ),
}

_DIACRITICS: dict[str, str] = {
    "de": "äöüß",
    "fr": "éèêàçùâîôû",
    "es": "ñáéíóú¿¡",
    "tr": "ğışİçöü",
}

LANGS: tuple[str, ...] = tuple(PROFILES)


def _cjk_fraction(text: str) -> float:
    if not text:
        return 0.0
    n = 0
    for ch in text:
        o = ord(ch)
        if 0x4E00 <= o <= 0x9FFF or 0x3040 <= o <= 0x30FF or 0xAC00 <= o <= 0xD7AF:
            n += 1
    return n / len(text)


def detect_language(text: str, tokens: list[str] | None = None) -> tuple[str, float]:
    """Returns (lang_code, score in [0,1]). "und" when no signal."""
    if not text:
        return "und", 0.0
    # cheap ASCII short-circuit: a single C-level max() decides whether any
    # CJK/diacritic handling is needed at all (the common web-text case)
    max_ch = max(text)
    is_ascii = max_ch < "À"
    if not is_ascii and max_ch >= "⺀":
        cjk = _cjk_fraction(text)
        if cjk >= 0.15:
            return "zh", min(1.0, cjk * 2.0)
    if tokens is None:
        tokens = _TOKEN_RE.findall(text.lower())
    # callers pass already-lowercased tokens (tokenise-once contract)
    if not tokens:
        return "und", 0.0
    n = len(tokens)
    lower_text = None if is_ascii else text.lower()
    best_lang, best_score = "und", 0.0
    for lang, words in PROFILES.items():
        hits = sum(1 for t in tokens if t in words)
        score = hits / n
        if lower_text is not None:
            dia = _DIACRITICS.get(lang)
            if dia:
                dia_hits = sum(lower_text.count(c) for c in dia)
                score += min(0.2, 0.02 * dia_hits)
        if score > best_score:
            best_lang, best_score = lang, score
    if best_score <= 0.0:
        return "und", 0.0
    return best_lang, min(1.0, best_score * 2.5)
