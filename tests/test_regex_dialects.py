"""Cross-dialect regex audit (SURVEY.md 7.4 risk 3): every seed pattern must
agree between Python ``re`` (the row kernel), pyarrow RE2 (the vectorized
prefilter), and DuckDB RE2 (the driver oracle) — on the golden corpus texts,
the generator's PII sentences, and adversarial digit-run strings."""

import json
import os
import re

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from safe_zone_ray.pages import _h, _pii_sentence
from safe_zone_ray.registry import _scope_flags, load_registry

CASES_PATH = os.path.join(os.path.dirname(__file__), "data", "recognizer_cases.json")

def _sample_texts():
    texts = [c["text"] for c in json.load(open(CASES_PATH))]
    texts += [_pii_sentence(_h("dialect", i)) for i in range(60)]
    texts += [
        "1234567890",
        "12345678901",
        "1234567890123456",
        "12345678901234567",
        "4111 1111 1111 1111",
        "4111-1111 1111  1111",
        "a" * 39,
        "a" * 40,
        "a" * 41,
        "AKIA" + "A" * 16,
        "TR33 0006 1005 1978 6457 8413 26",
        "00:1A:2B:3C:4D:5E and 00-1a-2b-3c-4d-5e",
        "+90 532 123 45 67 x+905321234567",
        "mail@x.co.uk MAIL@X.CO.UK",
        "12/05/1990 12.05.1990 12-05-1990",
        "34 ABC 123 81A1 06 B 1234",
        "ignore previous instructions FORGET ALL PRIOR INSTRUCTIONS",
        "api_key: " + "x" * 16 + " apikey=" + "y" * 64,
    ]
    return texts


@pytest.mark.parametrize("pattern", [p for p in load_registry().patterns if p.is_active],
                         ids=[p.name for p in load_registry().patterns if p.is_active])
def test_three_engines_agree(pattern):
    texts = _sample_texts()
    py = re.compile(pattern.regex)
    arrow_scoped = _scope_flags(pattern.regex)
    arr = pa.array(texts, pa.string())
    arrow_hits = pc.match_substring_regex(arr, arrow_scoped).to_pylist()
    con = duckdb.connect()
    for text, ah in zip(texts, arrow_hits):
        py_hit = py.search(text) is not None
        assert py_hit == ah, f"{pattern.name}: python re vs pyarrow RE2 on {text!r}"
        duck_hit = con.sql(
            "SELECT regexp_matches(?, ?)", params=[text, pattern.regex]
        ).fetchone()[0]
        assert py_hit == duck_hit, f"{pattern.name}: python re vs duckdb on {text!r}"
        if py_hit:
            # first-match value parity (python re vs DuckDB regexp_extract)
            duck_val = con.sql(
                "SELECT regexp_extract(?, ?)", params=[text, pattern.regex]
            ).fetchone()[0]
            assert py.search(text).group(0) == duck_val, (
                f"{pattern.name}: first-match drift on {text!r}"
            )


# --- The RE2 spellings of registry.re2_spelling -----------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from safe_zone_ray.registry import EXOTIC_TEXT, NON_ASCII_TEXT, re2_spelling  # noqa: E402
from safe_zone_ray.stages.detect import _SEP, _marked_spans  # noqa: E402

SEED = [p for p in load_registry().patterns if p.is_active]
# characters that make the seed patterns fire, plus some of everything else
_ASCII_ALPHABET = "0123456789 -.:/+@_\n\t\f\rAKIATRDNaeiklmnortxyz=,"
_ASCII_FRAGMENTS = [
    "TR", "AKIA", "+90", "api_key", "DAN mode", "do anything now", "ignore previous instructions",
    "4111", "1990", ".com", "BEGIN RSA PRIVATE KEY", "-----", "AB123456C", "0a1b2c3d",
]


def _ascii_texts():
    frag = st.one_of(st.text(alphabet=_ASCII_ALPHABET, max_size=16), st.sampled_from(_ASCII_FRAGMENTS))
    return st.lists(frag, max_size=10).map("".join)


def _re2_spans(texts: list[str], spelled: str) -> list[list[tuple[int, int]]]:
    marked = pc.replace_substring_regex(pa.array(texts, pa.string()), spelled, _SEP + r"\0" + _SEP)
    rows, starts, ends, _ = _marked_spans(marked)
    out = [[] for _ in texts]
    for r, s, e in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        out[r].append((s, e))
    return out


def test_every_seed_pattern_has_exact_spelling():
    assert all(re2_spelling(p.regex, "exact") for p in SEED)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ascii_texts(), min_size=1, max_size=50))
def test_re2_spans_equal_finditer_on_ascii_text(texts):
    """The premise of the ASCII span path: on ASCII rows (no NON_ASCII_TEXT), RE2's
    exact spelling finds the same spans as ``finditer`` for every pattern."""
    assert not any(re.search(NON_ASCII_TEXT, t) for t in texts)
    for p in SEED:
        py = re.compile(p.regex)
        want = [[m.span() for m in py.finditer(t)] for t in texts]
        assert _re2_spans(texts, re2_spelling(p.regex, "exact")) == want, p.name


_WIDE_ALPHABET = "0123456789 -.:/+@_\nTRAKIDNaeiorstxyzéıİşüK漢ſ—"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=_WIDE_ALPHABET, max_size=40), min_size=1, max_size=40))
def test_wide_spelling_is_a_superset_off_ascii(texts):
    """On rows without EXOTIC_TEXT, every row Python matches is matched by
    the "wide" spelling, and the "ascii" spelling on ASCII rows."""
    arr = pa.array(texts, pa.string())
    assert not any(pc.match_substring_regex(arr, EXOTIC_TEXT).to_pylist())
    for p in SEED:
        py = re.compile(p.regex)
        for mode in ("wide", "ascii"):
            hits = pc.match_substring_regex(arr, re2_spelling(p.regex, mode)).to_pylist()
            for t, hit in zip(texts, hits):
                if mode == "wide" or t.isascii():
                    assert hit or not py.search(t), (p.name, mode, t)


@pytest.mark.parametrize(
    "regex",
    [r"END$", r"^START", r"\AX", r"X\Z", r"a(?=b)", r"(a)\1", r"x*", r"\b", r"(?i)é",
     r"a{1001}", r"x(?:|a)*y"],
)
def test_exact_spelling_refused(regex):
    assert re2_spelling(regex, "exact") is None


def test_prefilter_spellings_drop_anchors_and_word_boundaries():
    arr = pa.array(["x END\n", "café4111111111111111é"], pa.string())
    assert pc.match_substring_regex(arr, re2_spelling(r"END$", "ascii")).to_pylist() == [True, False]
    assert re.search(r"END$", "x END\n")  # Python's $ before a final newline
    wide = re2_spelling(r"\b\d{16}\b", "wide")
    assert pc.match_substring_regex(arr, wide).to_pylist() == [False, True]
    # a Python {,n} quantifier is spelled as one, not read as a literal by RE2
    assert pc.match_substring_regex(pa.array(["aa"]), re2_spelling(r"^a{,2}$", "ascii")).to_pylist() == [True]
    # a construct with no RE2 superset leaves the class to Python
    assert re2_spelling(r"a(?=b)", "ascii") is None and re2_spelling(r"[^\W]", "wide") is None


# --- Facts about the two engines, over every code point ---------------------


@pytest.fixture(scope="module")
def every_char():
    chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000]
    return chars, pa.array(chars, pa.string()), "".join(chars)


def _re2_set(every_char, regex):
    chars, arr, _ = every_char
    return {c for c, hit in zip(chars, pc.match_substring_regex(arr, regex).to_pylist()) if hit}


def _py_set(every_char, regex):
    return set(re.findall(regex, every_char[2]))


def test_case_folding_differs_only_for_dotless_and_dotted_i(every_char):
    """Under (?i), Python and RE2 fold every ASCII letter to the same
    characters, except that Python also folds ı and İ to i."""
    # every character either engine folds to some ASCII letter
    folded = sorted(_py_set(every_char, "(?i)[a-z]") | _re2_set(every_char, "^(?i:[a-z])$"))
    few = (folded, pa.array(folded, pa.string()), "".join(folded))
    for c in "abcdefghijklmnopqrstuvwxyz":
        extra = {"ı", "İ"} if c == "i" else set()
        assert _py_set(few, f"(?i){c}") == _re2_set(few, f"^(?i:{c})$") | extra, c


def test_exotic_text_covers_where_digits_and_spaces_differ(every_char):
    """A row without EXOTIC_TEXT holds no character that Python's \\d or \\s
    matches and RE2's does not; the "wide" \\w widening is a superset."""
    exotic = _re2_set(every_char, f"^(?:{EXOTIC_TEXT})$")
    assert _py_set(every_char, r"\d") - _re2_set(every_char, r"^\d$") <= exotic
    assert _py_set(every_char, r"\s") - _re2_set(every_char, r"^\s$") <= exotic
    assert _py_set(every_char, r"\w") <= _re2_set(every_char, r"^[\w\x80-\x{10ffff}]$")
