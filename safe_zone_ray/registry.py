"""Rule registry: patterns, validators, allow/blocklist, thresholds.

The Ray analogue of the reference's Postgres-rows-cached-in-Redis registry
(/root/reference/internal/repository/repository.go:11-52,
/root/reference/internal/cache/redis.go:40-105): an immutable, versioned JSON
rule pack shipped with the job, compiled ONCE per worker process (module-level
cache) or per actor (``__init__``). "Hot reload" (the reference's
POST /admin/reload) becomes "run a new job with a new registry version".

Go ``regexp`` (RE2) → Python ``re`` dialect notes (SURVEY.md section 7.4):
the 20 seed patterns use only portable constructs. A leading ``(?i)`` global
flag is legal in Python when first; for the fused any-hit prefilter each
branch is wrapped so flags stay scoped. REGEX *validators* are compiled with
a trailing ``$`` translated to ``\\Z`` because Go's ``$`` (no multiline)
anchors at end-of-text while Python's also matches before a final newline.
The batch detect kernel runs patterns in pyarrow's RE2, spelled from
Python's parse tree by ``re2_spelling``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

try:  # the parser re compiles with: re._parser from Python 3.11
    from re import _constants as _sre
    from re import _parser as _sre_parse
except ImportError:
    import sre_constants as _sre
    import sre_parse as _sre_parse

from safe_zone_ray.core.aho import AhoCorasick

DEFAULT_REGISTRY_PATH = os.path.join(os.path.dirname(__file__), "rules", "registry.json")


@dataclass(frozen=True)
class Pattern:
    name: str
    regex: str
    category: str = "PII"  # PII | SECRET | INJECTION | TOPIC
    is_active: bool = True
    description: str = ""
    block_threshold: float | None = None
    allow_threshold: float | None = None


@dataclass(frozen=True)
class Validator:
    name: str
    type: str  # BUILTIN | REGEX | SCHEMA | CHECKSUM | KEYWORDS
    rule: str = ""
    expected_response: str = "YES"
    pass_when: str = "match"  # for REGEX: "match" (format check) | "no_match" (deny check)
    description: str = ""


@dataclass(frozen=True)
class Registry:
    version: str
    patterns: tuple[Pattern, ...]
    validators: tuple[Validator, ...]
    allowlist: frozenset[str]
    blocklist: tuple[str, ...]
    toxicity_keywords: tuple[str, ...]
    allow_threshold: float = 0.30
    block_threshold: float = 0.85

    def validator_by_name(self) -> dict[str, Validator]:
        return {v.name: v for v in self.validators}

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "patterns": [vars(p) for p in self.patterns],
                "validators": [vars(v) for v in self.validators],
                "allowlist": sorted(self.allowlist),
                "blocklist": list(self.blocklist),
                "toxicity_keywords": list(self.toxicity_keywords),
                "thresholds": {"allow": self.allow_threshold, "block": self.block_threshold},
            },
            sort_keys=True,
        )


def registry_from_dict(d: dict) -> Registry:
    patterns = tuple(
        Pattern(
            name=p["name"],
            regex=p["regex"],
            category=p.get("category", "PII"),
            is_active=p.get("is_active", True),
            description=p.get("description", ""),
            block_threshold=p.get("block_threshold"),
            allow_threshold=p.get("allow_threshold"),
        )
        for p in d.get("patterns", [])
    )
    validators = tuple(
        Validator(
            name=v["name"],
            type=v["type"],
            rule=v.get("rule", ""),
            expected_response=v.get("expected_response", "YES"),
            pass_when=v.get("pass_when", "match"),
            description=v.get("description", ""),
        )
        for v in d.get("validators", [])
    )
    th = d.get("thresholds", {})
    return Registry(
        version=d.get("version", "0"),
        patterns=patterns,
        validators=validators,
        allowlist=frozenset(d.get("allowlist", [])),
        blocklist=tuple(d.get("blocklist", [])),
        toxicity_keywords=tuple(d.get("toxicity_keywords", [])),
        allow_threshold=float(th.get("allow", 0.30)),
        block_threshold=float(th.get("block", 0.85)),
    )


def load_registry(path: str | None = None) -> Registry:
    with open(path or DEFAULT_REGISTRY_PATH, encoding="utf-8") as f:
        return registry_from_dict(json.load(f))


def merge_rule_pack(base: Registry, pack: dict) -> Registry:
    """Upsert a user rule pack into a base registry — the analogue of the
    reference's template import (/root/reference/internal/handlers/templates.go:17-73):
    patterns/validators upsert by name; allow/blocklist values union."""
    pat = {p.name: p for p in base.patterns}
    for p in registry_from_dict({"patterns": pack.get("patterns", [])}).patterns:
        pat[p.name] = p
    val = {v.name: v for v in base.validators}
    for v in registry_from_dict({"validators": pack.get("validators", [])}).validators:
        val[v.name] = v
    th = pack.get("thresholds", {})
    return Registry(
        version=pack.get("version", base.version + "+pack"),
        patterns=tuple(pat.values()),
        validators=tuple(val.values()),
        allowlist=base.allowlist | frozenset(pack.get("allowlist", [])),
        blocklist=base.blocklist
        + tuple(w for w in pack.get("blocklist", []) if w not in base.blocklist),
        toxicity_keywords=base.toxicity_keywords
        + tuple(w for w in pack.get("toxicity_keywords", []) if w not in base.toxicity_keywords),
        allow_threshold=float(th.get("allow", base.allow_threshold)),
        block_threshold=float(th.get("block", base.block_threshold)),
    )


_FLAG_PREFIX_RE = re.compile(r"^\(\?([aiLmsux]+)\)")


def _scope_flags(pattern: str) -> str:
    """Rewrite a leading global ``(?i)`` into a scoped ``(?i:...)`` group so the
    pattern can be embedded as one branch of a fused alternation."""
    m = _FLAG_PREFIX_RE.match(pattern)
    if m:
        return f"(?{m.group(1)}:{pattern[m.end():]})"
    return f"(?:{pattern})"


def _go_anchor_fix(rule: str) -> str:
    """Go's ``$`` anchors at end-of-text; Python's also before a final newline."""
    if rule.endswith("$") and not rule.endswith("\\$"):
        return rule[:-1] + r"\Z"
    return rule


# ---------------------------------------------------------------------------
# Python ``re`` → RE2, spelled from Python's own parse tree, so the RE2 text
# never depends on how the two parsers read the source (``{,n}``, ``[[:x:]]``,
# flag groups). The batch kernel sorts rows into three classes, and each
# class gets a spelling that is exact or a superset of Python on it:
#
# - ASCII rows, with every character in [\t\n\f\r\x20-\x7e] (no
#   NON_ASCII_TEXT). There RE2 and Python agree on \b \d \s \w and (?i).
#   Mode "exact" gives the same spans as ``finditer``. It refuses anchors
#   (Python's $ also matches before a final newline), lookarounds,
#   backreferences, non-ASCII letters under (?i), and patterns or repeated
#   groups that can match the empty string (the engines step past empty
#   matches and end loops on empty iterations differently). Mode "ascii" is
#   the prefilter: "exact" with anchors dropped and empty matches allowed.
# - Other rows without EXOTIC_TEXT. There Python's \d and \s are RE2's. Mode
#   "wide" drops \b and \B, lets \w also take any non-ASCII character, and
#   lets an (?i) i or I also take ı and İ, which Python folds to i and RE2
#   does not. A negated class keeps RE2's ASCII \w: its complement is
#   already wider than Python's.
# - EXOTIC_TEXT rows: a non-ASCII decimal digit, or whitespace that Python's
#   \s has and RE2's lacks. Rare; they take the per-row ``re`` any-hit test.
#
# tests/test_regex_dialects.py pins each fact about the two engines over
# every code point.
NON_ASCII_TEXT = r"[^\t\n\f\r\x20-\x7e]"
EXOTIC_TEXT = (
    r"[\v\x1c-\x1f\x85\xa0\x{1680}\x{2000}-\x{200a}\x{2028}\x{2029}\x{202f}"
    r"\x{205f}\x{3000}]|[^\P{Nd}0-9]"
)
_RE2_MAX_REPEAT = 1000


class _NoRE2(Exception):
    """The construct has no RE2 spelling in the requested mode."""


def _re2_char(c: int) -> str:
    ch = chr(c)
    return ch if ch.isascii() and ch.isalnum() else f"\\x{{{c:x}}}"


_RE2_CATEGORY = {
    _sre.CATEGORY_DIGIT: r"\d",
    _sre.CATEGORY_NOT_DIGIT: r"\D",
    _sre.CATEGORY_SPACE: r"\s",
    _sre.CATEGORY_NOT_SPACE: r"\S",
    _sre.CATEGORY_WORD: r"\w",
    _sre.CATEGORY_NOT_WORD: r"\W",
}


def _re2_class(items, ignorecase: bool, mode: str) -> str:
    negated = items[0][0] is _sre.NEGATE
    wide = mode == "wide"
    body, has_i = [], False
    for op, av in items[negated:]:
        if op is _sre.LITERAL:
            lo = hi = av
        elif op is _sre.RANGE:
            lo, hi = av
        elif op is _sre.CATEGORY and av is _sre.CATEGORY_WORD and wide and not negated:
            body.append(r"\w\x80-\x{10ffff}")
            continue
        elif op is _sre.CATEGORY and av in _RE2_CATEGORY and not (
            av is _sre.CATEGORY_NOT_WORD and wide and negated
        ):
            body.append(_RE2_CATEGORY[av])
            continue
        else:
            raise _NoRE2(op)
        if ignorecase and hi > 0x7F:
            raise _NoRE2("non-ASCII letter under (?i)")
        body.append(_re2_char(lo) if lo == hi else f"{_re2_char(lo)}-{_re2_char(hi)}")
        has_i = has_i or lo <= 0x49 <= hi or lo <= 0x69 <= hi
    if wide and ignorecase and has_i and not negated:
        body.append(r"\x{130}\x{131}")
    out = f"[{'^' if negated else ''}{''.join(body)}]"
    return f"(?i:{out})" if ignorecase else out


def _re2_repeat(lo: int, hi, lazy: bool) -> str:
    if lo > _RE2_MAX_REPEAT or (hi is not _sre.MAXREPEAT and hi > _RE2_MAX_REPEAT):
        raise _NoRE2("repeat count above RE2's limit")
    if hi is _sre.MAXREPEAT:
        q = {0: "*", 1: "+"}.get(lo, f"{{{lo},}}")
    else:
        q = "?" if (lo, hi) == (0, 1) else f"{{{lo}}}" if lo == hi else f"{{{lo},{hi}}}"
    return q + ("?" if lazy else "")


def _re2_emit(items, flags: int, mode: str) -> str:
    ignorecase = bool(flags & _sre.SRE_FLAG_IGNORECASE)
    out = []
    for op, av in items:
        if op is _sre.LITERAL or op is _sre.NOT_LITERAL:
            if ignorecase and av > 0x7F:
                raise _NoRE2("non-ASCII character under (?i)")
            atom = _re2_char(av) if op is _sre.LITERAL else f"[^{_re2_char(av)}]"
            if ignorecase and chr(av).isalpha():
                wide_i = op is _sre.LITERAL and mode == "wide" and av in (0x49, 0x69)
                atom = r"[Ii\x{130}\x{131}]" if wide_i else f"(?i:{atom})"
            out.append(atom)
        elif op is _sre.IN:
            out.append(_re2_class(av, ignorecase, mode))
        elif op is _sre.ANY:
            out.append("(?s:.)" if flags & _sre.SRE_FLAG_DOTALL else ".")
        elif op is _sre.BRANCH:
            out.append("(?:" + "|".join(_re2_emit(alt, flags, mode) for alt in av[1]) + ")")
        elif op is _sre.SUBPATTERN:
            _group, add, drop, sub = av
            out.append(f"(?:{_re2_emit(sub, (flags | add) & ~drop, mode)})")
        elif op is _sre.MAX_REPEAT or op is _sre.MIN_REPEAT:
            lo, hi, sub = av
            if mode == "exact" and hi != 1 and sub.getwidth()[0] == 0:
                # the engines end a loop on an empty iteration differently
                raise _NoRE2("repeated group that can match the empty string")
            rep = _re2_repeat(lo, hi, op is _sre.MIN_REPEAT)
            out.append(f"(?:{_re2_emit(sub, flags, mode)}){rep}")
        elif op is _sre.AT and av in (_sre.AT_BOUNDARY, _sre.AT_NON_BOUNDARY):
            if mode != "wide":
                out.append(r"\b" if av is _sre.AT_BOUNDARY else r"\B")
        elif op is _sre.AT and mode != "exact":
            continue  # dropping an anchor only widens the match set
        else:
            raise _NoRE2(op)
    return "".join(out)


def re2_spelling(regex: str, mode: str) -> str | None:
    """RE2 spelling of Python pattern ``regex`` in ``mode`` ("exact",
    "ascii" or "wide", see above), or None when it has none or RE2 rejects
    it."""
    import pyarrow as pa
    import pyarrow.compute as pc

    try:
        tree = _sre_parse.parse(regex)
        if mode == "exact" and tree.getwidth()[0] == 0:
            return None
        spelled = _re2_emit(tree, tree.state.flags, mode)
        pc.match_substring_regex(pa.array([""], pa.string()), spelled)
    except (re.error, _NoRE2, pa.ArrowInvalid):
        return None
    return spelled


@dataclass(frozen=True)
class Prefilter:
    """RE2 superset prefilter for one row class: the fused any-hit regex
    (patterns and blocklist words) and one regex per active pattern."""

    any_hit: str
    scoped: tuple[tuple[str, str], ...]


def _prefilter(patterns: list[Pattern], words: list[str], mode: str) -> Prefilter | None:
    scoped = tuple((p.name, re2_spelling(p.regex, mode)) for p in patterns)
    branches = [s for _, s in scoped] + [re2_spelling(re.escape(w), mode) for w in words]
    if not branches or None in branches:
        return None
    return Prefilter("|".join(branches), scoped)


class CompiledRegistry:
    """Registry with all expensive artifacts prebuilt: per-pattern compiled
    regexes (registry order preserved — candidate insertion order is a sort
    tie-break, SURVEY.md section 7.4), a fused any-hit prefilter, validator
    regexes/schemas, and the toxicity Aho-Corasick automaton.

    Build once per worker (module cache via ``get_compiled_registry``) or in an
    actor ``__init__`` — the analogue of the reference's ``sync.Map`` regex
    cache (guardrails.go:19-32).
    """

    def __init__(self, registry: Registry):
        self.registry = registry
        self.active_patterns: list[tuple[Pattern, re.Pattern]] = []
        for p in registry.patterns:
            if not p.is_active:
                continue
            try:
                self.active_patterns.append((p, re.compile(p.regex)))
            except re.error:
                # reference skips invalid patterns (guardrails.go:172-176)
                continue

        # Fused prefilter: one linear scan decides whether the full
        # per-pattern pass is needed at all (most corpus rows are clean).
        branches = [_scope_flags(p.regex) for p, _ in self.active_patterns]
        branches += [re.escape(w) for w in registry.blocklist if w]
        self.any_hit = re.compile("|".join(branches)) if branches else None

        self.validator_map = registry.validator_by_name()
        self.validator_regex: dict[str, re.Pattern] = {}
        for v in registry.validators:
            if v.type == "REGEX":
                try:
                    self.validator_regex[v.name] = re.compile(_go_anchor_fix(v.rule))
                except re.error:
                    pass

        self.toxicity = AhoCorasick(w.lower() for w in registry.toxicity_keywords)
        self.allowlist = registry.allowlist
        self.blocklist = registry.blocklist


    # RE2 forms for the batch kernel (stages/detect.py), built on first use
    # so the per-request server never pays for them: a superset prefilter per
    # row class (None: that class takes the per-row ``re`` any-hit test), and
    # per active pattern its exact spans on ASCII rows (None: its rows run
    # ``detect_one``).
    @cached_property
    def ascii_prefilter(self) -> Prefilter | None:
        return _prefilter(self._active, self._words, "ascii")

    @cached_property
    def wide_prefilter(self) -> Prefilter | None:
        return _prefilter(self._active, self._words, "wide")

    @cached_property
    def exact_spans(self) -> list[str | None]:
        return [re2_spelling(p.regex, "exact") for p in self._active]

    @cached_property
    def words_re2(self) -> str:
        """Any blocklist word, as one RE2 regex (one that never matches when
        there is no word). Used only when ``ascii_prefilter``, which spells
        the same words, exists."""
        spelled = [re2_spelling(re.escape(w), "ascii") for w in self._words]
        return "|".join(spelled) or r"[^\x00-\x{10ffff}]"

    @property
    def _active(self) -> list[Pattern]:
        return [p for p, _ in self.active_patterns]

    @property
    def _words(self) -> list[str]:
        return [w for w in self.blocklist if w]


@lru_cache(maxsize=8)
def _compiled_from_path(path: str) -> CompiledRegistry:
    return CompiledRegistry(load_registry(path))


def get_compiled_registry(path: str | None = None) -> CompiledRegistry:
    """Module-level cached compile, keyed by registry file path."""
    return _compiled_from_path(path or DEFAULT_REGISTRY_PATH)
