"""Pluggable part-of-speech tagging for the verb-noun filter.

The default tagger is deliberately self-contained: a small lexicon of
high-frequency English function words plus suffix heuristics, with unknown
words defaulting to noun. Any object with a ``tag(tokens) -> list[str]``
method can be swapped in for a stronger model.
"""

from __future__ import annotations

from typing import Protocol, Sequence

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
ADV = "ADV"
DET = "DET"
PRON = "PRON"
PREP = "PREP"
CONJ = "CONJ"
NUM = "NUM"
AUX = "AUX"
PART = "PART"

# Tags the verb-noun filter keeps.
CONTENT_TAGS = frozenset({NOUN, VERB})


class PosTagger(Protocol):
    """Assigns exactly one coarse tag per token."""

    def tag(self, tokens: Sequence[str]) -> list[str]: ...


_LEXICON: dict[str, str] = {}


def _extend(tag: str, words: str) -> None:
    for word in words.split():
        _LEXICON[word] = tag


_extend(DET, "the a an this that these those each every some any no all both either neither another such")
_extend(PRON, "i you he she it we they me him her us them my your his its our their mine yours hers ours theirs myself yourself himself herself itself ourselves themselves who whom whose which what something anything nothing everything someone anyone everyone nobody somebody everybody one")
_extend(PREP, "in on at by for with from to of about into onto over under between through during before after above below off out up down near within without against among across along around behind beside beyond inside outside past per toward towards upon via amid despite except like unlike until till since")
_extend(CONJ, "and or but nor so yet because although though while whereas unless than whether if once")
_extend(AUX, "be am is are was were been being have has had having do does did doing will would shall should can could may might must won't wouldn't shouldn't couldn't can't cannot don't doesn't didn't isn't aren't wasn't weren't hasn't haven't hadn't")
_extend(ADV, "not very too also just only quite rather almost always never often sometimes usually again still already soon now then there here when where why how however therefore thus maybe perhaps instead otherwise moreover furthermore meanwhile currently previously really please etc")
_extend(ADJ, "good bad new old big small high low same different able unable possible impossible available unavailable many few several much more most less least first second third last next previous current correct incorrect wrong right true false empty full own other certain sure ready easy hard simple complex major minor")
_extend(NOUN, "server error issue bug user file data code test page login problem feature request time way thing case part number name value type field list item set result state status version method class function table form view report message text line word button link screen image email password account project task story point sprint release build branch commit change update fix support system service api app application database client browser window tab menu option setting config log event action process job queue thread memory disk network host port url path folder directory document section title description detail example note comment question answer")
_extend(VERB, "add remove delete create make get set put take give find show hide open close click select enter submit save load send receive run start stop fail pass work break fix build test check verify update upgrade install uninstall configure enable disable allow deny display render parse validate convert import export copy move rename edit modify change use need want try see look happen occur appear return throw raise catch handle call invoke execute implement refactor improve investigate reproduce crash hang freeze")


# Suffix heuristics, checked in order after the lexicon.
_VERB_SUFFIXES = ("ing", "ed", "ize", "ise", "ify", "ate")
_NOUN_SUFFIXES = ("tion", "sion", "ness", "ment", "ance", "ence", "ity", "ship", "ism", "ology", "er", "or", "ist")
_ADJ_SUFFIXES = ("ous", "ful", "ive", "ical", "able", "ible", "ish", "less", "ary", "al", "ic")
_ADV_SUFFIXES = ("ly",)


def _looks_numeric(token: str) -> bool:
    return any(ch.isdigit() for ch in token) and not any(ch.isalpha() for ch in token)


class LexiconTagger:
    """Lexicon most-frequent-tag tagger with suffix fallbacks.

    Unknown words default to noun, so identifiers and rare vocabulary
    survive the verb-noun filter. Each tagger tags a distinct word once and
    keeps its tag.
    """

    def __init__(self) -> None:
        self._tags: dict[str, str] = {}

    def tag_word(self, token: str) -> str:
        tag = _LEXICON.get(token)
        if tag is not None:
            return tag
        if _looks_numeric(token):
            return NUM
        if token.endswith(_ADV_SUFFIXES) and len(token) > 4:
            return ADV
        if token.endswith(_VERB_SUFFIXES) and len(token) > 4:
            return VERB
        if token.endswith(_NOUN_SUFFIXES) and len(token) > 4:
            return NOUN
        if token.endswith(_ADJ_SUFFIXES) and len(token) > 5:
            return ADJ
        return NOUN

    def tag(self, tokens: Sequence[str]) -> list[str]:
        tags = self._tags
        for token in set(tokens).difference(tags):
            tags[token] = self.tag_word(token)
        return [tags[tok] for tok in tokens]
