"""A tolerant HTML tokenizer.

Splits raw HTML into a flat stream of tokens: text runs, start tags (with
their attributes), end tags, comments, and doctype declarations.  The
tokenizer never raises on malformed markup — real 1998-era pages contain
unquoted attributes, missing quotes, bare ampersands and stray ``<`` — it
instead degrades gracefully by treating unparseable ``<`` as literal text,
the same recovery strategy browsers of the period used.

Two layers produce one token stream.  :func:`iter_tokens` finds text runs
with ``str.find`` and matches each well-formed construct — a start tag
whose attributes are whitespace-separated and bare, quoted or unquoted; a
terminated end tag, comment or doctype — with one compiled pattern.
Whatever a pattern declines (a value with no closing quote, ``"x"c="y"``,
``<a/ b>``, ``</>``, markup cut off by end of input) is handed, from the
same ``<``, to the character scanner below, which is the definition of
the stream: the patterns accept only input on which both agree
(``tests/property/test_html_index_model.py`` holds the scanner-only
tokenizer as the reference).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

# Tags that never have content or an end tag (HTML 4 "empty" elements).
VOID_ELEMENTS = frozenset({
    "area", "base", "basefont", "br", "col", "frame", "hr",
    "img", "input", "isindex", "link", "meta", "param",
})

# Elements whose raw content must not be tokenized as markup.
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

# The scanner's character classes.
_WS = r"[ \t\r\n\f]"
_NAME = r"[a-zA-Z0-9\-_:.]"
_UNQUOTED = r"[^ \t\r\n\f>]"
_SPACE_RE = re.compile(_WS + "+")
_NAME_RE = re.compile(_NAME + "+")
_UNQUOTED_VALUE_RE = re.compile(_UNQUOTED + "+")

# One pattern per well-formed construct.  An attribute needs whitespace
# before it (so a name has one reading and a failed match backtracks in
# linear time) and a value is quoted-and-closed or starts with neither
# quote; anything else fails the match and goes to the scanner.  The
# attribute grammar is compiled twice from one text: with its groups
# non-capturing inside the start tag, which takes the whole list as
# group 2, and with them capturing for ``findall`` over that list —
# (name, "=" or "", then the value in the group its quoting selects).
_ATTRIBUTE = (rf"{_WS}+(%s{_NAME}+)(?:{_WS}*(%s=){_WS}*"
              rf"""(?:"(%s[^"]*)"|'(%s[^']*)'|(%s(?!["']){_UNQUOTED}+)))?""")
_START_TAG_RE = re.compile(
    rf"<([a-zA-Z]{_NAME}*)((?:{_ATTRIBUTE % (('?:',) * 5)})*){_WS}*(/?)>")
_ATTRIBUTE_RE = re.compile(_ATTRIBUTE % (("",) * 5))
# A terminated end tag (group 1), comment (2) or doctype (3).
_CLOSED_MARKUP_RE = re.compile(
    rf"</({_NAME}+)[^>]*>|<!--(.*?)-->|<!(?!--)([^>]*)>", re.DOTALL)
_RAW_TEXT_END = {name: re.compile("</" + name, re.IGNORECASE | re.ASCII)
                 for name in RAW_TEXT_ELEMENTS}


@dataclass
class TextToken:
    """A run of character data between tags."""

    data: str


@dataclass
class StartTag:
    """``<name attr=value ...>``; attribute order is preserved.

    Attribute values are stored unescaped; names are lower-cased.  A value
    of ``None`` records a bare attribute (``<input checked>``).
    """

    name: str
    attrs: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    self_closing: bool = False

    def get_attr(self, name: str) -> Optional[str]:
        key = name.lower()
        for attr_name, attr_value in self.attrs:
            if attr_name == key:
                return attr_value
        return None

    def set_attr(self, name: str, value: Optional[str]) -> None:
        key = name.lower()
        for index, (attr_name, _) in enumerate(self.attrs):
            if attr_name == key:
                self.attrs[index] = (attr_name, value)
                return
        self.attrs.append((key, value))


@dataclass
class EndTag:
    """``</name>``."""

    name: str


@dataclass
class Comment:
    """``<!-- data -->``."""

    data: str


@dataclass
class Doctype:
    """``<!DOCTYPE ...>`` (content kept verbatim)."""

    data: str


Token = Union[TextToken, StartTag, EndTag, Comment, Doctype]


class _Scanner:
    """Character cursor over the source text."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def skip_space(self) -> None:
        match = _SPACE_RE.match(self.text, self.pos)
        if match is not None:
            self.pos = match.end()

    def take_until(self, needle: str) -> str:
        """Consume up to (not including) *needle*; to EOF if absent."""
        index = self.text.find(needle, self.pos)
        if index < 0:
            chunk = self.text[self.pos:]
            self.pos = self.length
            return chunk
        chunk = self.text[self.pos:index]
        self.pos = index
        return chunk


def tokenize_html(source: str) -> List[Token]:
    """Tokenize *source* into a list of tokens.

    >>> tokenize_html('<a href="x.html">go</a>')
    [StartTag(name='a', attrs=[('href', 'x.html')], self_closing=False), \
TextToken(data='go'), EndTag(name='a')]
    """
    return list(iter_tokens(source))


def iter_tokens(source: str) -> Iterator[Token]:
    """Yield tokens lazily; see :func:`tokenize_html`."""
    scanner = _Scanner(source)  # recovery cursor, parked until a pattern declines
    find = source.find
    pos, length = 0, len(source)
    while pos < length:
        start = find("<", pos)
        if start != pos:
            if start < 0:
                yield TextToken(source[pos:])
                return
            yield TextToken(source[pos:start])
        match = _START_TAG_RE.match(source, start)
        if match is not None:
            name, attributes, slash = match.groups()
            attrs: List[Tuple[str, Optional[str]]] = [
                (key.lower(), (double or single or bare) if equals else None)
                for key, equals, double, single, bare
                in _ATTRIBUTE_RE.findall(attributes)] if attributes else []
            if "&" in attributes:
                attrs = [(key, value and unescape_entities(value))
                         for key, value in attrs]
            token: Token = StartTag(name.lower(), attrs, slash == "/")
            pos = match.end()
        else:
            match = _CLOSED_MARKUP_RE.match(source, start)
            if match is None:
                scanner.pos = start
                token = _scan_markup(scanner)
                pos = scanner.pos
            else:
                end_tag, comment, doctype = match.groups()
                token = EndTag(end_tag.lower()) if end_tag is not None \
                    else Doctype(doctype) if comment is None \
                    else Comment(comment)
                pos = match.end()
        yield token
        if type(token) is StartTag and token.name in RAW_TEXT_ELEMENTS \
                and not token.self_closing:
            # Raw content runs to ``</name`` in any letter case; the
            # end tag itself is the next ordinary token.
            closer = _RAW_TEXT_END[token.name].search(source, pos)
            end = closer.start() if closer is not None else length
            if end > pos:
                yield TextToken(source[pos:end])
            pos = end


def _scan_markup(scanner: _Scanner) -> Token:
    start = scanner.pos
    scanner.advance()  # consume '<'
    ch = scanner.peek()
    if ch == "!":
        return _scan_declaration(scanner)
    if ch == "/":
        scanner.advance()
        return _scan_end_tag(scanner, start)
    if ch in _NAME_START:
        return _scan_start_tag(scanner, start)
    # Not a tag: emit the '<' as literal text (browser-style recovery).
    return TextToken("<")


def _scan_declaration(scanner: _Scanner) -> Token:
    scanner.advance()  # consume '!'
    if scanner.text.startswith("--", scanner.pos):
        scanner.pos += 2
        data = scanner.take_until("-->")
        if not scanner.eof():
            scanner.pos += 3
        return Comment(data)
    data = scanner.take_until(">")
    if not scanner.eof():
        scanner.advance()
    return Doctype(data)


def _scan_name(scanner: _Scanner) -> str:
    match = _NAME_RE.match(scanner.text, scanner.pos)
    if match is None:
        return ""
    scanner.pos = match.end()
    return match.group().lower()


def _scan_end_tag(scanner: _Scanner, start: int) -> Token:
    name = _scan_name(scanner)
    if not name:
        # "</>" or "</ garbage": recover as text.
        scanner.take_until(">")
        if not scanner.eof():
            scanner.advance()
        return TextToken(scanner.text[start:scanner.pos])
    scanner.take_until(">")
    if not scanner.eof():
        scanner.advance()
    return EndTag(name)


def _scan_start_tag(scanner: _Scanner, start: int) -> Token:
    name = _scan_name(scanner)
    tag = StartTag(name=name)
    while True:
        scanner.skip_space()
        if scanner.eof():
            return tag
        ch = scanner.peek()
        if ch == ">":
            scanner.advance()
            return tag
        if ch == "/":
            scanner.advance()
            scanner.skip_space()
            if scanner.peek() == ">":
                scanner.advance()
                tag.self_closing = True
                return tag
            continue  # stray '/': skip it
        attr = _scan_attribute(scanner)
        if attr is None:
            # Unparseable character inside the tag: skip it.
            scanner.advance()
            continue
        tag.attrs.append(attr)


def _scan_attribute(scanner: _Scanner) -> Optional[Tuple[str, Optional[str]]]:
    match = _NAME_RE.match(scanner.text, scanner.pos)
    if match is None:
        return None
    scanner.pos = match.end()
    name = match.group().lower()
    scanner.skip_space()
    if scanner.peek() != "=":
        return (name, None)
    scanner.advance()
    scanner.skip_space()
    quote = scanner.peek()
    if quote in ('"', "'"):
        scanner.advance()
        value = scanner.take_until(quote)
        if not scanner.eof():
            scanner.advance()
        return (name, unescape_entities(value))
    # Unquoted value: runs to whitespace or '>'.
    match = _UNQUOTED_VALUE_RE.match(scanner.text, scanner.pos)
    if match is None:
        return (name, unescape_entities(""))
    scanner.pos = match.end()
    return (name, unescape_entities(match.group()))


_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "nbsp": "\xa0",
}


def unescape_entities(text: str) -> str:
    """Resolve the small set of character entities that matter for URLs."""
    if "&" not in text:
        return text
    out: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch != "&":
            out.append(ch)
            index += 1
            continue
        semi = text.find(";", index + 1, index + 10)
        if semi < 0:
            out.append(ch)
            index += 1
            continue
        entity = text[index + 1:semi]
        if entity.startswith("#"):
            try:
                code = int(entity[2:], 16) if entity[1:2] in ("x", "X") \
                    else int(entity[1:])
                out.append(chr(code))
                index = semi + 1
                continue
            except ValueError:
                pass
        elif entity in _ENTITIES:
            out.append(_ENTITIES[entity])
            index = semi + 1
            continue
        out.append(ch)
        index += 1
    return "".join(out)


def escape_attribute(value: str) -> str:
    """Escape a value for inclusion in a double-quoted attribute."""
    return value.replace("&", "&amp;").replace('"', "&quot;")


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
