"""Model-based property: indexing a page gives what it gave before.

The reference below is the implementation ``repro.html`` had at commit
f3279a0, kept verbatim: the character scanner as the whole tokenizer (it
survives in ``repro.html.tokenizer`` only as the recovery branch), the
tree builder, the serializer with its capture hook, and
``build_link_template`` / ``extract_links`` as two walks.  Token lists,
``LinkTemplate.source``, spans and link lists must be identical on every
HTML page the four dataset builders produce, on generated tag soup, on
every prefix of a sample page, and on the generators of
``test_html_roundtrip.py``.  ``tests/test_server_engine_index.py`` patches
the same reference into one of two twin engines.
"""

import re
import time
from typing import Callable, Iterator, List, Optional, Set, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasets import DATASET_BUILDERS
from repro.errors import HTMLParseError
from repro.html.links import (EMBEDDED_TAGS, HREF_ATTRIBUTES, LinkRef,
                              extract_links, is_followable)
from repro.html.parser import (CommentNode, Document, DoctypeNode, Element,
                               Node, Text, parse_html)
from repro.html.serializer import serialize_html
from repro.html.template import (LinkSpan, LinkTemplate, build_link_template,
                                 index_document)
from repro.html.tokenizer import (RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Comment,
                                  Doctype, EndTag, StartTag, TextToken, Token,
                                  escape_attribute, tokenize_html,
                                  unescape_entities)
from tests.property.test_html_roundtrip import html_documents as roundtrip_documents
from tests.property.test_template_splice import html_documents as splice_documents

# ----------------------------------------------------------------------
# The reference: repro.html as of commit f3279a0
# ----------------------------------------------------------------------

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_SPACE_RE = re.compile(r"[ \t\r\n\f]+")
_NAME_RE = re.compile(r"[a-zA-Z0-9\-_:.]+")
_UNQUOTED_VALUE_RE = re.compile(r"[^ \t\r\n\f>]+")
_SELF_NESTING_CLOSERS = frozenset({"li", "p", "tr", "td", "th", "option", "dt", "dd"})
CaptureFn = Callable[[Element, int, str, str, int, int], None]


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

def reference_iter_tokens(source: str) -> Iterator[Token]:
    """Yield tokens lazily; the scanner alone."""
    scanner = _Scanner(source)
    raw_until: Optional[str] = None  # inside <script>/<style>: name to close on
    while not scanner.eof():
        if raw_until is not None:
            token = _scan_raw_text(scanner, raw_until)
            raw_until = None
            if token is not None:
                yield token
            continue
        if scanner.peek() != "<":
            text = scanner.take_until("<")
            if text:
                yield TextToken(text)
            continue
        token = _scan_markup(scanner)
        if token is None:
            continue
        yield token
        if isinstance(token, StartTag) and token.name in RAW_TEXT_ELEMENTS \
                and not token.self_closing:
            raw_until = token.name


def _scan_raw_text(scanner: _Scanner, name: str) -> Optional[Token]:
    """Consume raw content up to ``</name``; yields the text then lets the
    normal path consume the end tag."""
    closer = f"</{name}"
    lower = scanner.text.lower()
    index = lower.find(closer, scanner.pos)
    if index < 0:
        data = scanner.text[scanner.pos:]
        scanner.pos = scanner.length
    else:
        data = scanner.text[scanner.pos:index]
        scanner.pos = index
    return TextToken(data) if data else None


def _scan_markup(scanner: _Scanner) -> Optional[Token]:
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


def _scan_declaration(scanner: _Scanner) -> Optional[Token]:
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

def reference_parse_html(source: str) -> Document:
    """Parse *source* into a :class:`Document`.

    Recovery rules (matching period browsers closely enough for link
    extraction to be exact):

    - void elements (``img``, ``br``, ...) never take children;
    - an end tag with no matching open element is dropped;
    - an end tag closing an outer element implicitly closes everything
      inside it;
    - a repeated ``li``/``p``/``tr``/... start tag closes its predecessor.
    """
    document = Document()
    # Stack of open elements; index 0 is a virtual root.
    stack: List[List[Node]] = [document.children]
    open_names: List[str] = []

    def append(node: Node) -> None:
        stack[-1].append(node)

    for token in reference_iter_tokens(source):
        if isinstance(token, TextToken):
            append(Text(token.data))
        elif isinstance(token, Comment):
            append(CommentNode(token.data))
        elif isinstance(token, Doctype):
            append(DoctypeNode(token.data))
        elif isinstance(token, StartTag):
            if token.name in _SELF_NESTING_CLOSERS and open_names \
                    and open_names[-1] == token.name:
                stack.pop()
                open_names.pop()
            element = Element(tag=token)
            append(element)
            if token.name not in VOID_ELEMENTS and not token.self_closing:
                stack.append(element.children)
                open_names.append(token.name)
            else:
                element.explicit_end = False
        elif isinstance(token, EndTag):
            if token.name not in open_names:
                continue  # stray end tag: drop
            while open_names and open_names[-1] != token.name:
                stack.pop()
                open_names.pop()
            stack.pop()
            open_names.pop()
    return document

class _Out:
    """Output accumulator that tracks the running character offset."""

    __slots__ = ("parts", "length", "capture")

    def __init__(self, capture: Optional[CaptureFn]) -> None:
        self.parts: List[str] = []
        self.length = 0
        self.capture = capture

    def append(self, text: str) -> None:
        self.parts.append(text)
        self.length += len(text)


def reference_serialize_html(document: Document, *,
                   capture: Optional[CaptureFn] = None) -> str:
    """Render *document* as an HTML string."""
    out = _Out(capture)
    for node in document.children:
        _serialize_node(node, out)
    return "".join(out.parts)


def _serialize_node(node: Node, out: _Out) -> None:
    if isinstance(node, Text):
        out.append(node.data)
    elif isinstance(node, CommentNode):
        out.append(f"<!--{node.data}-->")
    elif isinstance(node, DoctypeNode):
        out.append(f"<!{node.data}>")
    elif isinstance(node, Element):
        _serialize_element(node, out)
    else:
        raise HTMLParseError(f"foreign node in parse tree: {node!r}")


def _serialize_element(element: Element, out: _Out) -> None:
    out.append(f"<{element.name}")
    for index, (name, value) in enumerate(element.tag.attrs):
        if value is None:
            out.append(f" {name}")
        else:
            out.append(f' {name}="')
            start = out.length
            out.append(escape_attribute(value))
            if out.capture is not None:
                out.capture(element, index, name, value, start, out.length)
            out.append('"')
    out.append(">")
    if element.name in VOID_ELEMENTS:
        return
    for child in element.children:
        _serialize_node(child, out)
    out.append(f"</{element.name}>")

def reference_build_link_template(document: Document) -> LinkTemplate:
    """Serialize *document* and capture the spans of its followable links.

    Only the attribute occurrence that ``Element.get_attr`` would return —
    the first with the matching name — becomes a span, so splicing touches
    exactly the values ``rewrite_links`` would touch.
    """
    spans: List[LinkSpan] = []
    seen: Set[Tuple[int, str]] = set()

    def capture(element: Element, index: int, name: str, value: str,
                start: int, end: int) -> None:
        if HREF_ATTRIBUTES.get(element.name) != name:
            return
        key = (id(element), name)
        if key in seen:
            return
        seen.add(key)
        if not is_followable(value):
            return
        spans.append(LinkSpan(start, end, value, element.name, name))

    source = reference_serialize_html(document, capture=capture)
    return LinkTemplate(source, spans)

def reference_extract_links(document: Document) -> List[LinkRef]:
    """Every followable outgoing reference of *document*, document order.

    """
    links: List[LinkRef] = []
    for element in document.iter_elements():
        attribute = HREF_ATTRIBUTES.get(element.name)
        if attribute is None:
            continue
        value = element.get_attr(attribute)
        if value is None or not is_followable(value):
            continue
        links.append(LinkRef(tag=element.name, attribute=attribute,
                             value=value.strip(),
                             embedded=element.name in EMBEDDED_TAGS))
    return links


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------

def assert_same_index(source: str) -> None:
    """Every product of indexing *source*, new against reference."""
    assert tokenize_html(source) == list(reference_iter_tokens(source))
    document, reference = parse_html(source), reference_parse_html(source)
    assert document == reference
    expected = reference_build_link_template(reference)
    template, links = index_document(document)
    assert template.source == expected.source
    assert template.spans == expected.spans
    assert serialize_html(document) == reference_serialize_html(reference) \
        == expected.source
    built = build_link_template(document)
    assert (built.source, built.spans) == (expected.source, expected.spans)
    expected_links = reference_extract_links(reference)
    assert extract_links(document) == expected_links
    assert links == [link.value for link in expected_links]


@pytest.mark.parametrize("dataset", sorted(DATASET_BUILDERS))
def test_every_dataset_page_indexes_identically(dataset):
    site = DATASET_BUILDERS[dataset]()
    pages = [name for name in sorted(site.documents)
             if name.endswith((".html", ".htm"))]
    assert pages
    for name in pages:
        assert_same_index(site.documents[name].decode("latin-1"))


# Markup the patterns must decline, markup they must accept, and the
# boundary between the two.  Sources are latin-1 text, as the engine
# decodes them.
FRAGMENTS = [
    '<a href="/a.html">a</a>', "<a href='/b.html'>b</a>", "<a href=/c.html>c</a>",
    '<IMG SRC="/i.gif" ALT="">', "<img src=/i.gif alt=>", "<br/>", "<br />",
    "<br / >", "<hr/ >", "<a/ b>", "<a / href='/x'>", '<a b="x"c="y">',
    "<a b='x'c=y>", '<a href="/x.html"title=t>', "<a href=\"/open", "<a href='/open",
    "<a href=", "<a href", "<a ", "<a", "<", "< ", "<>", "< a>", "<1>", "</>",
    "</ x>", "</a", "</a junk>", "</A\n>", "</1>", "<!-->", "<!--->", "<!---->",
    "<!-- c -->", "<!-- never closed", "<!->", "<!>", "<!", "<!DOCTYPE html>",
    "<!doctype", "<input checked>", "<input checked disabled src=/s.gif>",
    "<a href href=\"/x.html\">", '<a href="/one.html" href="/two.html">',
    "<a HREF=/u.html href=/l.html>", '<a href="/q.html?a=1&amp;b=2">',
    "<a href=/q.html?a=1&amp;b=2>", '<a title="&lt;&#65;&#x41;&bogus;&">',
    '<a title="a>b" href="/gt.html">', "<a title='\"' href='/dq.html'>",
    "<a href = \"/sp.html\"  class= y >", "<a\thref\n=\r\"/ws.html\"\f>",
    "<a href=\"#top\">", '<a href="mailto:x@y">', '<a href="  /pad.html  ">',
    '<a href="">', "<a href=''>", "<a =x>", "<a ==>", "<a x=\">\">", "<a \"x\">",
    "<a x=y/>", "<a x=/>", "<a x=y/ z>", "<a.b:c-d_e f.g:h-i_j=k>",
    "<script>if (a<b) x('</a>');</script>", "<SCRIPT src=/s.js>var a;</ScRiPt>",
    "<Style>a > b {}</STYLE >", "<script>never closed <a href=/no.html>",
    "<script/>", "<script />after", "<style></style>", "</script>",
    "<body background=/bg.gif>", "<frame src=/f.html>", "<area href=/ar.html>",
    "<li>one<li>two", "<p>x<p>y</p>", "<td><tr><td>", "</p></li>", "<b><i></b></i>",
    "text", " ", "\n", "a < b", "fish & chips", "&amp;", ">", "\"", "'",
]
_soup = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS),
              st.text(alphabet="<>/!-=\"' \n\tabAhrefsSCcRrIiPpTt&;#x0.", max_size=10)),
    max_size=10).map("".join)


@given(_soup)
@settings(max_examples=600, deadline=None)
@example("<a b=\"x\"c=\"y\">")
@example("<script>a</SCRIPT><STYLE>b</style>")
def test_tag_soup_indexes_identically(source):
    assert_same_index(source)


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_every_fragment_alone_and_doubled(fragment):
    assert_same_index(fragment)
    assert_same_index(fragment + fragment)
    assert_same_index("x" + fragment + ">\"'" + fragment)


SAMPLE_PAGE = (
    "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 3.2//EN\">\n<html><head>"
    "<title>Sample &amp; page</title><!-- head -->\n<SCRIPT language=JavaScript "
    "src='/s.js'>if (a<b && c>d) document.write('<a href=\"/no.html\">');"
    "</Script><style>p > a {}</style></head>\n<body background=/bg.gif "
    "bgcolor=\"#ffffff\">\n<h1>Sample</h1>\n<p>fish & chips, a < b"
    "<ul>\n<li><a href=\"/one.html\">one</a>\n<li><A HREF='/two.html' "
    "target=_top>two</A>\n<li><a href=/three.html>three</a><li><a href "
    "href=\"/four.html\">four</a></ul>\n<img src=\"/i.gif\" alt=\"\" ismap>"
    "<img src=/j.gif width=10 height=\"20\"/>\n<a href=\"/q.html?a=1&amp;b=2#frag\">"
    "q</a> <a href=\"#top\">top</a> <a href=\"mailto:x@y\">mail</a>\n"
    "<a b=\"x\"c=\"y\" href=\"/glued.html\">glued</a></ x></><!-->x-->"
    "<table><tr><td>1<td>2<tr><td>3</table>\n<map><area href=/ar.html "
    "shape=rect></map><frame src=\"/f.html\"><input type=image src=/in.gif "
    "checked>\n</body></html>\n<!-- trailing")


def test_every_prefix_of_a_page_indexes_identically():
    for cut in range(len(SAMPLE_PAGE) + 1):
        assert_same_index(SAMPLE_PAGE[:cut])


@given(st.one_of(roundtrip_documents(), splice_documents(),
                 st.text(alphabet=st.characters(max_codepoint=255),
                         max_size=200)))
@settings(max_examples=300, deadline=None)
def test_roundtrip_generators_index_identically(source):
    assert_same_index(source)


# ----------------------------------------------------------------------
# Raw text: one search from the cursor, not a lower-cased copy per block
# ----------------------------------------------------------------------

def script_page(blocks: int) -> str:
    closers = ["</script>", "</SCRIPT>", "</ScRiPt>", "</sCrIpT >"]
    return "".join(
        f"<p>para {i}</p><SCRIPT>if (a<b) x{i}('</a>');{closers[i % 4]}"
        for i in range(blocks))


class CountingSource(str):
    """A source text that records every whole-text ``lower()``."""

    lowered = 0

    def lower(self):
        CountingSource.lowered += 1
        return str.lower(self)


def test_many_script_blocks_tokenize_identically_and_never_copy_the_source():
    page = script_page(200)
    assert_same_index(page)
    tokens = tokenize_html(page)
    assert sum(isinstance(t, StartTag) and t.name == "script"
               for t in tokens) == 200
    assert TextToken("if (a<b) x7('</a>');") in tokens
    CountingSource.lowered = 0
    assert tokenize_html(CountingSource(page)) == tokens
    assert CountingSource.lowered == 0
    list(reference_iter_tokens(CountingSource(page)))
    assert CountingSource.lowered == 200  # what the scanner used to do


def test_script_blocks_cost_linear_time():
    def best_of(page: str) -> float:
        best = float("inf")
        for __ in range(5):
            started = time.perf_counter()
            tokenize_html(page)
            best = min(best, time.perf_counter() - started)
        return best

    small, large = best_of(script_page(200)), best_of(script_page(1600))
    # 8x the blocks: linear is 8x, the per-block copy was 64x.
    assert large < 24 * small
