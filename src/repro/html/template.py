"""Link templates: splice-based dirty-document reconstruction.

The paper prices a dirty document's full parse-and-regenerate pass at
~20 ms (section 5.3) — tokenize, build the parse tree, rewrite the
affected hyperlinks, serialize.  But between two regenerations of the
same document only the hyperlink *values* can change; every other byte of
the output is identical.  A :class:`LinkTemplate` captures that once: the
canonical serialization of the document plus the character span of every
followable href/src attribute value.  Regeneration then becomes a splice
— copy the unchanged stretches, drop in the replacement URLs — which is
orders of magnitude cheaper than the full round trip.

A template has two producers.  :func:`index_document` takes a parse
tree and reads the template off the serializer's own walk
(:func:`repro.html.serializer.walk_html`), so its source and span offsets
come from the same pass that the full parse-tree rewriter would
serialize with: :meth:`LinkTemplate.splice` produces byte-identical
output to ``serialize_html`` after :func:`repro.html.rewriter.rewrite_links`
on the same tree, which the property tests assert.  :func:`index_source`
is what a server runs on a page's text: one scan, no tokens for the tags
that are already canonical and no tree, with the same result as
``index_document(parse_html(text))`` — ``_bounds``, ``_values``,
``_tags``, source and link list alike; that equality is what
``tests/property/test_html_index_model.py`` checks, on every input it
generates.  Both also return the page's followable link values — what
:func:`repro.html.links.extract_links` reports — so the local document
graph's edges and the template cost one pass between them.  Splicing
returns a *new* template for the regenerated source, so successive
reconstructions keep using the fast path without ever re-parsing.

A server keeps one template per home page for as long as it runs, so
the layout is flat: the span offsets in one ``array``, the link values
and tag names in lists of ``sys.intern``ed strings (a site links a few
hundred distinct targets from tens of thousands of anchors, and after a
regeneration every page holds absolute URLs of those same targets), the
attribute derived from the tag.  :class:`LinkSpan` tuples are built only
when :attr:`LinkTemplate.spans` is read.
"""

from __future__ import annotations

import re
from array import array
from itertools import accumulate
from sys import intern
from typing import List, NamedTuple, Optional, Set, Tuple

from repro.html.links import HREF_ATTRIBUTES, is_followable
from repro.html.parser import SELF_NESTING_CLOSERS, Document
from repro.html.rewriter import RewriteFn
from repro.html.serializer import walk_html
from repro.html.tokenizer import (RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Comment,
                                  Doctype, EndTag, StartTag, TextToken,
                                  escape_attribute, markup_at, raw_text_end)


class LinkSpan(NamedTuple):
    """One followable reference inside a template's source.

    ``start``/``end`` delimit the *escaped* attribute value (inside its
    double quotes); ``value`` is the unescaped value as the parse tree
    stores it; ``attribute`` is always ``HREF_ATTRIBUTES[tag]``.
    """

    start: int
    end: int
    value: str
    tag: str
    attribute: str


class LinkTemplate:
    """A document's canonical source plus the spans of its references.

    Span *i* starts at ``_bounds[2 * i]``, ends at ``_bounds[2 * i + 1]``
    and holds ``_values[i]`` on a ``_tags[i]`` element.  A template is
    never changed after it is made, so a splice hands its tag list on to
    the next template.
    """

    __slots__ = ("source", "_bounds", "_values", "_tags")

    def __init__(self, source: str, spans: List[LinkSpan]) -> None:
        bounds = array("L")
        for span in spans:
            if HREF_ATTRIBUTES.get(span.tag) != span.attribute:
                raise ValueError(f"{span.attribute!r} is not the reference "
                                 f"attribute of <{span.tag}>")
            bounds.extend((span.start, span.end))
        self.source = source
        self._bounds = bounds
        self._values = [intern(span.value) for span in spans]
        self._tags = [intern(span.tag) for span in spans]

    @classmethod
    def _flat(cls, source: str, bounds: "array[int]", values: List[str],
              tags: List[str]) -> "LinkTemplate":
        """A template over arrays already in the flat layout."""
        template = cls.__new__(cls)
        template.source = source
        template._bounds = bounds
        template._values = values
        template._tags = tags
        return template

    def __len__(self) -> int:
        return len(self.source)

    @property
    def span_count(self) -> int:
        """How many spans, without building them."""
        return len(self._values)

    @property
    def spans(self) -> List[LinkSpan]:
        """The spans as tuples, built on each read (tests, introspection)."""
        bounds = iter(self._bounds)
        return [LinkSpan(start, end, value, tag, HREF_ATTRIBUTES[tag])
                for start, end, value, tag
                in zip(bounds, bounds, self._values, self._tags)]

    def link_values(self) -> Set[str]:
        """The distinct followable values, stripped, as :meth:`splice`
        hands them to its rewrite."""
        return {value.strip() for value in set(self._values)
                if is_followable(value)}

    def compute_replacements(self, rewrite: RewriteFn) -> List[Optional[str]]:
        """Evaluate *rewrite* on every span, mirroring ``rewrite_links``:
        spans whose current value is no longer followable are skipped."""
        return [rewrite(value.strip()) if is_followable(value) else None
                for value in self._values]

    def splice(self, rewrite: RewriteFn) -> Tuple[str, "LinkTemplate"]:
        """Regenerate via *rewrite*; returns ``(output, next_template)``.

        ``output`` is byte-identical to parsing this template's source,
        applying :func:`~repro.html.rewriter.rewrite_links`, and
        serializing.  ``next_template`` describes ``output`` so the next
        regeneration can splice again.
        """
        return self.splice_all(self.compute_replacements(rewrite))

    def splice_all(self, replacements: List[Optional[str]]
                   ) -> Tuple[str, "LinkTemplate"]:
        """Splice precomputed per-span *replacements* (``None`` = keep).

        The string half of :meth:`splice`: every rewrite lookup has been
        made by the time it runs.
        """
        source, bounds, values = self.source, self._bounds, self._values
        new_bounds = bounds[:]
        new_values = values.copy()
        parts: List[str] = []
        cursor = shift = 0
        for index, replacement in enumerate(replacements):
            if replacement is None or replacement == values[index]:
                if shift:
                    new_bounds[2 * index] += shift
                    new_bounds[2 * index + 1] += shift
                continue
            start, end = bounds[2 * index], bounds[2 * index + 1]
            replacement = new_values[index] = intern(replacement)
            escaped = escape_attribute(replacement)
            parts += (source[cursor:start], escaped)
            new_bounds[2 * index] = start + shift
            shift += len(escaped) - (end - start)
            new_bounds[2 * index + 1] = end + shift
            cursor = end
        if not parts:
            return source, self
        parts.append(source[cursor:])
        output = "".join(parts)
        return output, LinkTemplate._flat(output, new_bounds, new_values,
                                          self._tags)


def index_document(document: Document) -> Tuple[LinkTemplate, List[str]]:
    """Serialize *document* once; return its link template and the values
    of its followable links (stripped, document order).

    Per element, the first valued occurrence of its reference attribute
    becomes a span; it is also a link when it is the occurrence
    ``Element.get_attr`` returns, so splicing touches the values
    ``rewrite_links`` would touch.
    """
    pieces, references = walk_html(document, HREF_ATTRIBUTES)
    ends = list(accumulate(map(len, pieces)))
    bounds = array("L")
    values: List[str] = []
    tags: List[str] = []
    links: List[str] = []
    for piece, value, tag, _, first in references:
        if is_followable(value):
            bounds.extend((ends[piece - 1], ends[piece]))
            value = intern(value)
            values.append(value)
            tags.append(intern(tag))
            if first:
                links.append(value.strip())
    return LinkTemplate._flat("".join(pieces), bounds, values, tags), links


def build_link_template(document: Document) -> LinkTemplate:
    """The template half of :func:`index_document`."""
    return index_document(document)[0]


# A start or end tag already in the form ``walk_html`` writes: lower-case
# names, one space before each attribute, values double-quoted and free
# of ``&`` (so escaping them changes nothing).  The tokenizer's patterns
# read such a tag the same way, and it serializes to its own source, so
# it is copied.  At any other ``<`` only the ``<`` itself matches.  A
# start tag's first attribute has groups of its own — name, then value —
# because a reference attribute is nearly always first; the rest of the
# list is group 4, read by ``_CANONICAL_ATTRIBUTE_RE`` when it must be.
_NAME = r"[a-z0-9\-_:.]"
_CANONICAL_ATTRIBUTE = rf' ({_NAME}+)(?:="([^"&]*)")?'
_CANONICAL_TAG_RE = re.compile(
    rf'<(?:([a-z]{_NAME}*)(?:{_CANONICAL_ATTRIBUTE}'
    rf'((?: {_NAME}+(?:="[^"&]*")?)*))?>|/({_NAME}+)>)?')
_CANONICAL_ATTRIBUTE_RE = re.compile(_CANONICAL_ATTRIBUTE)

#: ``(start, end, value, first)``: a reference attribute's escaped value
#: is ``html[start:end]`` of the start tag's output ``html``; the rest is
#: as in :data:`repro.html.serializer.Reference`.
_TagReference = Tuple[int, int, str, bool]


def _start_tag_html(tag: StartTag) -> Tuple[str, Optional[_TagReference]]:
    """*tag* as ``walk_html`` writes it, and its reference."""
    name = tag.name
    attribute = HREF_ATTRIBUTES.get(name)
    first = True
    reference = None
    html = "<" + name
    for key, value in tag.attrs:
        if value is None:
            html += " " + key
            if key == attribute:
                first = False
        elif key == attribute:
            html += f' {key}="'
            escaped = escape_attribute(value)
            reference = (len(html), len(html) + len(escaped), value, first)
            html += escaped + '"'
            attribute = None  # later occurrences are plain
        else:
            html += f' {key}="{escape_attribute(value)}"'
    html += ">"
    if tag.self_closing and name not in VOID_ELEMENTS:
        html += f"</{name}>"
    return html, reference


def _later_reference(text: str, lt: int, start: int, end: int,
                     attribute: str, first: bool) -> Optional[_TagReference]:
    """The reference among the canonical attributes at ``text[start:end]``
    of the tag at *lt*, when the tag's first attribute was not it."""
    for found in _CANONICAL_ATTRIBUTE_RE.finditer(text, start, end):
        if found[1] == attribute:
            if found[2] is not None:
                return found.start(2) - lt, found.end(2) - lt, found[2], first
            first = False
    return None


def index_source(text: str) -> Tuple[LinkTemplate, List[str]]:
    """``index_document(parse_html(text))``, in one scan of *text*.

    Canonical tags and the text between them are copied from *text* in
    runs; the output is cut only where it differs from the source: an
    end tag the tree implies (a self-nesting predecessor, the elements an
    outer end tag closes, what is open at end of input), a dropped stray
    end tag, or a construct ``walk_html`` writes differently, which is
    tokenized by :func:`~repro.html.tokenizer.markup_at` and written by
    ``walk_html``'s rules.  A stack of open names applies ``parse_html``'s
    recovery rules; span offsets are read off the running output length.
    """
    pieces: List[str] = []  # the output that precedes text[run:pos]
    size = 0                # its length
    run = pos = 0
    open_names: List[str] = []
    bounds = array("L")
    values: List[str] = []
    tags: List[str] = []
    links: List[str] = []

    def cut(start: int, output: str, resume: int) -> None:
        """Write *output* where ``text[start:resume]`` would be copied."""
        nonlocal size, run
        pieces.append(text[run:start])
        pieces.append(output)
        size += start - run + len(output)
        run = resume

    search = _CANONICAL_TAG_RE.search
    while True:
        match = search(text, pos)
        if match is None:
            break
        lt = match.start()
        name, key, value, rest, end_name = match.groups()
        html = None  # the construct's output, when it is not its source
        nests = True
        reference: Optional[_TagReference] = None
        if name is None and end_name is None:
            token, pos = markup_at(text, lt)
            kind = type(token)
            if kind is StartTag:
                name = token.name
                nests = not token.self_closing
                html, reference = _start_tag_html(token)
            elif kind is EndTag:
                end_name = token.name
                html = f"</{end_name}>"
            else:
                html = token.data if kind is TextToken \
                    else f"<!--{token.data}-->" if kind is Comment \
                    else f"<!{token.data}>"
        else:
            pos = match.end()
            if key is not None and name in HREF_ATTRIBUTES:
                attribute = HREF_ATTRIBUTES[name]
                if key == attribute and value is not None:
                    reference = (match.start(3) - lt, match.end(3) - lt,
                                 value, True)
                elif rest:
                    reference = _later_reference(
                        text, lt, match.start(4), match.end(4), attribute,
                        key != attribute)
        if name is not None:
            if name in SELF_NESTING_CLOSERS and open_names \
                    and open_names[-1] == name:
                open_names.pop()
                cut(lt, f"</{name}>", lt)
            if nests and name not in VOID_ELEMENTS:
                open_names.append(name)
            if reference is not None:
                start, end, value, first = reference
                if is_followable(value):
                    at = size + lt - run
                    bounds.extend((at + start, at + end))
                    value = intern(value)
                    values.append(value)
                    tags.append(intern(name))
                    if first:
                        links.append(value.strip())
        elif end_name is None:
            pass  # text, a comment or a doctype
        elif open_names and open_names[-1] == end_name:
            open_names.pop()
        elif end_name in open_names:
            closes = ""
            while open_names[-1] != end_name:
                closes += f"</{open_names.pop()}>"
            open_names.pop()
            cut(lt, closes, lt)
        else:
            html = ""  # a stray end tag is dropped
        if html is not None and html != text[lt:pos]:
            cut(lt, html, pos)
        if nests and name in RAW_TEXT_ELEMENTS:
            pos = raw_text_end(name, text, pos)
    pieces.append(text[run:])
    pieces.extend(f"</{name}>" for name in reversed(open_names))
    return LinkTemplate._flat("".join(pieces), bounds, values, tags), links
