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

Correctness by construction: the template comes out of the serializer's
own walk (:func:`repro.html.serializer.walk_html`), so the template source
and the span offsets come from the same pass that the full parse-tree
rewriter would serialize with.  :meth:`LinkTemplate.splice` therefore
produces byte-identical output to ``serialize_html`` after
:func:`repro.html.rewriter.rewrite_links` on the same tree — the property
tests assert exactly that.  Splicing also returns a *new* template for the
regenerated source, so successive reconstructions keep using the fast
path without ever re-parsing.

:func:`index_document` is what a server calls on a page it has just
parsed: the same walk also yields the page's followable link values —
what :func:`repro.html.links.extract_links` reports — so the local
document graph's edges and the template cost one pass between them.

A server keeps one template per home page for as long as it runs, so
the layout is flat: the span offsets in one ``array``, the link values
and tag names in lists of ``sys.intern``ed strings (a site links a few
hundred distinct targets from tens of thousands of anchors, and after a
regeneration every page holds absolute URLs of those same targets), the
attribute derived from the tag.  :class:`LinkSpan` tuples are built only
when :attr:`LinkTemplate.spans` is read.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from sys import intern
from typing import List, NamedTuple, Optional, Tuple

from repro.html.links import HREF_ATTRIBUTES, is_followable
from repro.html.parser import Document
from repro.html.rewriter import RewriteFn
from repro.html.serializer import walk_html
from repro.html.tokenizer import escape_attribute


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
