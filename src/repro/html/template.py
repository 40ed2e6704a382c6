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
"""

from __future__ import annotations

from itertools import accumulate
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
    stores it.  (A NamedTuple, not a dataclass: splicing rebuilds every
    span per regeneration, so construction cost is on the hot path.)
    """

    start: int
    end: int
    value: str
    tag: str
    attribute: str


class LinkTemplate:
    """A document's canonical source plus the spans of its references."""

    __slots__ = ("source", "spans")

    def __init__(self, source: str, spans: List[LinkSpan]) -> None:
        self.source = source
        self.spans = spans

    def __len__(self) -> int:
        return len(self.source)

    def compute_replacements(self, rewrite: RewriteFn) -> List[Optional[str]]:
        """Evaluate *rewrite* on every span, mirroring ``rewrite_links``:
        spans whose current value is no longer followable are skipped."""
        replacements: List[Optional[str]] = []
        for span in self.spans:
            if not is_followable(span.value):
                replacements.append(None)
            else:
                replacements.append(rewrite(span.value.strip()))
        return replacements

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
        source = self.source
        if not any(replacement is not None and replacement != span.value
                   for span, replacement in zip(self.spans, replacements)):
            return source, self
        parts: List[str] = []
        new_spans: List[LinkSpan] = []
        cursor = 0
        shift = 0
        for span, replacement in zip(self.spans, replacements):
            if replacement is None or replacement == span.value:
                if shift:
                    span = LinkSpan(span.start + shift, span.end + shift,
                                    span.value, span.tag, span.attribute)
                new_spans.append(span)
                continue
            parts.append(source[cursor:span.start])
            escaped = escape_attribute(replacement)
            parts.append(escaped)
            new_start = span.start + shift
            new_end = new_start + len(escaped)
            shift += len(escaped) - (span.end - span.start)
            cursor = span.end
            new_spans.append(LinkSpan(new_start, new_end, replacement,
                                      span.tag, span.attribute))
        parts.append(source[cursor:])
        output = "".join(parts)
        return output, LinkTemplate(output, new_spans)


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
    spans: List[LinkSpan] = []
    links: List[str] = []
    for piece, value, tag, attribute, first in references:
        if is_followable(value):
            spans.append(LinkSpan(ends[piece - 1], ends[piece], value,
                                  tag, attribute))
            if first:
                links.append(value.strip())
    return LinkTemplate("".join(pieces), spans), links


def build_link_template(document: Document) -> LinkTemplate:
    """The template half of :func:`index_document`."""
    return index_document(document)[0]
