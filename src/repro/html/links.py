"""Hyperlink and resource-reference extraction from parse trees.

The local document graph (paper section 3.3) is computed by scanning the
disk and parsing every document: each ``<a href>`` contributes a hyperlink
edge and each ``<img src>`` an embedded-image edge.  Frames (section 3.1)
and image maps are also first-class: a frame template references internal
frame pages via ``<frame src>``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from repro.html.parser import Document, Element
from repro.html.serializer import walk_html

# (tag name -> attribute holding the reference).  Covers every reference
# kind the DCWS prototype migrates or follows.
HREF_ATTRIBUTES: Dict[str, str] = {
    "a": "href",
    "area": "href",
    "link": "href",
    "img": "src",
    "frame": "src",
    "iframe": "src",
    "script": "src",
    "input": "src",
    "body": "background",
}

# Tags whose references are fetched automatically with the page (no user
# click), i.e. "embedded" in the paper's sense.  ``a``/``area``/``link``
# require navigation.
EMBEDDED_TAGS: FrozenSet[str] = frozenset(
    {"img", "frame", "iframe", "script", "input", "body"})

_IGNORED_SCHEMES: Tuple[str, ...] = ("mailto:", "ftp:", "news:", "javascript:",
                                     "gopher:", "telnet:", "https:")


class LinkRef(NamedTuple):
    """One outgoing reference found in a document.

    ``embedded`` distinguishes automatically-fetched resources (images,
    frames) from navigational hyperlinks; the custom client benchmark
    (Algorithm 2) fetches embedded references in parallel and navigates
    only hyperlinks.  (A NamedTuple, like ``LinkSpan``: every page a
    server, walker or checker parses builds one per link.)
    """

    tag: str
    attribute: str
    value: str
    embedded: bool


def is_followable(value: str) -> bool:
    """True when a raw attribute value is a fetchable http(-relative) URL.

    Fragment-only references, empty values, and non-http schemes are not
    edges in the document graph.
    """
    if not value:
        return False
    stripped = value.strip()
    if not stripped or stripped.startswith("#"):
        return False
    return not stripped.lower().startswith(_IGNORED_SCHEMES)


def extract_links(document: Document) -> List[LinkRef]:
    """Every followable outgoing reference of *document*, document order.

    >>> from repro.html.parser import parse_html
    >>> doc = parse_html('<a href="b.html">b</a><img src="i.gif">')
    >>> [(l.tag, l.value, l.embedded) for l in extract_links(doc)]
    [('a', 'b.html', False), ('img', 'i.gif', True)]
    """
    return [LinkRef(tag, attribute, value.strip(), tag in EMBEDDED_TAGS)
            for _, value, tag, attribute, first
            in walk_html(document, HREF_ATTRIBUTES)[1]
            if first and is_followable(value)]


def link_elements(document: Document) -> List[Element]:
    """The elements carrying followable references, document order."""
    elements: List[Element] = []
    for element in document.iter_elements():
        attribute = HREF_ATTRIBUTES.get(element.name)
        if attribute is None:
            continue
        value = element.get_attr(attribute)
        if value is not None and is_followable(value):
            elements.append(element)
    return elements
