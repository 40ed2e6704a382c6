"""Hyperlink rewriting on parse trees (paper section 4.3).

When a document's ``Dirty`` bit is set — some of its ``LinkTo`` documents
have been migrated — the server parses it, replaces the affected hyperlinks
in the parse tree, regenerates the HTML, and writes it back to disk.  The
rewrite function is a plain ``str -> str | None`` mapping so the policy
layer (:mod:`repro.core.migration`) stays independent of HTML mechanics.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.html.links import HREF_ATTRIBUTES, link_elements
from repro.html.parser import Document

RewriteFn = Callable[[str], Optional[str]]


def rewrite_links(document: Document, rewrite: RewriteFn) -> int:
    """Apply *rewrite* to every followable reference in *document*.

    *rewrite* receives the raw attribute value and returns the replacement,
    or ``None`` to leave the reference unchanged.  The tree is mutated in
    place; attribute order and unrelated attributes are untouched.  Returns
    the number of references changed.

    >>> from repro.html.parser import parse_html
    >>> from repro.html.serializer import serialize_html
    >>> doc = parse_html('<a href="d.html">D</a>')
    >>> rewrite_links(doc, lambda v: "http://coop:81/~migrate/home/80/d.html"
    ...               if v == "d.html" else None)
    1
    >>> serialize_html(doc)
    '<a href="http://coop:81/~migrate/home/80/d.html">D</a>'
    """
    changed = 0
    for element in link_elements(document):
        attribute = HREF_ATTRIBUTES[element.name]
        value = element.get_attr(attribute)
        replacement = rewrite(value.strip())
        if replacement is not None and replacement != value:
            element.set_attr(attribute, replacement)
            changed += 1
    return changed


def rewrite_html(source: str, rewrite: RewriteFn) -> str:
    """Parse, rewrite, and re-serialize *source* in one call.

    This is the full regeneration path whose cost the paper reports as
    roughly 20 ms per 6.5 KB document on 1998 hardware.
    """
    from repro.html.parser import parse_html
    from repro.html.serializer import serialize_html

    document = parse_html(source)
    rewrite_links(document, rewrite)
    return serialize_html(document)
