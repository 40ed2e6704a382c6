"""HTML substrate: tokenizer, parse tree, link extraction and rewriting.

The DCWS prototype's central mechanism is *hyperlink rewriting* (paper
section 4.3): a general-purpose HTML parser builds a simple parse tree from
a document, migrated links are replaced in the tree, and the tree is turned
back into a stream of HTML and written to disk.  This package implements
that pipeline from scratch, tolerant of the messy real-world HTML of the
era (unclosed tags, unquoted attributes, stray ``>``).
"""

from repro.html.links import HREF_ATTRIBUTES, LinkRef, extract_links
from repro.html.parser import Document, Element, Node, Text, parse_html
from repro.html.rewriter import rewrite_links
from repro.html.serializer import serialize_html
from repro.html.tokenizer import (
    Comment,
    Doctype,
    EndTag,
    StartTag,
    TextToken,
    Token,
)

__all__ = [
    "Comment",
    "Doctype",
    "Document",
    "Element",
    "EndTag",
    "HREF_ATTRIBUTES",
    "LinkRef",
    "Node",
    "StartTag",
    "Text",
    "TextToken",
    "Token",
    "extract_links",
    "parse_html",
    "rewrite_links",
    "serialize_html",
]
