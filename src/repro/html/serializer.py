"""Turn a parse tree back into a stream of HTML (paper section 4.3).

Serialization is canonical rather than byte-preserving: attributes are
emitted double-quoted and entity-escaped, tags lower-case.  The guaranteed
invariant — covered by property tests — is that re-parsing the output
yields an identical link set and identical text content, which is all the
DCWS system (and a browser) observes.

There is one walker, :func:`walk_html`, and every product of a parse tree
comes out of it: :func:`serialize_html` joins its pieces,
:func:`repro.html.template.index_document` turns the references it
reports into spans of the joined source, and
:func:`repro.html.links.extract_links` reads the same references as
links.  Because the bytes and the positions come from the same pass, a
link template's spans are correct by construction, and indexing a page
walks its tree once.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.errors import HTMLParseError
from repro.html.parser import CommentNode, Document, DoctypeNode, Element, Text
from repro.html.tokenizer import VOID_ELEMENTS, escape_attribute

#: ``(piece, value, tag, attribute, first)``: ``pieces[piece]`` is the
#: escaped form of *value*, the first valued occurrence of *attribute* on
#: a *tag* element; *first* is false when a bare occurrence precedes it
#: (``<a href href="x">``), where ``Element.get_attr`` answers ``None``.
Reference = Tuple[int, str, str, str, bool]


def walk_html(document: Document, wanted: Mapping[str, str]
              ) -> Tuple[List[str], List[Reference]]:
    """Walk *document* once, in document order.

    Returns the pieces whose concatenation is the canonical source, and a
    :data:`Reference` for every element whose tag is a key of *wanted* and
    which carries a valued ``wanted[tag]`` attribute.
    """
    pieces: List[str] = []
    append = pieces.append
    references: List[Reference] = []
    # Open elements: an iterator over the remaining children of each, and
    # the end tag owed when it runs out (none for the document itself).
    open_children = [iter(document.children)]
    end_tags = [""]
    while open_children:
        for node in open_children[-1]:
            kind = type(node)
            if kind is Text:
                append(node.data)
            elif kind is Element:
                name = node.tag.name
                attribute = wanted.get(name)
                first = True
                head = "<" + name  # the start tag up to the next piece break
                for key, value in node.tag.attrs:
                    if value is None:
                        head += " " + key
                        if key == attribute:
                            first = False
                    elif key == attribute:
                        append(f'{head} {key}="')
                        references.append(
                            (len(pieces), value, name, key, first))
                        append(escape_attribute(value))
                        head = '"'
                        attribute = None  # later occurrences are plain
                    else:
                        head += f' {key}="{escape_attribute(value)}"'
                append(head + ">")
                if name in VOID_ELEMENTS:
                    continue
                if node.children:
                    open_children.append(iter(node.children))
                    end_tags.append(f"</{name}>")
                    break
                append(f"</{name}>")
            elif kind is CommentNode:
                append(f"<!--{node.data}-->")
            elif kind is DoctypeNode:
                append(f"<!{node.data}>")
            else:
                raise HTMLParseError(f"foreign node in parse tree: {node!r}")
        else:
            open_children.pop()
            append(end_tags.pop())
    return pieces, references


def serialize_html(document: Document) -> str:
    """Render *document* as an HTML string."""
    return "".join(walk_html(document, {})[0])
