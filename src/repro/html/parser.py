"""A simple, tolerant HTML parse tree.

The paper (section 4.3) calls for "a simple parse tree" built from an HTML
source file, in which modified links are replaced before the tree is turned
back into a stream of HTML.  This parser builds exactly that: a tree of
:class:`Element` and :class:`Text` nodes, recovering from the unclosed and
mis-nested tags common in hand-written pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from repro.html.tokenizer import (
    VOID_ELEMENTS,
    Comment,
    Doctype,
    EndTag,
    StartTag,
    TextToken,
    iter_tokens,
)

# Elements that implicitly close an open element of the same name
# (``<li>`` closes a previous ``<li>``, etc.).
SELF_NESTING_CLOSERS = frozenset({"li", "p", "tr", "td", "th", "option", "dt", "dd"})


@dataclass
class Text:
    """Character data leaf node (raw source text, entities intact)."""

    data: str


@dataclass
class CommentNode:
    """An HTML comment preserved in the tree."""

    data: str


@dataclass
class DoctypeNode:
    """A doctype declaration preserved in the tree."""

    data: str


@dataclass
class Element:
    """An element node: a start tag plus child nodes.

    ``tag`` keeps the attribute list; rewriting mutates ``tag.attrs`` in
    place so attribute order and unrelated attributes survive untouched.
    """

    tag: StartTag
    children: List["Node"] = field(default_factory=list)
    explicit_end: bool = True

    @property
    def name(self) -> str:
        return self.tag.name

    def get_attr(self, name: str) -> Optional[str]:
        return self.tag.get_attr(name)

    def set_attr(self, name: str, value: Optional[str]) -> None:
        self.tag.set_attr(name, value)


Node = Union[Element, Text, CommentNode, DoctypeNode]


@dataclass
class Document:
    """The root of a parse tree: an ordered forest of top-level nodes."""

    children: List[Node] = field(default_factory=list)

    def iter_elements(self) -> Iterator[Element]:
        """Depth-first, document-order traversal of every element."""
        stack: List[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                yield node
                stack.extend(reversed(node.children))

    def find_all(self, name: str) -> List[Element]:
        """Every element with tag *name* (lower-case), document order."""
        key = name.lower()
        return [el for el in self.iter_elements() if el.name == key]


def parse_html(source: str) -> Document:
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
    for token in iter_tokens(source):
        kind = type(token)
        if kind is StartTag:
            name = token.name
            if name in SELF_NESTING_CLOSERS and open_names \
                    and open_names[-1] == name:
                stack.pop()
                open_names.pop()
            nests = name not in VOID_ELEMENTS and not token.self_closing
            element = Element(token, [], nests)
            stack[-1].append(element)
            if nests:
                stack.append(element.children)
                open_names.append(name)
        elif kind is TextToken:
            stack[-1].append(Text(token.data))
        elif kind is EndTag:
            if token.name not in open_names:
                continue  # stray end tag: drop
            while open_names.pop() != token.name:
                stack.pop()
            stack.pop()
        elif kind is Comment:
            stack[-1].append(CommentNode(token.data))
        else:
            stack[-1].append(DoctypeNode(token.data))
    return document
