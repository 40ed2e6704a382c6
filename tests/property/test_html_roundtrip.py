"""Property tests: HTML parse/serialize/rewrite invariants."""

from hypothesis import given, settings, strategies as st

from repro.html.links import extract_links
from repro.html.parser import Element, Text, parse_html
from repro.html.rewriter import rewrite_html, rewrite_links
from repro.html.serializer import serialize_html


def text_of(node):
    """The character data under *node*, in document order."""
    return "".join(child.data if isinstance(child, Text) else text_of(child)
                    for child in node.children
                    if isinstance(child, (Text, Element)))


# --- generators -------------------------------------------------------

_name = st.text(alphabet="abcdefghij", min_size=1, max_size=8)
_href = st.builds(lambda s, ext: f"/{s}.{ext}",
                  _name, st.sampled_from(["html", "gif", "jpg"]))
_text = st.text(alphabet="abc xyz,.!?", max_size=30)


@st.composite
def html_documents(draw):
    """Well-formed-ish documents with a known set of references."""
    pieces = []
    for __ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["a", "img", "frame", "text", "b"]))
        if kind == "a":
            href = draw(_href)
            pieces.append(f'<a href="{href}">{draw(_text)}</a>')
        elif kind == "img":
            pieces.append(f'<img src="{draw(_href)}">')
        elif kind == "frame":
            pieces.append(f'<frame src="{draw(_href)}">')
        elif kind == "b":
            pieces.append(f"<b>{draw(_text)}</b>")
        else:
            pieces.append(draw(_text))
    return "".join(pieces)


# --- properties -------------------------------------------------------

@given(html_documents())
@settings(max_examples=150)
def test_serialize_parse_preserves_link_set(source):
    document = parse_html(source)
    original_links = [(l.tag, l.value) for l in extract_links(document)]
    round_tripped = parse_html(serialize_html(document))
    assert [(l.tag, l.value) for l in extract_links(round_tripped)] == \
        original_links


@given(html_documents())
@settings(max_examples=150)
def test_serialize_parse_preserves_text(source):
    document = parse_html(source)
    round_tripped = parse_html(serialize_html(document))
    assert text_of(round_tripped) == text_of(document)


@given(html_documents())
@settings(max_examples=100)
def test_canonical_form_is_fixed_point(source):
    once = rewrite_html(source, lambda v: None)
    twice = rewrite_html(once, lambda v: None)
    assert once == twice


@given(html_documents())
@settings(max_examples=100)
def test_identity_rewrite_changes_nothing(source):
    document = parse_html(source)
    assert rewrite_links(document, lambda v: None) == 0


@given(html_documents(), _href)
@settings(max_examples=100)
def test_rewrite_then_reverse_restores_link_set(source, replacement):
    document = parse_html(source)
    targets = sorted({l.value for l in extract_links(document)})
    if not targets or replacement in targets:
        return
    victim = targets[0]
    forward = rewrite_html(source,
                           lambda v: replacement if v == victim else None)
    backward = rewrite_html(forward,
                            lambda v: victim if v == replacement else None)
    original = sorted(l.value for l in extract_links(parse_html(source)))
    restored = sorted(l.value for l in extract_links(parse_html(backward)))
    assert restored == original


@given(st.text(max_size=200))
@settings(max_examples=200)
def test_parser_never_crashes_on_arbitrary_input(garbage):
    document = parse_html(garbage)
    serialize_html(document)
    extract_links(document)
