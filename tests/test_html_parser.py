"""Unit tests for the HTML parse tree."""

from repro.html.parser import Document, Element, Text, parse_html
from repro.html.serializer import serialize_html


class TestTreeShape:
    def test_nesting(self):
        doc = parse_html("<div><p>one</p></div>")
        div = doc.children[0]
        assert isinstance(div, Element) and div.name == "div"
        paragraph = div.children[0]
        assert isinstance(paragraph, Element) and paragraph.name == "p"
        assert isinstance(paragraph.children[0], Text)

    def test_void_elements_have_no_children(self):
        doc = parse_html("<img src='x.gif'>text after")
        img = doc.children[0]
        assert img.name == "img"
        assert img.children == []
        assert isinstance(doc.children[1], Text)

    def test_unclosed_tags_closed_at_eof(self):
        doc = parse_html("<ul><li>a<li>b")
        ul = doc.children[0]
        assert [c.name for c in ul.children if isinstance(c, Element)] \
            == ["li", "li"]

    def test_repeated_li_closes_previous(self):
        doc = parse_html("<ul><li>a<li>b</ul>")
        ul = doc.children[0]
        items = [c for c in ul.children if isinstance(c, Element)]
        assert len(items) == 2
        assert items[0].children[0].data == "a"

    def test_stray_end_tag_dropped(self):
        doc = parse_html("a</b>c")
        assert [child.data for child in doc.children] == ["a", "c"]

    def test_outer_end_tag_closes_inner(self):
        doc = parse_html("<div><b>x</div>after")
        div = doc.children[0]
        assert div.name == "div"
        # 'after' must be at top level, not inside <b>.
        assert isinstance(doc.children[1], Text)
        assert doc.children[1].data == "after"


class TestQueries:
    DOC = parse_html(
        '<html><body><a href="1.html">a</a><div><a href="2.html">b</a>'
        '</div><img src="i.gif"></body></html>')

    def test_find_all_document_order(self):
        anchors = self.DOC.find_all("a")
        assert [a.get_attr("href") for a in anchors] == ["1.html", "2.html"]

    def test_iter_elements_depth_first(self):
        names = [e.name for e in self.DOC.iter_elements()]
        assert names == ["html", "body", "a", "div", "a", "img"]

    def test_empty_document(self):
        doc = parse_html("")
        assert doc.children == []
        assert doc.find_all("a") == []


class TestMutation:
    def test_set_attr_then_serialize(self):
        doc = parse_html('<a href="old.html">x</a>')
        doc.find_all("a")[0].set_attr("href", "new.html")
        assert serialize_html(doc) == '<a href="new.html">x</a>'

    def test_frameset_frames(self):
        doc = parse_html('<frameset rows="*,*"><frame src="a.html">'
                         '<frame src="b.html"></frameset>')
        frames = doc.find_all("frame")
        assert [f.get_attr("src") for f in frames] == ["a.html", "b.html"]
