"""Unit tests for hyperlink rewriting and regeneration."""

from repro.html.links import extract_links
from repro.html.parser import parse_html
from repro.html.rewriter import rewrite_html, rewrite_links
from repro.html.serializer import serialize_html


class TestRewriteLinks:
    def test_targeted_rewrite(self):
        doc = parse_html('<a href="d.html">D</a><a href="e.html">E</a>')
        changed = rewrite_links(
            doc, lambda v: "http://coop/~migrate/h/80/d.html"
            if v == "d.html" else None)
        assert changed == 1
        values = [l.value for l in extract_links(doc)]
        assert values == ["http://coop/~migrate/h/80/d.html", "e.html"]

    def test_none_leaves_unchanged(self):
        source = '<a href="x.html">x</a>'
        doc = parse_html(source)
        assert rewrite_links(doc, lambda v: None) == 0
        assert serialize_html(doc) == source

    def test_identity_value_not_counted(self):
        doc = parse_html('<a href="x.html">x</a>')
        assert rewrite_links(doc, lambda v: v) == 0

    def test_images_rewritten_too(self):
        doc = parse_html('<img src="i.gif">')
        assert rewrite_links(doc, lambda v: "http://c/~migrate/h/80/i.gif") == 1

    def test_fragment_links_not_visited(self):
        doc = parse_html('<a href="#top">top</a>')
        seen = []
        rewrite_links(doc, lambda v: seen.append(v))
        assert seen == []

    def test_unrelated_attributes_preserved(self):
        doc = parse_html('<a class="nav" href="a.html" target="_top">x</a>')
        rewrite_links(doc, lambda v: "/new.html")
        out = serialize_html(doc)
        assert 'class="nav"' in out
        assert 'target="_top"' in out
        assert 'href="/new.html"' in out


class TestRewriteHtml:
    def test_full_pipeline(self):
        out = rewrite_html('<p><a href="a.html">x</a></p>',
                           lambda v: "/moved/a.html")
        assert 'href="/moved/a.html"' in out

    def test_round_trip_preserves_link_set(self):
        source = ('<html><body><a href="a.html">1</a>'
                  '<img src="i.gif"><frame src="f.html"></body></html>')
        once = rewrite_html(source, lambda v: None)
        twice = rewrite_html(once, lambda v: None)
        assert once == twice  # canonical form is a fixed point

    def test_migration_then_revocation_is_identity_on_links(self):
        source = '<a href="/d.html">D</a>'
        migrated = rewrite_html(
            source, lambda v: "http://c:81/~migrate/h/80/d.html"
            if v == "/d.html" else None)
        restored = rewrite_html(
            migrated, lambda v: "/d.html"
            if v == "http://c:81/~migrate/h/80/d.html" else None)
        assert [l.value for l in extract_links(parse_html(restored))] \
            == ["/d.html"]
