"""Unit tests for link-template splice reconstruction."""

import gc
import sys
import tracemalloc

import pytest

from repro.datasets import build_sblog
from repro.html.parser import parse_html
from repro.html.rewriter import rewrite_html
from repro.html.serializer import serialize_html
from repro.html.template import LinkSpan, LinkTemplate, build_link_template


def template_of(source: str) -> LinkTemplate:
    return build_link_template(parse_html(source))


def migrate(value):
    if value.endswith(".html"):
        return f"http://coop:81/~migrate/home/80{value}"
    return None


class TestBuild:
    def test_source_is_canonical_serialization(self):
        source = "<html><a href=/a.html>A</a><IMG SRC='/i.gif'></html>"
        template = template_of(source)
        assert template.source == serialize_html(parse_html(source))

    def test_spans_cover_followable_links(self):
        template = template_of(
            '<a href="/a.html">A</a><img src="/i.gif">'
            '<a href="#frag">skip</a><a href="mailto:x@y">skip</a>')
        assert [(s.tag, s.value) for s in template.spans] == [
            ("a", "/a.html"), ("img", "/i.gif")]

    def test_span_offsets_address_the_values(self):
        template = template_of('<a href="/a.html">A</a><frame src="/f.html">')
        for span in template.spans:
            assert template.source[span.start:span.end] == span.value

    def test_duplicate_attribute_first_occurrence_only(self):
        # get_attr/set_attr touch the first occurrence; so must the spans.
        template = template_of('<a href="/one.html" href="/two.html">x</a>')
        assert [s.value for s in template.spans] == ["/one.html"]

    def test_bare_and_unvalued_attributes_ignored(self):
        template = template_of('<a href>x</a><input checked src="/i.gif">')
        assert [s.value for s in template.spans] == ["/i.gif"]


class TestSplice:
    def test_identical_to_parse_tree_rewriter(self):
        source = ('<html><head><title>t</title></head><body>'
                  '<a href="/a.html">A</a> text <img src="/i.gif">'
                  '<a href="/b.html">B</a></body></html>')
        output, __ = template_of(source).splice(migrate)
        assert output == rewrite_html(source, migrate)
        assert "~migrate" in output

    def test_no_changes_returns_source_verbatim(self):
        source = '<a href="/a.html">A</a><p>text</p>'
        template = template_of(source)
        output, next_template = template.splice(lambda v: None)
        assert output == template.source
        assert [s.value for s in next_template.spans] == ["/a.html"]

    def test_identity_replacement_is_a_no_op(self):
        source = '<a href="/a.html">A</a>'
        template = template_of(source)
        output, __ = template.splice(lambda v: v)
        assert output == template.source

    def test_replacement_is_escaped_like_the_serializer(self):
        source = '<a href="/a.html">A</a>'
        nasty = '/x.html?a=1&b="2"'
        output, __ = template_of(source).splice(lambda v: nasty)
        assert output == rewrite_html(source, lambda v: nasty)
        assert "&amp;" in output and "&quot;" in output

    def test_entities_in_original_value_round_trip(self):
        source = '<a href="/x.html?a=1&amp;b=2">x</a><a href="/y.html">y</a>'
        mapping = {"/y.html": "/moved.html"}
        rewrite = lambda v: mapping.get(v)
        output, __ = template_of(source).splice(rewrite)
        assert output == rewrite_html(source, rewrite)
        # The untouched entity-bearing value survives byte-for-byte.
        assert "a=1&amp;b=2" in output

    def test_messy_markup_matches_full_rewriter(self):
        source = ("<!DOCTYPE html><!-- note --><body background=/bg.gif>"
                  "<A HREF=/a.html>go</A><script src='/s.js'>var a = '<a href=\"/no.html\">';"
                  "</script><p>bare & amp <frame src=/f.html>")
        output, __ = template_of(source).splice(migrate)
        assert output == rewrite_html(source, migrate)

    def test_successive_splices_track_spans(self):
        source = '<a href="/a.html">A</a><a href="/b.html">B</a>'
        template = template_of(source)
        out1, template = template.splice(migrate)
        # Second round: rewrite the migrated URL of /a.html back home.
        back = lambda v: "/a.html" if "~migrate" in v and "a.html" in v else None
        out2, template = template.splice(back)
        assert out2 == rewrite_html(out1, back)
        for span in template.spans:
            assert template.source[span.start:span.end] == span.value

    def test_splice_all_with_precomputed_replacements(self):
        source = '<a href="/a.html">A</a><img src="/i.gif">'
        template = template_of(source)
        replacements = template.compute_replacements(migrate)
        assert replacements == ["http://coop:81/~migrate/home/80/a.html", None]
        output, __ = template.splice_all(replacements)
        assert output == rewrite_html(source, migrate)

    def test_non_followable_current_value_skipped(self):
        # A span whose value became non-followable must not reach rewrite,
        # mirroring rewrite_links.
        template = LinkTemplate('<a href="#x">y</a>',
                                [LinkSpan(9, 11, "#x", "a", "href")])
        calls = []
        output, __ = template.splice(lambda v: calls.append(v))
        assert calls == []
        assert output == template.source


class TestFootprint:
    """A server keeps a template per page for as long as it runs: the
    spans are held flat, with link values and tags interned."""

    @staticmethod
    def link_heavy_page():
        site = build_sblog(seed=0)
        pages = sorted((name for name in site.documents
                        if name.endswith(".html")),
                       key=lambda name: -site.documents[name].count(b"href="))
        return site, pages[0]

    def test_a_template_keeps_few_bytes_per_span(self):
        site, name = self.link_heavy_page()
        text = site.documents[name].decode("latin-1")
        # Another template already holds the page's link values, as the
        # other pages of a site do on a server.
        other = build_link_template(parse_html(text))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            template = build_link_template(parse_html(text))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        spans = len(template.spans)
        assert spans > 300
        assert template.spans == other.spans
        # About 5x below the 330 B a span that 5-tuples holding private
        # strings cost.
        assert (kept - sys.getsizeof(template.source)) / spans < 64

    def test_equal_values_of_two_pages_are_one_object(self):
        site = build_sblog(seed=0)
        first, second = (build_link_template(parse_html(
            site.documents[name].decode("latin-1")))
            for name in ("/index.html", "/by_date.html"))
        values = {span.value: span.value for span in first.spans}
        shared = [span.value for span in second.spans
                  if span.value in values]
        assert shared
        assert all(value is values[value] for value in shared)

    def test_spliced_replacements_are_one_object(self):
        def absolute(value):
            return "http://home:80" + value       # a fresh string each call
        spliced = [template_of(f'<a href="/a.html">A</a><p>{n}</p>'
                               '<img src="/i.gif">').splice(absolute)[1]
                   for n in range(2)]
        first, second = (template.spans for template in spliced)
        assert [span.value for span in first] == [
            "http://home:80/a.html", "http://home:80/i.gif"]
        assert all(a.value is b.value for a, b in zip(first, second))

    def test_the_constructor_round_trips_its_spans(self):
        site, name = self.link_heavy_page()
        built = build_link_template(parse_html(
            site.documents[name].decode("latin-1")))
        spans = built.spans
        assert LinkTemplate(built.source, spans).spans == spans
        with pytest.raises(ValueError):
            LinkTemplate('<a href="/a.html">', [LinkSpan(9, 16, "/a.html",
                                                         "a", "src")])

    def test_an_offset_past_65535_round_trips(self):
        filler = "<p>" + "x" * 70_000 + "</p>"
        source = filler + '<a href="/a.html">A</a>' + filler \
            + '<img src="/i.gif">'
        template = template_of(source)
        starts = [span.start for span in template.spans]
        assert min(starts) > 65_535
        for span in template.spans:
            assert template.source[span.start:span.end] == span.value
        output, spliced = template.splice(migrate)
        assert output == rewrite_html(source, migrate)
        for span in spliced.spans:
            assert spliced.source[span.start:span.end] == span.value
        assert LinkTemplate(template.source, template.spans).spans \
            == template.spans
