"""Unit tests for URL parsing, joining, and path utilities."""

import pytest

from repro.errors import URLError
from repro.http.urls import (
    URL,
    join_url,
    normalize_path,
    parse_url,
    split_path,
    strip_fragment,
)


class TestParse:
    def test_basic(self):
        url = parse_url("http://host/path/doc.html")
        assert (url.host, url.port, url.path) == ("host", 80, "/path/doc.html")
        assert url.query is None

    def test_explicit_port(self):
        url = parse_url("http://host:8080/x")
        assert url.port == 8080
        assert url.authority == "host:8080"

    def test_default_port_omitted_from_authority(self):
        assert parse_url("http://host/x").authority == "host"

    def test_no_path_becomes_root(self):
        assert parse_url("http://host").path == "/"

    def test_query_preserved(self):
        url = parse_url("http://h/cgi?x=1&y=2")
        assert url.query == "x=1&y=2"
        assert url.request_target == "/cgi?x=1&y=2"

    def test_empty_query_distinct_from_none(self):
        assert parse_url("http://h/a?").query == ""
        assert parse_url("http://h/a").query is None

    def test_str_round_trip(self):
        for text in ("http://h/", "http://h:81/a/b.html",
                     "http://h/a?q=1", "http://h:8080/"):
            assert str(parse_url(text)) == text

    @pytest.mark.parametrize("bad", [
        "https://h/x", "ftp://h/x", "host/path", "http://", "http:///x",
        "http://h:port/x", "",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(URLError):
            parse_url(bad)

    def test_rejects_bad_port_range(self):
        with pytest.raises(URLError):
            URL("h", 0)
        with pytest.raises(URLError):
            URL("h", 70000)

    def test_rejects_relative_path(self):
        with pytest.raises(URLError):
            URL("h", 80, "relative.html")

    def test_same_server(self):
        a = parse_url("http://h:81/x")
        assert a.same_server(parse_url("http://h:81/y"))
        assert not a.same_server(parse_url("http://h:82/x"))
        assert not a.same_server(parse_url("http://g:81/x"))


class TestJoin:
    BASE = parse_url("http://host/dir/page.html")

    def test_absolute_url(self):
        joined = join_url(self.BASE, "http://other:81/x.html")
        assert str(joined) == "http://other:81/x.html"

    def test_absolute_path(self):
        assert join_url(self.BASE, "/top.html").path == "/top.html"

    def test_relative_sibling(self):
        assert join_url(self.BASE, "img/x.gif").path == "/dir/img/x.gif"

    def test_relative_parent(self):
        assert join_url(self.BASE, "../up.html").path == "/up.html"

    def test_parent_never_escapes_root(self):
        assert join_url(self.BASE, "../../../../x.html").path == "/x.html"

    def test_dot_segments(self):
        assert join_url(self.BASE, "./same.html").path == "/dir/same.html"

    def test_fragment_only_points_to_base(self):
        joined = join_url(self.BASE, "#section2")
        assert joined.path == self.BASE.path

    def test_query_reference(self):
        joined = join_url(self.BASE, "cgi?x=1")
        assert joined.path == "/dir/cgi"
        assert joined.query == "x=1"

    def test_protocol_relative(self):
        joined = join_url(self.BASE, "//other/x.html")
        assert (joined.host, joined.path) == ("other", "/x.html")

    def test_keeps_base_server_for_relative(self):
        base = parse_url("http://h:8080/a/b.html")
        joined = join_url(base, "c.html")
        assert (joined.host, joined.port) == ("h", 8080)


class TestPathHelpers:
    def test_split_path(self):
        assert split_path("/a/b/c.html") == ["a", "b", "c.html"]
        assert split_path("/") == []
        assert split_path("/a//b/") == ["a", "b"]

    def test_split_path_requires_absolute(self):
        with pytest.raises(URLError):
            split_path("a/b")

    def test_normalize_path(self):
        assert normalize_path("/a/./b/../c") == "/a/c"
        assert normalize_path("/../x") == "/x"
        assert normalize_path("/a/b/") == "/a/b/"
        assert normalize_path("/") == "/"

    @pytest.mark.parametrize("path, expected", [
        # Nothing to resolve: returned as it came.
        ("/a/b.html", "/a/b.html"), ("/a/b..", "/a/b.."),
        ("/a.b/c..d/", "/a.b/c..d/"), ("/~migrate/h/80/x", "/~migrate/h/80/x"),
        # Anything that might hold an empty or dot segment: resolved.
        ("/a//b", "/a/b"), ("//", "/"), ("/a/.", "/a"), ("/a/..", "/"),
        ("/.hidden", "/.hidden"), ("/a/..b", "/a/..b"), ("/a/./", "/a/"),
        ("/a/b/../", "/a/"), ("/./a", "/a"),
    ])
    def test_normalize_path_shortcut_agrees_with_the_walk(self, path,
                                                          expected):
        assert normalize_path(path) == expected
        assert normalize_path(expected) == expected

    def test_strip_fragment(self):
        assert strip_fragment("a.html#top") == "a.html"
        assert strip_fragment("a.html") == "a.html"
        assert strip_fragment("#only") == ""


class TestQueryOnlyReference:
    """Regression: join_url dropped the new query of a '?a=1' reference."""

    BASE = parse_url("http://host/dir/page.html?old=0")

    def test_query_only_replaces_query(self):
        joined = join_url(self.BASE, "?page=2")
        assert joined.path == self.BASE.path
        assert joined.query == "page=2"

    def test_query_only_empty_query(self):
        joined = join_url(self.BASE, "?")
        assert joined.path == self.BASE.path
        assert joined.query == ""

    def test_empty_reference_keeps_base_query(self):
        joined = join_url(self.BASE, "")
        assert joined.query == "old=0"

    def test_fragment_only_keeps_base_query(self):
        joined = join_url(self.BASE, "#top")
        assert joined.query == "old=0"


class TestHostCaseInsensitivity:
    """Regression: same_server compared hosts case-sensitively."""

    def test_parse_lowercases_host(self):
        assert parse_url("http://HOST.Example:81/x").host == "host.example"

    def test_construction_lowercases_host(self):
        assert URL("HOST.Example", 81).host == "host.example"

    def test_same_server_mixed_case(self):
        a = parse_url("http://HOST.example:80/x")
        b = parse_url("http://host.EXAMPLE:80/y")
        assert a.same_server(b)

    def test_path_case_preserved(self):
        url = parse_url("http://HOST/Dir/Page.HTML")
        assert url.path == "/Dir/Page.HTML"
