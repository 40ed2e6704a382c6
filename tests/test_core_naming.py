"""Unit tests for the ~migrate naming convention (paper section 3.4)."""

import pytest

from repro.core.document import Location
from repro.core.naming import (
    _home_fallback,
    decode_migrated_path,
    encode_migrated_path,
    home_url,
    is_migrated_path,
    migrated_url,
)
from repro.errors import NamingError

HOME = Location("www.cs.arizona.edu", 80)
COOP = Location("coop.example.org", 8080)


class TestEncodeDecode:
    def test_paper_example(self):
        encoded = encode_migrated_path(HOME, "/dir1/dir2/foo.html")
        assert encoded == "/~migrate/www.cs.arizona.edu/80/dir1/dir2/foo.html"

    def test_round_trip(self):
        for path in ("/a.html", "/x/y/z.gif", "/deep/ly/nested/doc.html"):
            home, original = decode_migrated_path(
                encode_migrated_path(HOME, path))
            assert home == HOME
            assert original == path

    def test_nonstandard_port_round_trip(self):
        home = Location("h", 8123)
        decoded_home, path = decode_migrated_path(
            encode_migrated_path(home, "/doc.html"))
        assert decoded_home == home
        assert path == "/doc.html"

    def test_encode_rejects_relative(self):
        with pytest.raises(NamingError):
            encode_migrated_path(HOME, "doc.html")

    def test_encode_rejects_double_encoding(self):
        encoded = encode_migrated_path(HOME, "/a.html")
        with pytest.raises(NamingError):
            encode_migrated_path(COOP, encoded)

    @pytest.mark.parametrize("bad", [
        "/a.html",                      # not migrated form
        "/~migrate/host",               # too short
        "/~migrate/host/80",            # no document path
        "/~migrate/host/notaport/a.html",
        "/~migrate/host/99999/a.html",  # port out of range
    ])
    def test_decode_rejects_malformed(self, bad):
        with pytest.raises(NamingError):
            decode_migrated_path(bad)

    def test_is_migrated_path(self):
        assert is_migrated_path("/~migrate/h/80/a.html")
        assert not is_migrated_path("/a.html")
        assert not is_migrated_path("/dir/~migrate/h/80/a.html")


class TestUrls:
    def test_migrated_url(self):
        url = migrated_url(COOP, HOME, "/a/b.html")
        assert str(url) == ("http://coop.example.org:8080/~migrate/"
                            "www.cs.arizona.edu/80/a/b.html")

    def test_home_url(self):
        assert str(home_url(HOME, "/a.html")) == \
            "http://www.cs.arizona.edu/a.html"

    def test_location_parse_and_str(self):
        location = Location.parse("host:8042")
        assert location == Location("host", 8042)
        assert str(location) == "host:8042"

    def test_equal_but_distinct_locations_compare_equal_and_hash_alike(self):
        first, second = Location("host", 8042), Location.parse("host:8042")
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second) == hash(("host", 8042))
        assert {first: "row"}[second] == "row"
        assert first != Location("host", 8043)
        assert first != Location("other", 8042)
        assert first != "host:8042" and first != ("host", 8042)

    def test_location_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            Location.parse("hostonly")
        with pytest.raises(ValueError):
            Location.parse(":80")


class TestHomeFallback:
    def test_a_migrated_url_falls_back_to_its_home(self):
        url = migrated_url(COOP, HOME, "/a/b.html")
        assert _home_fallback(url) == home_url(HOME, "/a/b.html")

    def test_a_plain_url_has_no_fallback(self):
        assert _home_fallback(home_url(HOME, "/a.html")) is None

    def test_a_home_that_is_the_server_asked_is_no_fallback(self):
        assert _home_fallback(migrated_url(HOME, HOME, "/a.html")) is None
