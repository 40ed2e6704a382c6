"""Unit tests for the tolerant HTML tokenizer."""

from repro.html.tokenizer import (
    Comment,
    Doctype,
    EndTag,
    StartTag,
    TextToken,
    escape_attribute,
    iter_tokens,
    unescape_entities,
)


def tokens_of(source):
    return list(iter_tokens(source))


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokens_of("<b>hi</b>")
        assert tokens == [StartTag("b"), TextToken("hi"), EndTag("b")]

    def test_text_only(self):
        assert tokens_of("plain text") == [TextToken("plain text")]

    def test_tag_names_lowercased(self):
        tokens = tokens_of("<IMG SRC='x.gif'>")
        assert tokens[0].name == "img"
        assert tokens[0].attrs == [("src", "x.gif")]

    def test_comment(self):
        tokens = tokens_of("<!-- note -->")
        assert tokens == [Comment(" note ")]

    def test_doctype(self):
        tokens = tokens_of("<!DOCTYPE html><p>x")
        assert isinstance(tokens[0], Doctype)
        assert tokens[0].data == "DOCTYPE html"

    def test_self_closing(self):
        tokens = tokens_of("<br/>")
        assert tokens[0].self_closing is True


class TestAttributes:
    def test_double_quoted(self):
        tag = tokens_of('<a href="x.html">')[0]
        assert tag.get_attr("href") == "x.html"

    def test_single_quoted(self):
        tag = tokens_of("<a href='x.html'>")[0]
        assert tag.get_attr("href") == "x.html"

    def test_unquoted(self):
        tag = tokens_of("<a href=x.html target=_top>")[0]
        assert tag.get_attr("href") == "x.html"
        assert tag.get_attr("target") == "_top"

    def test_bare_attribute(self):
        tag = tokens_of("<input checked>")[0]
        assert tag.attrs == [("checked", None)]

    def test_attribute_names_lowercased(self):
        tag = tokens_of('<A HREF="x">')[0]
        assert tag.get_attr("href") == "x"

    def test_entity_in_attribute_unescaped(self):
        tag = tokens_of('<a href="cgi?a=1&amp;b=2">')[0]
        assert tag.get_attr("href") == "cgi?a=1&b=2"

    def test_set_attr_updates_in_place(self):
        tag = tokens_of('<a href="old" class="k">')[0]
        tag.set_attr("href", "new")
        assert tag.attrs == [("href", "new"), ("class", "k")]

    def test_set_attr_appends_when_missing(self):
        tag = tokens_of("<a>")[0]
        tag.set_attr("href", "x")
        assert tag.get_attr("href") == "x"

    def test_whitespace_between_attrs(self):
        tag = tokens_of('<a  href = "x"   class= y >')[0]
        assert tag.get_attr("href") == "x"
        assert tag.get_attr("class") == "y"


class TestRecovery:
    def test_stray_less_than_is_text(self):
        tokens = tokens_of("a < b")
        assert "".join(t.data for t in tokens
                       if isinstance(t, TextToken)) == "a < b"

    def test_unterminated_tag_at_eof(self):
        tokens = tokens_of("<a href=")
        assert isinstance(tokens[0], StartTag)

    def test_unterminated_comment(self):
        tokens = tokens_of("<!-- never closed")
        assert tokens == [Comment(" never closed")]

    def test_empty_end_tag_recovered_as_text(self):
        tokens = tokens_of("x</>y")
        text = "".join(t.data for t in tokens if isinstance(t, TextToken))
        assert "x" in text and "y" in text

    def test_stray_slash_in_tag(self):
        tag = tokens_of("<a / href='x'>")[0]
        assert tag.get_attr("href") == "x"


class TestRawText:
    def test_script_content_not_tokenized(self):
        tokens = tokens_of("<script>if (a<b) x();</script>")
        assert tokens[0] == StartTag("script")
        assert tokens[1] == TextToken("if (a<b) x();")
        assert tokens[2] == EndTag("script")

    def test_style_content_not_tokenized(self):
        tokens = tokens_of("<style>a > b {}</style>")
        assert tokens[1] == TextToken("a > b {}")

    def test_unclosed_script_runs_to_eof(self):
        tokens = tokens_of("<script>var x = 1;")
        assert tokens[-1] == TextToken("var x = 1;")


class TestEntities:
    def test_named(self):
        assert unescape_entities("a&amp;b") == "a&b"
        assert unescape_entities("&lt;&gt;&quot;") == '<>"'

    def test_numeric(self):
        assert unescape_entities("&#65;") == "A"
        assert unescape_entities("&#x41;") == "A"

    def test_unknown_left_alone(self):
        assert unescape_entities("&bogus;") == "&bogus;"

    def test_bare_ampersand(self):
        assert unescape_entities("fish & chips") == "fish & chips"

    def test_no_ampersand_fast_path(self):
        assert unescape_entities("plain") == "plain"

    def test_escape_attribute(self):
        assert escape_attribute('a&"b') == "a&amp;&quot;b"
