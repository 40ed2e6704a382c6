"""Model-based property: ``Headers`` behaves like the implementation it
replaced.

``ReferenceHeaders`` below is that implementation kept verbatim — a list
of ``(name, value)`` pairs, ``lower()`` on every lookup, a ``copy()``
that re-validates every field.  Hypothesis drives both through the same
sequence of operations; every result, every exception (type and text)
and the serialized form after every step must agree, and
``serialize_bytes()`` must always equal ``serialize()`` in latin-1.

Beside it, kept verbatim too, are the questions the serve path used to
put to a field list one lookup at a time — ``wants_keep_alive``,
``accepts_gzip``, ``extract_sender`` and five ``get(...) is not None``
presence checks (as of commit 294ec29).  ``Headers.facts()`` now answers
them from one memoised pass; after every step, on every collection, the
memoised answers must equal what the old code says of the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HTTPError
from repro.http.content import accepts_gzip
from repro.http.headers import Headers
from repro.http.messages import Request, wants_keep_alive
from repro.http.piggyback import extract_sender

_SEPARATORS = set('()<>@,;:\\"/[]?={} \t')


def _is_token(name):
    valid = bool(name)
    for ch in name:
        if ord(ch) < 32 or ord(ch) > 126 or ch in _SEPARATORS:
            valid = False
            break
    return valid


class ReferenceHeaders:
    """``repro.http.headers.Headers`` as of commit 4d42ce6."""

    def __init__(self, items=None):
        self._items = []
        if items is not None:
            for name, value in items:
                self.add(name, value)

    def add(self, name, value):
        if not _is_token(name):
            raise HTTPError(f"invalid header field name: {name!r}")
        value = str(value).strip()
        if "\r" in value or "\n" in value:
            raise HTTPError(f"header value contains line break: {value!r}")
        self._items.append((name, value))

    def set(self, name, value):
        self.remove(name)
        self.add(name, value)

    def get(self, name, default=None):
        key = name.lower()
        for item_name, item_value in self._items:
            if item_name.lower() == key:
                return item_value
        return default

    def get_all(self, name):
        key = name.lower()
        return [v for n, v in self._items if n.lower() == key]

    def get_int(self, name, default=None):
        raw = self.get(name)
        if raw is None:
            return default
        if not (raw.isascii() and raw.isdigit()):
            raise HTTPError(f"header {name} is not an integer: {raw!r}")
        return int(raw)

    def has_token(self, name, token):
        wanted = token.lower()
        for value in self.get_all(name):
            for part in value.split(","):
                if part.strip().lower() == wanted:
                    return True
        return False

    def remove(self, name):
        key = name.lower()
        before = len(self._items)
        self._items = [(n, v) for n, v in self._items if n.lower() != key]
        return before - len(self._items)

    def items(self):
        return iter(self._items)

    def copy(self):
        return ReferenceHeaders(self._items)

    def serialize(self):
        return "".join(f"{name}: {value}\r\n" for name, value in self._items)

    @classmethod
    def parse_lines(cls, lines):
        headers = cls()
        for line in lines:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line[0] in " \t":
                if not headers._items:
                    raise HTTPError("continuation line before any header field")
                name, value = headers._items[-1]
                # The one line that is not verbatim: 4d42ce6 kept the
                # outer blank a whitespace-only fold leaves ("5 ", " x")
                # until the next copy() re-added and stripped it; both
                # sides now strip at the fold.
                headers._items[-1] = (
                    name, (value + " " + line.strip()).strip())
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HTTPError(f"malformed header line: {line!r}")
            if name != name.rstrip(" \t"):
                raise HTTPError(
                    f"whitespace before colon in header name: {line!r}")
            headers.add(name, value)
        return headers

    def __contains__(self, name):
        return isinstance(name, str) and self.get(name) is not None

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        if not isinstance(other, ReferenceHeaders):
            return NotImplemented
        mine = [(n.lower(), v) for n, v in self._items]
        theirs = [(n.lower(), v) for n, v in other._items]
        return mine == theirs


def old_wants_keep_alive(version, headers):
    """``repro.http.messages.wants_keep_alive`` as of commit 294ec29."""
    keep = version == "HTTP/1.1"
    for value in headers.get_all("Connection"):
        for part in value.split(","):
            token = part.strip().lower()
            if token == "close":
                return False
            if token == "keep-alive":
                keep = True
    return keep


def old_accepts_gzip(headers):
    """``repro.http.content.accepts_gzip`` as of commit 294ec29."""
    value = headers.get("Accept-Encoding")
    if not value:
        return False
    for part in value.split(","):
        token, __, params = part.partition(";")
        if token.strip().lower() not in ("gzip", "x-gzip"):
            continue
        quality = 1.0
        params = params.strip().lower()
        if params.startswith("q="):
            try:
                quality = float(params[2:])
            except ValueError:
                quality = 0.0
        return quality > 0.0
    return False


def old_extract_sender(headers):
    """``repro.http.piggyback.extract_sender`` as of commit 294ec29."""
    return headers.get("X-DCWS-Sender", "") or ""


def old_answers(headers):
    """What the serve path of commit 294ec29 learnt of *headers*, one
    lookup at a time: ``fast_lookup``'s peer, ``Range`` and conditional
    checks and ``serialize_head``'s ``Content-Length`` probe verbatim."""
    return {
        "persists_1_0": old_wants_keep_alive("HTTP/1.0", headers),
        "persists_1_1": old_wants_keep_alive("HTTP/1.1", headers),
        "gzip": old_accepts_gzip(headers),
        "sender": old_extract_sender(headers),
        "peer": bool(headers.get("X-DCWS-Purpose") is not None
                     or headers.get("X-DCWS-Version") is not None
                     or old_extract_sender(headers)),
        "ranged": headers.get("Range") is not None,
        "conditional": (headers.get("If-None-Match") is not None
                        or headers.get("If-Modified-Since") is not None),
        "framed": "content-length" in headers,
    }


def memoised_answers(headers):
    """The same questions, put the way the serve path now puts them."""
    facts = headers.facts()
    return {
        "persists_1_0": wants_keep_alive("HTTP/1.0", headers),
        "persists_1_1": wants_keep_alive("HTTP/1.1", headers),
        "gzip": accepts_gzip(headers),
        "sender": extract_sender(headers),
        "peer": facts.peer,
        "ranged": facts.ranged,
        "conditional": facts.conditional,
        "framed": facts.framed,
    }


# Few names, in several casings, so operations collide; some are not
# tokens at all.
_names = st.sampled_from([
    "Content-Length", "content-length", "CONTENT-LENGTH", "Connection",
    "connection", "X-A", "x-a", "X-B", "Keep-Alive", "ETag", "etag",
    "Accept-Encoding", "accept-encoding", "X-DCWS-Sender", "x-dcws-sender",
    "X-DCWS-Purpose", "X-DCWS-Version", "Range", "If-None-Match",
    "if-modified-since",
    "", "bad name", "a:b", "tab\there", "café", "del\x7f", "(paren)"])
_values = st.one_of(
    st.sampled_from(["close", "keep-alive", "Keep-Alive, Upgrade", "0", "42",
                     "+5", " 7 ", "1_0", "٣", "", "  padded  ",
                     "line\rbreak", "line\nbreak", "timeout=5, max=100",
                     "keep-alive, close", "Close , Keep-Alive", "gzip",
                     "gzip;q=0", "identity, x-gzip; Q=0.5", "gzip;q=abc",
                     "gzip;q=0, gzip", "deflate, gzipped", "home:8001"]),
    st.text(alphabet="abcXYZ019 ,;=-\"/", max_size=12),
    st.integers(0, 99999))
_slot = st.integers(0, 7)

# parse_lines input: field lines, folded continuations (blank ones
# too), and the malformed shapes the parser must reject.
_line_text = st.one_of(
    st.text(alphabet="abcXYZ019 ,;=-", max_size=10),
    st.sampled_from(["close", "keep-alive", "gzip", "gzip;q=0", ", close",
                     "home:8001"]))
_lines = st.lists(st.one_of(
    st.builds(lambda n, v: f"{n}: {v}", _names, _line_text),
    st.builds(lambda n, v: f"{n}:{v}\r\n", _names, _line_text),
    st.builds(lambda lead, v: f"{lead}{v}", st.sampled_from([" ", "\t", "  "]),
              _line_text),
    st.sampled_from(["", "\r\n", "no colon here", "X-A : spaced",
                     "X-B\t: tabbed", ":empty name"]),
), max_size=6)

_operations = st.lists(st.one_of(
    st.tuples(st.just("add"), _slot, _names, _values),
    st.tuples(st.just("set"), _slot, _names, _values),
    st.tuples(st.just("remove"), _slot, _names),
    st.tuples(st.just("get"), _slot, _names),
    st.tuples(st.just("get_default"), _slot, _names),
    st.tuples(st.just("get_all"), _slot, _names),
    st.tuples(st.just("get_int"), _slot, _names),
    st.tuples(st.just("connection"), _slot),
    st.tuples(st.just("contains"), _slot, _names),
    st.tuples(st.just("eq"), _slot, _slot),
    st.tuples(st.just("copy"), _slot),
    st.tuples(st.just("serialize_then"), _slot),
    st.tuples(st.just("parse_lines"), _lines),
    st.tuples(st.just("construct"), st.lists(st.tuples(_names, _values),
                                             max_size=4)),
), max_size=30)


def outcome(call):
    """What *call* did: its result, or the exception it raised."""
    try:
        return ("returned", call())
    except (HTTPError, UnicodeEncodeError) as exc:
        return ("raised", type(exc), str(exc))


def apply(kind, args, slots, make):
    """Run one operation against one implementation's *slots*; new
    collections (copies, parses) are appended for later steps to
    mutate on either side."""
    if kind == "parse_lines":
        result = outcome(lambda: make.parse_lines(args[0]))
    elif kind == "construct":
        result = outcome(lambda: make(args[0]))
    else:
        target = slots[args[0] % len(slots)]
        rest = args[1:]
        if kind in ("add", "set", "remove", "get", "get_all", "get_int"):
            return outcome(lambda: getattr(target, kind)(*rest))
        if kind == "connection":
            if isinstance(target, Headers):
                facts = target.facts()
                return ("returned", (facts.close, facts.keep_alive))
            return ("returned", (target.has_token("Connection", "close"),
                                 target.has_token("Connection", "keep-alive")))
        if kind == "get_default":
            return outcome(lambda: target.get(rest[0], "fallback"))
        if kind == "contains":
            return ("returned", (rest[0] in target, 7 in target))
        if kind == "eq":
            other = slots[rest[0] % len(slots)]
            return ("returned", (target == other, target != other,
                                 target == "not headers"))
        if kind == "serialize_then":
            # Fills the memo where there is one, so that later
            # mutations have something stale to invalidate.
            if isinstance(target, Headers):
                outcome(target.serialize_bytes)
            return ("returned", target.serialize())
        assert kind == "copy"
        result = outcome(target.copy)
    if result[0] == "returned":
        slots.append(result[1])
        return ("returned", "new collection")
    return result


@settings(max_examples=400, deadline=None)
@given(_operations)
def test_headers_match_the_reference_model(operations):
    ours, reference = [Headers()], [ReferenceHeaders()]
    for kind, *args in operations:
        assert apply(kind, args, ours, Headers) == \
            apply(kind, args, reference, ReferenceHeaders), (kind, args)
        assert len(ours) == len(reference)
        for mine, model in zip(ours, reference):
            assert list(mine.items()) == list(model.items())
            assert len(mine) == len(model)
            assert mine.serialize() == model.serialize()
            # (A value latin-1 cannot carry raises from both.)
            assert outcome(mine.serialize_bytes) == \
                outcome(lambda: mine.serialize().encode("latin-1"))
            # Asked after every step, so every later mutation — of this
            # collection or of a copy that shares its record — has a
            # filled memo to drop.
            assert memoised_answers(mine) == old_answers(model), (kind, args)


def test_a_copy_renders_apart_from_its_original():
    original = Headers([("Content-Type", "text/html"), ("X-A", "1")])
    block = original.serialize_bytes()
    clone = original.copy()
    assert clone.serialize_bytes() == block
    clone.set("X-A", "2")
    assert original.serialize_bytes() == block
    assert clone.serialize_bytes() == b"Content-Type: text/html\r\nX-A: 2\r\n"
    original.remove("x-a")
    assert original.serialize_bytes() == b"Content-Type: text/html\r\n"
    assert clone.get("X-A") == "2"


def test_removing_an_absent_name_keeps_the_facts():
    headers = Headers([("X-A", "1")])
    facts = headers.facts()
    assert headers.remove("X-B") == 0
    assert headers.facts() is facts
    assert headers.serialize_bytes() == b"X-A: 1\r\n"


def test_bare_line_break_inside_a_continuation_is_rejected():
    """The one input on which ``parse_lines`` is stricter than the
    reference, on purpose: a folded value passes the line-break check a
    field value passes, because ``copy()`` no longer runs it a second
    time (the reference stored these unchecked and raised from its own
    ``copy()`` instead)."""
    lines = ["X-A: value", " more\rX-Smuggled: 1"]
    with pytest.raises(HTTPError):
        Headers.parse_lines(lines)
    with pytest.raises(HTTPError):
        ReferenceHeaders.parse_lines(lines).copy()


def both(*fields):
    """*fields* in the reference and in ``Headers``, old answers checked
    against the memoised ones; returns the latter."""
    answers = memoised_answers(Headers(fields))
    assert answers == old_answers(ReferenceHeaders(fields))
    return answers


def test_any_close_wins_over_any_keep_alive_whatever_the_order():
    for fields in ([("Connection", "close"), ("Connection", "keep-alive")],
                   [("Connection", "keep-alive"), ("Connection", "close")],
                   [("Connection", "keep-alive, close")],
                   [("connection", "Upgrade, CLOSE , Keep-Alive")]):
        answers = both(*fields)
        assert not answers["persists_1_0"] and not answers["persists_1_1"]


def test_http_1_0_and_1_1_defaults():
    assert both()["persists_1_1"] and not both()["persists_1_0"]
    kept = both(("Connection", "Keep-Alive"))
    assert kept["persists_1_0"] and kept["persists_1_1"]
    other = both(("Connection", "upgrade"))
    assert other["persists_1_1"] and not other["persists_1_0"]


def test_only_the_first_accept_encoding_field_and_its_first_gzip_token():
    assert both(("Accept-Encoding", "gzip"))["gzip"]
    assert both(("Accept-Encoding", "deflate, X-GZIP;q=0.1"))["gzip"]
    assert not both(("Accept-Encoding", "identity"),
                    ("Accept-Encoding", "gzip"))["gzip"]
    assert not both(("Accept-Encoding", ""),
                    ("Accept-Encoding", "gzip"))["gzip"]
    assert not both(("Accept-Encoding", "gzip;q=0, gzip"))["gzip"]
    assert not both(("Accept-Encoding", "gzip;q=0.0"))["gzip"]
    assert not both(("Accept-Encoding", "gzip;q=high"))["gzip"]
    assert both(("Accept-Encoding", "gzip;level=9"))["gzip"]


def test_an_empty_sender_is_no_peer_but_other_empty_fields_are_present():
    assert not both(("X-DCWS-Sender", ""))["peer"]
    assert not both(("X-DCWS-Sender", ""),
                    ("X-DCWS-Sender", "home:8001"))["peer"]
    named = both(("X-DCWS-Sender", "home:8001"), ("X-DCWS-Sender", ""))
    assert named["peer"] and named["sender"] == "home:8001"
    assert both(("X-DCWS-Purpose", ""))["peer"]
    assert both(("X-DCWS-Version", ""))["peer"]
    assert both(("Range", ""))["ranged"]
    assert both(("If-None-Match", ""))["conditional"]
    assert both(("If-Modified-Since", ""))["conditional"]
    assert both(("Content-Length", ""))["framed"]
    plain = both(("Host", "h"), ("Accept", "*/*"))
    assert not any(plain[key] for key in
                   ("peer", "ranged", "conditional", "framed", "gzip"))


def test_a_copy_shares_the_facts_until_either_side_changes():
    original = Headers([("Connection", "keep-alive")])
    facts = original.facts()
    clone = original.copy()
    assert clone.facts() is facts
    clone.set("Connection", "close")
    assert original.facts() is facts and not facts.close
    assert clone.facts().close
    original.add("Range", "bytes=0-1")
    assert original.facts().ranged and not clone.facts().ranged


def test_a_reassigned_target_re_derives_the_route():
    request = Request(method="GET", target="/a/./b/../c.html?x=1")
    assert request.route == "/a/c.html"
    assert request.route is request.route       # worked out once
    request.target = "/other/../d.html"
    assert request.route == "/d.html"
    request.target = "/plain.html?query"
    assert request.route == "/plain.html"
