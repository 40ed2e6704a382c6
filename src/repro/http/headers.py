"""Case-insensitive, multi-valued HTTP header collection.

HTTP header field names are case-insensitive (RFC 2616 section 4.2) and a
field may appear multiple times.  :class:`Headers` preserves the original
casing and insertion order for serialization while indexing lookups by the
lower-cased name.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import HTTPError

# Characters permitted in an HTTP token (RFC 2616 section 2.2): any CHAR
# except control characters and separators.
_SEPARATORS = set('()<>@,;:\\"/[]?={} \t')


# Header names repeat constantly (Content-Type, Content-Length, X-DCWS-*),
# so each name is validated and lower-cased once: the cache maps a name
# to its folded key, or to "" when it is not a token.  It is bounded to
# keep a hostile stream of unique names from growing it without limit.
_TOKEN_CACHE: dict = {}
_TOKEN_CACHE_LIMIT = 4096


def _fold(name: str) -> str:
    """The lower-cased lookup key of *name*; ``""`` when *name* is not a
    token (no stored key is empty, so a lookup by it matches nothing)."""
    folded = _TOKEN_CACHE.get(name)
    if folded is not None:
        return folded
    folded = name.lower() if name else ""
    for ch in name:
        if ord(ch) < 32 or ord(ch) > 126 or ch in _SEPARATORS:
            folded = ""
            break
    if len(_TOKEN_CACHE) < _TOKEN_CACHE_LIMIT:
        _TOKEN_CACHE[name] = folded
    return folded


def _unbroken(value: str) -> str:
    """*value*, refused when it would break out of its header line."""
    if "\r" in value or "\n" in value:
        raise HTTPError(f"header value contains line break: {value!r}")
    return value


def _admits_gzip(value: str) -> bool:
    """Does an ``Accept-Encoding`` value admit gzip?  Its first ``gzip``
    or ``x-gzip`` token decides: q > 0, a malformed q counting as 0."""
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


#: The fields the serve path asks about, by folded name (``X-DCWS-*``:
#: see :mod:`repro.http.piggyback`, :mod:`repro.server.engine`), and the
#: fact each feeds.
_ASKED = {
    "connection": "tokens", "accept-encoding": "gzip",
    "x-dcws-sender": "sender", "x-dcws-purpose": "peer",
    "x-dcws-version": "peer", "range": "ranged",
    "if-none-match": "conditional", "if-modified-since": "conditional",
    "content-length": "framed"}


class _Facts:
    """What the serve path asks of one field list, answered in one pass
    over it — the one place ``Connection`` tokens and the
    ``Accept-Encoding`` list are interpreted.

    ``close``/``keep_alive``: any ``Connection`` field lists the token.
    ``gzip``: the *first* ``Accept-Encoding`` field admits it.
    ``sender``: the first ``X-DCWS-Sender`` value, else ``""``; ``peer``:
    it is not empty, or an ``X-DCWS-Purpose``/``-Version`` field exists.
    ``ranged``, ``conditional`` (``If-None-Match``/``If-Modified-Since``),
    ``framed`` (``Content-Length``): such a field is present, even empty.
    """

    __slots__ = ("close", "keep_alive", "gzip", "sender", "peer", "ranged",
                 "conditional", "framed")

    def __init__(self, items: List[Tuple[str, str, str]]) -> None:
        self.close = self.keep_alive = self.peer = False
        self.ranged = self.conditional = self.framed = False
        sender = encodings = None
        for folded, __, value in items:
            fact = _ASKED.get(folded)
            if fact is None:
                continue
            if fact == "tokens":
                for part in value.split(","):
                    token = part.strip().lower()
                    if token == "close":
                        self.close = True
                    elif token == "keep-alive":
                        self.keep_alive = True
            elif fact == "gzip":
                if encodings is None:
                    encodings = value
            elif fact == "sender":
                if sender is None:
                    sender = value
            else:
                setattr(self, fact, True)
        self.gzip = bool(encodings) and _admits_gzip(encodings)
        self.sender = sender or ""
        self.peer = self.peer or bool(sender)


class Headers:
    """An ordered, case-insensitive multimap of HTTP header fields.

    >>> h = Headers()
    >>> h.add("Content-Type", "text/html")
    >>> h.get("content-type")
    'text/html'

    Each field is stored ``(folded, name, value)``: ``folded`` is the
    lower-cased token every lookup compares, ``name`` the casing that is
    serialized.  The invariant — ``folded`` is a valid token's folding
    and ``value`` holds no CR or LF — is established where a field
    enters (:meth:`add`, and the continuation arm of
    :meth:`parse_lines`) and nowhere else, so :meth:`copy` shares the
    tuples instead of validating them again.  The answers the serve
    path wants of a message (:meth:`facts`) are derived at most once per
    mutation, and a copy starts with its original's.
    """

    __slots__ = ("_items", "_facts")

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str, str]] = []
        self._facts: Optional[_Facts] = None
        if items is not None:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header field, keeping any existing fields of that name."""
        folded = _fold(name)
        if not folded:
            raise HTTPError(f"invalid header field name: {name!r}")
        self._items.append((folded, name, _unbroken(str(value).strip())))
        self._facts = None

    def set(self, name: str, value: str) -> None:
        """Replace every field named *name* with a single field."""
        self.remove(name)
        self.add(name, value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value for *name*, or *default* if absent."""
        key = _fold(name)
        for folded, __, value in self._items:
            if folded == key:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        """Return every value for *name* in insertion order."""
        key = _fold(name)
        return [value for folded, __, value in self._items if folded == key]

    def get_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """Return the first value for *name* parsed as an integer.

        The parse is strict (RFC 7230 framing rules): plain ASCII digits
        only.  ``int()`` would accept ``"+5"``, ``" 5 "`` and ``"1_0"`` —
        nonconforming values other servers reject, and exactly the kind
        of divergence request smuggling exploits.
        """
        raw = self.get(name)
        if raw is None:
            return default
        if not (raw.isascii() and raw.isdigit()):
            raise HTTPError(f"header {name} is not an integer: {raw!r}")
        return int(raw)

    def remove(self, name: str) -> int:
        """Delete every field named *name*; return how many were removed."""
        key = _fold(name)
        kept = [item for item in self._items if item[0] != key]
        removed = len(self._items) - len(kept)
        if removed:
            self._items = kept
            self._facts = None
        return removed

    def items(self) -> Iterator[Tuple[str, str]]:
        return ((name, value) for __, name, value in self._items)

    def copy(self) -> "Headers":
        clone = Headers()
        clone._items = self._items.copy()
        clone._facts = self._facts
        return clone

    def serialize(self) -> str:
        """Render the fields as CRLF-terminated lines (no trailing blank)."""
        return "".join(f"{name}: {value}\r\n" for __, name, value in self._items)

    def serialize_bytes(self) -> bytes:
        """:meth:`serialize` in latin-1."""
        return self.serialize().encode("latin-1")

    def facts(self) -> _Facts:
        """These fields' :class:`_Facts`, worked out once per mutation."""
        facts = self._facts
        if facts is None:
            facts = self._facts = _Facts(self._items)
        return facts

    @classmethod
    def parse_lines(cls, lines: Iterable[str]) -> "Headers":
        """Build a collection from ``Name: value`` lines.

        Continuation lines (obsolete line folding, leading whitespace) are
        appended to the previous field's value.
        """
        headers = cls()
        for line in lines:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line[0] in " \t":
                if not headers._items:
                    raise HTTPError("continuation line before any header field")
                folded, name, value = headers._items[-1]
                # Stripped like every value ``add`` stores: a blank fold
                # must not leave outer whitespace for ``copy`` to share.
                headers._items[-1] = (
                    folded, name,
                    _unbroken((value + " " + line.strip()).strip()))
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HTTPError(f"malformed header line: {line!r}")
            if name != name.rstrip(" \t"):
                # RFC 7230 section 3.2.4: whitespace between the field
                # name and the colon is a smuggling-adjacent ambiguity —
                # reject rather than repair.
                raise HTTPError(
                    f"whitespace before colon in header name: {line!r}")
            headers.add(name, value)
        return headers

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.get(name) is not None

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        mine = [(folded, value) for folded, __, value in self._items]
        theirs = [(folded, value) for folded, __, value in other._items]
        return mine == theirs

    def __repr__(self) -> str:
        return f"Headers({list(self.items())!r})"
