"""Property: ``serialize_head() + body`` is byte-identical to
``serialize()`` for every response.

The zero-copy send paths (``socket.sendmsg([head, body])`` gather
writes, ``serialize_head()`` + ``os.sendfile`` for disk-backed bodies)
rely on this split never changing a single wire byte relative to the
monolithic serializer.
"""

from hypothesis import given, settings, strategies as st

from repro.http.headers import Headers
from repro.http.messages import Response

_status = st.sampled_from([200, 204, 206, 301, 302, 304, 400, 404, 416,
                           500, 503])
_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1,
                 max_size=12)
_value = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 /=;,.:+-\"",
    max_size=24)
_body = st.binary(max_size=512)


@st.composite
def responses(draw):
    headers = Headers()
    for __ in range(draw(st.integers(0, 6))):
        headers.add(draw(_token).title(), draw(_value))
    if draw(st.booleans()):
        # Exercise both the caller-supplied and the synthesized
        # Content-Length branches of serialize_head().
        headers.set("Content-Length", str(draw(st.integers(0, 10_000))))
    return Response(status=draw(_status), headers=headers, body=draw(_body))


@settings(max_examples=200, deadline=None)
@given(responses())
def test_head_plus_body_equals_serialize(response):
    assert response.serialize_head() + response.body == response.serialize()


@settings(max_examples=50, deadline=None)
@given(responses())
def test_head_ends_with_blank_line_and_has_no_body_bytes(response):
    head = response.serialize_head()
    assert head.endswith(b"\r\n\r\n")
    # The head is pure status line + headers: parsing it back as latin-1
    # text must succeed and contain the status line.
    text = head.decode("latin-1")
    assert text.startswith(f"{response.version} {response.status} ")


@settings(max_examples=50, deadline=None)
@given(responses())
def test_serialize_head_is_idempotent(response):
    # First call may synthesize Content-Length into the header map;
    # the second call must produce the identical bytes.
    assert response.serialize_head() == response.serialize_head()


# -- the field block is memoised: no stale bytes, no shared state -------

_mutation = st.one_of(
    st.tuples(st.just("add"), _token.map(str.title), _value),
    st.tuples(st.just("set"), _token.map(str.title), _value),
    st.tuples(st.just("set"), st.just("Connection"),
              st.sampled_from(["close", "keep-alive"])),
    st.tuples(st.just("remove"), _token.map(str.title)),
    st.tuples(st.just("remove"), st.sampled_from(["Content-Length",
                                                  "content-length"])),
)


def rebuilt(response):
    """*response* built again from nothing but its visible fields."""
    return Response(status=response.status,
                    headers=Headers(response.headers.items()),
                    body=response.body, version=response.version)


def mutate(headers, mutation):
    kind, *args = mutation
    getattr(headers, kind)(*args)


@settings(max_examples=200, deadline=None)
@given(responses(), st.lists(_mutation, max_size=5))
def test_serialize_mutate_serialize_equals_a_fresh_response(response,
                                                            mutations):
    assert response.serialize_head() == rebuilt(response).serialize_head()
    for mutation in mutations:
        mutate(response.headers, mutation)
        assert response.serialize_head() == \
            rebuilt(response).serialize_head(), mutation
    assert response.serialize_head() + response.body == response.serialize()


@settings(max_examples=200, deadline=None)
@given(responses(), st.lists(st.tuples(st.booleans(), _mutation),
                             max_size=5))
def test_a_copy_serializes_like_its_original_until_one_changes(response,
                                                               steps):
    response.serialize_head()       # the copy starts with a warm block
    twin = Response(status=response.status, headers=response.headers.copy(),
                    body=response.body, version=response.version)
    assert twin.serialize_head() == response.serialize_head()
    for on_twin, mutation in steps:
        changed, kept = (twin, response) if on_twin else (response, twin)
        before = kept.serialize_head()
        mutate(changed.headers, mutation)
        assert kept.serialize_head() == before, mutation
        assert changed.serialize_head() == rebuilt(changed).serialize_head()
