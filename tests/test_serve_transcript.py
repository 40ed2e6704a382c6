"""A golden transcript of the serve path, recorded before it was moved.

``tests/golden/serve_transcript.json`` was recorded at commit 0e9dbc1
(the parent of the change that routed every stored copy through
``DCWSEngine._serve_copy``): for each case below, every request's bytes,
the response head it got, the sha256 of the body, and afterwards the
engine's counters and per-document hits.  The replay must reproduce it
byte for byte — through the bare engine for every case, and through both
socket front ends for the cases that neither pull nor read the clock.

One difference is permitted, and by name: the first response after a
completed pull (steps flagged ``after_pull``).  The parent built it by
hand — no validators, no ``Vary``, no ``Accept-Ranges`` — where the
change serves it like every later request; the replay therefore holds
such a step to the head of the *next* identical request instead of the
recorded one, and still to the recorded status, body and counters.

Re-record (only ever at a commit whose wire is the reference) with
``PYTHONPATH=src python -m tests.test_serve_transcript``; add
``--case NAME`` (repeatable) to re-record only those cases, keeping
every other case's rows and every head id already recorded.
"""

import dataclasses
import hashlib
import itertools
import json
import pathlib
import socket
import time
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import (
    DCWS_EPOCH,
    DIGEST_HEADER,
    body_digest,
    etag_for,
    http_date,
)
from repro.http.messages import Request, Response
from repro.http.piggyback import SENDER_HEADER
from repro.http.wire import RequestParser
from repro.server.aio import AsyncDCWSServer
from repro.server.dispatch import serve
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    PURPOSE_HEADER,
    PullFromHome,
    VERSION_HEADER,
)
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.support import free_port

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serve_transcript.json"

# Loopback addresses nobody listens on: a periodic transfer that did
# fire under a socket host would be refused at once, never resolved.
HOME = Location("127.0.0.1", 8001)
COOP = Location("127.0.0.1", 8002)
COOP_2 = Location("127.0.0.1", 8003)

BIG, SMALL, IMAGE, NOTES, INDEX = \
    "/big.html", "/d.html", "/i.gif", "/notes.txt", "/index.html"
SITE = {
    INDEX: b'<html><a href="d.html">D</a><a href="big.html">B</a>'
           b'<a href="notes.txt">N</a></html>',
    BIG: b'<html><a href="index.html">up</a>'
         + b"<p>lorem ipsum dolor</p>" * 64 + b"</html>",
    SMALL: b'<html><a href="index.html">up</a></html>',
    IMAGE: b"GIF89a" + b"x" * 500,
    NOTES: b"remember the milk\n" * 64,
}
RASTER = "/raster.bin"
RASTER_BYTES = bytes(range(256)) * 1024         # sendfile-sized


def key_of(name: str) -> str:
    return f"/~migrate/{HOME.host}/{HOME.port}{name}"


# -- the request matrix ----------------------------------------------------

CONNECTIONS = [("HTTP/1.1", None), ("HTTP/1.1", "close"),
               ("HTTP/1.0", None), ("HTTP/1.0", "keep-alive")]
LATER, EARLIER = http_date(DCWS_EPOCH + 10 ** 6), http_date(DCWS_EPOCH - 3600)


def conditionals(path: str, version: object) -> Dict[str, Dict[str, str]]:
    current, stale = etag_for(path, version), etag_for(path, "stale")
    return {
        "plain": {},
        "inm-match": {"If-None-Match": current},
        "inm-stale": {"If-None-Match": stale},
        "ims-later": {"If-Modified-Since": LATER},
        "ims-earlier": {"If-Modified-Since": EARLIER},
        "range-closed": {"Range": "bytes=6-25"},
        "range-suffix": {"Range": "bytes=-10"},
        "range-unsatisfiable": {"Range": "bytes=9999999-"},
        "range-malformed": {"Range": "bytes=abc"},
        "range+inm-match": {"Range": "bytes=0-9", "If-None-Match": current},
        "range+inm-stale": {"Range": "bytes=0-9", "If-None-Match": stale},
    }


FULL = list(itertools.product(
    ("GET", "HEAD"), CONNECTIONS, ("gzip", None),
    sorted(conditionals("", 0))))
REDUCED = list(itertools.product(
    ("GET", "HEAD"), (CONNECTIONS[0], CONNECTIONS[2]), ("gzip", None),
    ("plain", "inm-match", "inm-stale", "ims-later", "range-closed",
     "range+inm-match")))


def version_of(engine: DCWSEngine, path: str) -> object:
    hosted = engine.hosted.get(path)
    if hosted is not None:
        return hosted.version
    record = engine.graph.find(path)
    return record.version if record is not None else 0


def request_bytes(method: str, path: str, connection=CONNECTIONS[0],
                  encoding: Optional[str] = None,
                  headers: Optional[Dict[str, str]] = None) -> bytes:
    request = Request(method=method, target=path, version=connection[0])
    if connection[1]:
        request.headers.set("Connection", connection[1])
    if encoding:
        request.headers.set("Accept-Encoding", encoding)
    for name, value in (headers or {}).items():
        request.headers.set(name, value)
    return request.serialize()


@dataclasses.dataclass
class Step:
    """One request: *prepare* runs first under the host's lock, then
    *request* is built against the engine's state of that moment.  A
    request the engine answers with a pull is completed with
    ``upstream(pull)`` -> (home's response or None, complete_pull
    keywords)."""

    label: str
    request: Callable[[DCWSEngine], bytes]
    prepare: Optional[Callable[[DCWSEngine], None]] = None
    upstream: Optional[Callable[[PullFromHome], tuple]] = None
    after_pull: bool = False


def matrix(path: str, rows=REDUCED) -> List[Step]:
    steps = []
    for method, connection, encoding, name in rows:
        def build(engine, method=method, connection=connection,
                  encoding=encoding, name=name):
            headers = conditionals(path, version_of(engine, path))[name]
            return request_bytes(method, path, connection, encoding, headers)
        steps.append(Step(
            f"{method} {path} {connection[0]}/{connection[1]} "
            f"{encoding} {name}", build))
    return steps


def plain(path: str, *, method: str = "GET", prepare=None, upstream=None,
          after_pull: bool = False, label: str = "", **headers) -> Step:
    wire = request_bytes(method, path, headers=headers)
    return Step(label or f"{method} {path}", lambda engine: wire,
                prepare=prepare, upstream=upstream, after_pull=after_pull)


def peer(label: str, path: str, sender: Location, purpose: str,
         behind: Optional[int] = None, **extra) -> Step:
    """A server-to-server request; *behind* makes it carry the version
    the document had that many bumps ago."""
    def build(engine: DCWSEngine) -> bytes:
        headers = {SENDER_HEADER: str(sender), PURPOSE_HEADER: purpose,
                   **extra}
        if behind is not None:
            headers[VERSION_HEADER] = str(version_of(engine, path) - behind)
        return request_bytes("GET", path, headers=headers)
    return Step(label, build)


# -- engines -----------------------------------------------------------------

def home_engine(now: float = 0.0, store=None, **config) -> DCWSEngine:
    config.setdefault("stats_interval", 1e6)
    config.setdefault("pinger_interval", 1e6)
    config.setdefault("scrub_interval", 0.0)
    return DCWSEngine(HOME, ServerConfig(**config),
                      store if store is not None else MemoryStore(dict(SITE)),
                      entry_points=[INDEX], peers=[COOP, COOP_2])


def coop_engine(**config) -> DCWSEngine:
    config.setdefault("stats_interval", 1e6)
    config.setdefault("pinger_interval", 1e6)
    config.setdefault("validation_interval", 1e9)
    config.setdefault("scrub_interval", 0.0)
    return DCWSEngine(COOP, ServerConfig(**config),
                      MemoryStore({"/local.html": b"<html>coop</html>"}),
                      peers=[HOME])


def seed(engine: DCWSEngine, now: float) -> None:
    for version, name in enumerate((BIG, SMALL, IMAGE, NOTES), start=2):
        engine.seed_hosted(HOME, name, SITE[name], version, now)


def home_response(body: bytes, version: Optional[str] = "7",
                  content_type: str = "text/html", digest: bool = True):
    def upstream(pull: PullFromHome):
        response = Response(status=200, body=body)
        response.headers.set("Content-Type", content_type)
        if version is not None:
            response.headers.set(VERSION_HEADER, version)
        if digest:
            response.headers.set(DIGEST_HEADER, body_digest(body))
        return response, {}
    return upstream


def rot(name: str) -> Callable[[DCWSEngine], None]:
    def flip(engine: DCWSEngine) -> None:
        good = engine.store.get(name)
        engine.store.put(name, bytes([good[0] ^ 0x20]) + good[1:])
        engine.response_cache.clear()
    return flip


def scrub(now: float) -> Callable[[DCWSEngine], None]:
    return lambda engine: engine.tick(now)


def then(*actions) -> Callable[[DCWSEngine], None]:
    def run(engine: DCWSEngine) -> None:
        for action in actions:
            action(engine)
    return run


# -- cases: name -> (engine factory, steps, runs through sockets too) -------

def migrate(name: str, target: Location = COOP):
    return lambda engine: engine.policy.force_migrate(name, target, now=0.0)


def replicate(name: str):
    return lambda engine: engine.policy.add_holder(name, COOP_2, 0.0,
                                                   kind="repair")


def update(name: str, data: bytes):
    return lambda engine: engine.update_document(name, data)


def with_first(steps: List[Step], prepare) -> List[Step]:
    steps[0].prepare = prepare
    return steps


def refresh(name: str, body: bytes, version: str):
    """A validation that came back 200 with new bytes."""
    def run(engine: DCWSEngine) -> None:
        from repro.server.engine import OutboundAction
        response, __ = home_response(body, version)(None)
        action = OutboundAction(kind="validate", peer=HOME,
                                request=Request(method="GET", target=name),
                                key=key_of(name))
        engine.complete_action(action, response, 0.5)
    return run


def open_circuit(peer: Location):
    """Fail transfers toward *peer* until its circuit opens, timed so
    the next request finds it open and the one after that is admitted
    (and its answer closes it again)."""
    def run(engine: DCWSEngine) -> None:
        table, key = engine.membership, str(peer)
        # Requests come one clock second apart; engine._clock is the last.
        at = engine._clock + 1.5 - table._backoff(key, 0)
        for __ in range(table.failure_limit):
            table.failure(key, at)
    return run


def lose_bytes(name: str):
    def run(engine: DCWSEngine) -> None:
        engine.store.delete(key_of(name))
        engine.response_cache.clear()
    return run


REVISED = SITE[BIG].replace(b"lorem", b"LOREM")


def home_cases(tmp: pathlib.Path):
    def disk_engine(now):
        root = tmp / "site"
        if not root.exists():
            store = DiskStore(str(root))
            for name, data in {**SITE, RASTER: RASTER_BYTES}.items():
                store.put(name, data)
        engine = home_engine(now, DiskStore(str(root)))
        engine.sendfile_enabled = True
        return engine

    return {
        "home-clean": (home_engine, matrix(BIG, FULL) + matrix(IMAGE)
                       + matrix(SMALL) + matrix(INDEX) + matrix(NOTES)
                       + [plain("/missing.html")], True),
        "home-updated": (home_engine, matrix(BIG)[:4] + with_first(
            matrix(BIG), update(BIG, REVISED)) + with_first(
            matrix(IMAGE), update(IMAGE, b"GIF89a" + b"y" * 300)), True),
        "home-migrated": (home_engine, matrix(INDEX)[:2] + with_first(
            matrix(INDEX), migrate(SMALL)) + matrix(SMALL) + [
            peer("assigned co-op pulls", SMALL, COOP, "migration-pull"),
            peer("assigned co-op validates, current", SMALL, COOP,
                 "validation", behind=0, **{"X-DCWS-Hosted-Hits": "5"}),
            peer("assigned co-op validates, behind", SMALL, COOP,
                 "validation", behind=1),
            peer("unassigned co-op validates", SMALL, COOP_2, "validation",
                 behind=0),
            peer("peer revalidates a home document", BIG, COOP, "validation",
                 **{"If-None-Match": etag_for(BIG, 0)}),
            peer("peer revalidation that misses", BIG, COOP, "validation",
                 **{"If-None-Match": etag_for(BIG, "stale")}),
            plain(key_of(SMALL), label="own migrated-form name"),
        ], True),
        "home-replicated": (
            lambda now: home_engine(now, replication_k=2),
            with_first(matrix(SMALL), then(migrate(SMALL), replicate(SMALL)))
            + matrix(INDEX), True),
        "home-quarantined": (
            lambda now: home_engine(now, scrub_interval=1.0, scrub_budget=16),
            with_first(matrix(IMAGE), then(rot(IMAGE), scrub(5.0)))
            + with_first(matrix(BIG), then(rot(BIG), scrub(10.0)))
            + with_first(matrix(NOTES)[:1], rot(NOTES))  # caught by the fill
            + matrix(NOTES), False),
        "home-overloaded": (home_engine, with_first(
            matrix(INDEX)[:4],
            then(migrate(SMALL),
                 lambda engine: setattr(engine, "overloaded", True)))
            + matrix(BIG)[:4], False),
        "home-sendfile": (disk_engine, matrix(RASTER) + matrix(BIG)
                          + matrix(IMAGE), False),
    }


def coop_cases():
    def seeded(**config):
        def make(now):
            engine = coop_engine(**config)
            engine.initialize(now)
            seed(engine, now)
            return engine
        return make

    new = key_of("/new.html")
    return {
        "coop-clean": (seeded(), matrix(key_of(BIG), FULL)
                       + matrix(key_of(IMAGE)) + matrix(key_of(SMALL))
                       + matrix(key_of(NOTES)) + matrix("/local.html"), True),
        "coop-refreshed": (seeded(), matrix(key_of(BIG))[:4] + with_first(
            matrix(key_of(BIG)), refresh(BIG, REVISED, "9")), True),
        "coop-pulls": (seeded(), [
            plain(new, upstream=home_response(b"<html>fresh</html>" * 20),
                  after_pull=True),
            *matrix(new),
            plain(key_of("/legacy.html"), after_pull=True,
                  upstream=home_response(b"<html>legacy</html>" * 20,
                                         version=None, digest=False)),
            *matrix(key_of("/legacy.html")),
            plain(key_of(BIG), prepare=lose_bytes(BIG), after_pull=True,
                  upstream=home_response(SITE[BIG], "2"),
                  label="missing bytes"),
            *matrix(key_of(BIG)),
            plain(key_of("/head.html"), method="HEAD", after_pull=True,
                  upstream=home_response(b"<html>head</html>")),
            plain(key_of("/moved.html"), upstream=lambda pull: (
                _redirect("http://127.0.0.1:8003/~migrate/127.0.0.1/8001"
                          "/moved.html"), {})),
            plain(key_of("/down.html"), upstream=lambda pull: (None, {})),
            plain(key_of("/open.html"), prepare=open_circuit(HOME)),
            plain(key_of("/gone.html"),
                  upstream=lambda pull: (Response(status=404), {})),
            plain(key_of("/sick.html"),
                  upstream=lambda pull: (Response(status=500), {})),
            plain(key_of("/torn.html"),
                  upstream=lambda pull: (None, {"corrupt": True})),
            plain(key_of("/lying.html"), upstream=lambda pull: (
                _mislabelled(b"<html>not what the digest says</html>"), {})),
            plain("/~migrate/nonsense"),
        ], False),
        "coop-rotten": (
            seeded(integrity_serve_sample=1, scrub_interval=1.0,
                   scrub_budget=16), [
            plain(key_of(BIG), prepare=rot(key_of(BIG)), after_pull=True,
                  upstream=home_response(SITE[BIG], "2"),
                  label="caught by the serve sample, re-pulled"),
            *matrix(key_of(BIG)),
            plain(key_of(IMAGE), after_pull=True,
                  prepare=then(rot(key_of(IMAGE)), scrub(5.0)),
                  upstream=home_response(SITE[IMAGE], "4", "image/gif"),
                  label="caught by the scrubber, re-pulled"),
            *matrix(key_of(IMAGE)),
        ], False),
        "coop-overloaded": (seeded(), [
            plain(new, prepare=lambda engine: setattr(
                engine, "overloaded", True)),
            *matrix(key_of(BIG))[:4]], False),
    }


def _redirect(location: str) -> Response:
    response = Response(status=301)
    response.headers.set("Location", location)
    return response


def _mislabelled(body: bytes) -> Response:
    response = Response(status=200, body=body)
    response.headers.set(DIGEST_HEADER, body_digest(b"something else"))
    return response


def all_cases(tmp: pathlib.Path):
    return {**home_cases(tmp), **coop_cases()}


# -- drivers -------------------------------------------------------------------

def body_of(response: Response) -> bytes:
    if response.body_file is not None:
        with open(response.body_file.path, "rb") as handle:
            return handle.read()
    return response.body


def books(engine: DCWSEngine) -> Dict[str, object]:
    stats = dataclasses.asdict(engine.stats)
    del stats["decisions"]
    return {
        "stats": stats,
        "record_hits": {record.name: record.hits
                        for record in engine.graph.documents()},
        "hosted_hits": {key: hosted.hits
                        for key, hosted in sorted(engine.hosted.items())},
    }


def through_engine(make, steps: List[Step]):
    """The hosts' :func:`serve` without a lock or the network: the warm
    route where it applies, the slow path where it does not, a pull
    completed with the step's canned answer."""
    engine = make(0.0)
    engine.initialize(0.0)
    clock = itertools.count(100)
    wires = []
    for step in steps:
        if step.prepare is not None:
            step.prepare(engine)
        wire = step.request(engine)
        parser = RequestParser()
        parser.feed(wire)
        (head, body), now = parser.next_head(), float(next(clock))
        reply = serve(engine, head, now, body=body,
                      overloaded=engine.overloaded)   # as prepared
        if isinstance(reply, tuple):                    # warm
            wires.append((wire, reply[0], reply[1]))
            continue
        if isinstance(reply, PullFromHome):
            assert step.upstream is not None, step.label
            response, keywords = step.upstream(reply)
            reply = engine.complete_pull(reply, response, now, **keywords)
        assert isinstance(reply, EngineReply), step.label
        wires.append((wire, reply.response.serialize_head(),
                      body_of(reply.response)))
    return wires, books(engine)


def through_sockets(server_cls, make, steps: List[Step]):
    engine = make(time.monotonic())
    server = server_cls(engine, bind_host="127.0.0.1")
    server.port = free_port()   # the engine keeps its recorded location
    wires = []
    with server:
        for step in steps:
            with server._lock:
                if step.prepare is not None:
                    step.prepare(engine)
                wire = step.request(engine)
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5.0) as sock:
                sock.sendall(wire)
                # Every flavour is read to its framed end, then the
                # connection is dropped: one request per connection
                # keeps the front end's own keep-alive cap out of it.
                received = b""
                while b"\r\n\r\n" not in received:
                    chunk = sock.recv(65536)
                    assert chunk, step.label
                    received += chunk
                head, __, body = received.partition(b"\r\n\r\n")
                head += b"\r\n\r\n"
                length = 0
                if not wire.startswith(b"HEAD") and head[9:12] != b"304":
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                while len(body) < length:
                    chunk = sock.recv(65536)
                    assert chunk, step.label
                    body += chunk
            wires.append((wire, head, body))
        with server._lock:
            booked = books(engine)
    return wires, booked


# -- record and replay --------------------------------------------------------------

def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:16]


def record(tmp: pathlib.Path, only: Sequence[str] = (),
           base: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Record every case, or only the cases named in *only* on top of
    the transcript *base*: its heads keep their ids (a new head is
    appended) and its other cases keep their rows."""
    base = base or {"heads": [], "cases": {}}
    heads: List[str] = list(base["heads"])
    index: Dict[str, int] = {text: i for i, text in enumerate(heads)}
    transcript: Dict[str, object] = dict(base["cases"])
    cases = all_cases(tmp)
    unknown = sorted(set(only) - set(cases))
    if unknown:
        raise SystemExit(f"no such case: {', '.join(unknown)}")
    for name, (make, steps, __) in cases.items():
        if only and name not in only:
            continue
        wires, booked = through_engine(make, steps)
        rows = []
        for step, (wire, head, body) in zip(steps, wires):
            text = head.decode("latin-1")
            if text not in index:
                index[text] = len(heads)
                heads.append(text)
            rows.append([wire.decode("latin-1"), index[text], digest(body)])
        transcript[name] = {"steps": rows, **booked}
    return {"heads": heads, "cases": transcript}


def dump(transcript: Dict[str, object]) -> str:
    """JSON with one head, one step and one book per line, so a
    re-recording diffs by the response that moved."""
    line = lambda value: json.dumps(value, sort_keys=True)
    cases = []
    for name, case in transcript["cases"].items():
        fields = [f'"{key}": {line(case[key])}'
                  for key in sorted(case) if key != "steps"]
        fields.append('"steps": [\n' + ",\n".join(
            line(row) for row in case["steps"]) + "\n]")
        cases.append(f'{line(name)}: {{\n' + ",\n".join(fields) + "\n}")
    return ('{"heads": [\n'
            + ",\n".join(line(head) for head in transcript["heads"])
            + '\n],\n"cases": {\n' + ",\n".join(cases) + "\n}}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def check(golden, name, steps, wires, booked):
    expected = golden["cases"][name]
    assert len(wires) == len(expected["steps"]) == len(steps)
    for position, (step, (wire, head, body), (sent, head_id, sha)) \
            in enumerate(zip(steps, wires, expected["steps"])):
        where = f"{name} #{position} {step.label}"
        assert wire.decode("latin-1") == sent, where
        assert digest(body) == sha, where
        recorded = golden["heads"][head_id]
        if step.after_pull:
            # The named exception: held to what the next request for
            # the same copy is answered, not to the parent's bare head.
            assert head.split(b"\r\n")[0].decode() == \
                recorded.split("\r\n")[0], where
            later = [h for w, h, __ in wires[position + 1:] if w == wire]
            if later:
                assert head == later[0], where
            for line in recorded.split("\r\n"):
                assert line.encode("latin-1") in head, (where, line)
        else:
            assert head.decode("latin-1") == recorded, where
    assert booked == {key: expected[key] for key in booked}, name


CASES = sorted(all_cases(pathlib.Path("/nonexistent")))


@pytest.mark.parametrize("name", CASES)
def test_bare_engine_replays_the_transcript(golden, tmp_path, name):
    make, steps, __ = all_cases(tmp_path)[name]
    wires, booked = through_engine(make, steps)
    check(golden, name, steps, wires, booked)


@pytest.mark.parametrize("server_cls", [ThreadedDCWSServer, AsyncDCWSServer])
@pytest.mark.parametrize("name", [
    name for name in CASES if all_cases(pathlib.Path("/nonexistent"))[name][2]])
def test_socket_front_ends_replay_the_transcript(golden, tmp_path, name,
                                                 server_cls):
    make, steps, __ = all_cases(tmp_path)[name]
    wires, booked = through_sockets(server_cls, make, steps)
    check(golden, name, steps, wires, booked)


def test_the_transcript_covers_what_it_claims(golden):
    statuses = {head.split(" ")[1] for head in golden["heads"]}
    # The 302 is a co-op's degraded pull sending its client home.
    assert statuses >= {"200", "206", "301", "302", "304", "404", "416",
                        "503"}
    assert sum(len(case["steps"]) for case in golden["cases"].values()) > 1000
    for fragment in ("Content-Encoding: gzip", "X-DCWS-Replicas: ",
                     "Content-Range: bytes */"):
        assert any(fragment in head for head in golden["heads"]), fragment


def test_re_recording_one_case_leaves_the_file_as_it_was(golden, tmp_path):
    assert dump(record(tmp_path, ["home-updated"], golden)) == \
        GOLDEN.read_text()
    with pytest.raises(SystemExit):
        record(tmp_path, ["no-such-case"], golden)


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="re-record the golden serve transcript")
    parser.add_argument("--case", action="append", default=[],
                        metavar="NAME", help="re-record only this case")
    only = parser.parse_args().case
    base = json.loads(GOLDEN.read_text()) if only else None
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(dump(record(pathlib.Path(scratch), only, base)))
    print(f"recorded {GOLDEN}" + (f" ({', '.join(only)})" if only else ""))
