"""Property tests: the peer ledger (membership state + circuit) keeps its
promises under any interleaving of outbound answers and misses, incoming
gossip, admissions, the tick's probe/retry upkeep, sweeps and clock
advances (stateful hypothesis test).
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.membership import (
    DEAD,
    SUSPECT,
    AccrualFailureDetector,
    MembershipTable,
)

PEERS = ["a:80", "b:80"]
REPROBE_INTERVAL = 1.0

_peer = st.sampled_from(PEERS)


def fresh_table() -> MembershipTable:
    table = MembershipTable(
        failure_limit=2, reprobe_interval=REPROBE_INTERVAL,
        reprobe_max_interval=4.0, reprobe_jitter=0.3,
        detector=AccrualFailureDetector(floor=0.5))
    table.register(PEERS[0], configured=True)   # re-probed while dead
    return table


def apply(table: MembershipTable, op: tuple, now: float) -> object:
    """One step against *table*; what the step returned."""
    kind, peer = op
    if kind == "answer":
        return table.heartbeat(peer, now, answered=True)
    if kind == "gossip":
        return table.heartbeat(peer, now)
    if kind == "miss":
        return table.failure(peer, now)
    if kind == "admit":
        return table.admit(peer, now)
    if kind == "mark_dead":
        return table.mark_dead(peer, now)
    if kind == "upkeep":
        return table.due_probes(now) + table.due_retries(now)
    return table.sweep(now)


class PeerLedgerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.table = fresh_table()
        self.now = 0.0
        self.history = []            # (op, now), replayed by an invariant
        self.last_grant = {}         # peer -> time, while its circuit is open
        self.deaths = 0

    def step(self, op):
        self.history.append((op, self.now))
        return apply(self.table, op, self.now)

    def circuit(self, peer):
        return self.table.describe(peer)["circuit"]

    def dead(self, peer):
        return self.table.state(peer) == DEAD

    def declare(self, peer):
        """The engine's _declare_dead: mark_dead is True exactly when
        this call is the death."""
        was_dead = self.dead(peer)
        assert self.step(("mark_dead", peer)) is (not was_dead)
        assert self.step(("mark_dead", peer)) is False
        self.deaths += not was_dead

    def granted(self, peer):
        """A transfer admitted toward an open circuit: never two within
        one backoff period."""
        last = self.last_grant.get(peer)
        assert last is None or self.now - last >= REPROBE_INTERVAL
        self.last_grant[peer] = self.now

    @rule(dt=st.sampled_from([0.1, 0.5, 1.0, 2.5, 7.0]))
    def clock(self, dt):
        self.now = round(self.now + dt, 3)

    @rule(peer=_peer)
    def outbound_answered(self, peer):
        self.step(("answer", peer))
        assert self.circuit(peer) == "closed"
        self.last_grant.pop(peer, None)

    @rule(peer=_peer)
    def outbound_failed(self, peer):
        if self.step(("miss", peer)) == DEAD:
            self.declare(peer)

    @rule(peer=_peer)
    def gossip(self, peer):
        before = self.table.describe(peer)
        self.step(("gossip", peer))
        after = self.table.describe(peer)
        for field in ("circuit", "next_admit_at", "misses", "trips"):
            assert after[field] == before[field], field

    @rule(peer=_peer)
    def admit(self, peer):
        was_open = self.circuit(peer) == "open"
        due_at = self.table.describe(peer)["next_admit_at"]
        granted = self.step(("admit", peer))
        if not was_open:
            assert granted
            return
        assert granted == (self.now >= due_at)
        if granted:
            self.granted(peer)

    @rule()
    def upkeep(self):
        """The tick's share: a probe to each configured dead peer and a
        ping to each heard-from one whose open circuit admits it — so no
        circuit somebody retries is left past its admission time."""
        for peer in self.step(("upkeep", None)):
            self.granted(peer)
        for peer in PEERS:
            record = self.table.describe(peer)
            if record["circuit"] == "open" and (
                    record["configured"] or not self.dead(peer)):
                assert record["next_admit_at"] > self.now, peer

    @rule()
    def sweep(self):
        __, deaths = self.step(("sweep", None))
        for peer in deaths:
            self.declare(peer)

    @invariant()
    def dead_or_open_never_holds(self):
        if not hasattr(self, "table"):
            return
        for peer in PEERS:
            if self.dead(peer) or self.circuit(peer) == "open":
                assert not self.table.holds(peer)

    @invariant()
    def open_or_suspect_never_placeable(self):
        if not hasattr(self, "table"):
            return
        for peer in PEERS:
            if self.circuit(peer) == "open" \
                    or self.table.state(peer) == SUSPECT:
                assert not self.table.placeable(peer)

    @invariant()
    def one_death_counted_per_death(self):
        if not hasattr(self, "table"):
            return
        assert self.table.counters.deaths == self.deaths

    @invariant()
    def the_same_sequence_gives_the_same_schedule(self):
        if not hasattr(self, "table"):
            return
        replay = fresh_table()
        for op, now in self.history:
            apply(replay, op, now)
        for peer in PEERS:
            assert replay.describe(peer) == self.table.describe(peer)


PeerLedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestPeerLedgerMachine = PeerLedgerMachine.TestCase
