"""Property tests: the LDG's transpose/dirty/entry invariants, and its
holder ledger (``location``/``replicas``/``migrated_at``), survive any
sequence of graph operations (stateful hypothesis test)."""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.document import Location
from repro.core.ldg import LocalDocumentGraph
from repro.errors import MigrationError

HOME = Location("home", 80)
COOPS = [Location("coop1", 80), Location("coop2", 80)]

_doc_index = st.integers(0, 9)
_targets = st.lists(_doc_index, max_size=4)


class LDGMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.graph = LocalDocumentGraph(HOME)
        self.names = []
        self.clock = 0.0
        # name -> when it last left home, kept beside the graph.
        self.left_home = {}

    def _tick(self):
        self.clock += 1.0
        return self.clock

    def _name(self, index):
        return f"/doc{index}.html"

    @rule(index=_doc_index, link_targets=_targets,
          entry=st.booleans())
    def add_document(self, index, link_targets, entry):
        name = self._name(index)
        if name in self.graph:
            return
        self.graph.add_document(
            name, size=100, entry_point=entry,
            link_to=[self._name(t) for t in link_targets])
        self.names.append(name)

    @rule(index=_doc_index, link_targets=_targets)
    def set_links(self, index, link_targets):
        name = self._name(index)
        if name not in self.graph:
            return
        self.graph.set_links(name, [self._name(t) for t in link_targets])

    @rule(index=_doc_index, coop=st.sampled_from(COOPS))
    def migrate(self, index, coop):
        name = self._name(index)
        if name not in self.graph:
            return
        record = self.graph.get(name)
        if record.entry_point or record.location != HOME:
            return
        self.graph.mark_migrated(name, coop, self._tick())
        self.left_home[name] = self.clock

    @rule(index=_doc_index, coop=st.sampled_from(COOPS))
    def remigrate(self, index, coop):
        name = self._name(index)
        if name not in self.graph:
            return
        record = self.graph.get(name)
        if record.location == HOME or coop in record.locations():
            return
        self.graph.mark_revoked(name)
        self.graph.mark_migrated(name, coop, self._tick())
        self.left_home[name] = self.clock

    @rule(index=_doc_index, coop=st.sampled_from(COOPS))
    def replicate(self, index, coop):
        name = self._name(index)
        if name not in self.graph:
            return
        record = self.graph.get(name)
        if record.entry_point or coop in record.locations():
            return
        if record.location == HOME:
            self.left_home[name] = self._tick()
        self.graph.add_replica(name, coop, self.clock)

    @rule(index=_doc_index, dead=st.sampled_from(COOPS))
    def drop_holder(self, index, dead):
        name = self._name(index)
        if name not in self.graph:
            return
        try:
            self.graph.drop_holder(name, dead)
        except MigrationError:
            pass  # not a holder, or the last one

    @rule(index=_doc_index)
    def revoke(self, index):
        name = self._name(index)
        if name not in self.graph:
            return
        try:
            self.graph.mark_revoked(name)
        except MigrationError:
            pass  # wasn't migrated; fine
        self.left_home.pop(name, None)

    @rule(index=_doc_index, count=st.integers(1, 5))
    def hit(self, index, count):
        name = self._name(index)
        if name in self.graph:
            self.graph.record_hit(name, count)

    @rule()
    def reset_windows(self):
        self.graph.reset_windows()

    @invariant()
    def invariants_hold(self):
        if not hasattr(self, "graph"):
            return
        self.graph.check_invariants()

    @invariant()
    def migrated_at_is_when_it_left_home(self):
        # Set exactly while away from home; a promotion keeps it and a
        # re-migration resets it.
        if not hasattr(self, "graph"):
            return
        for record in self.graph.documents():
            if record.location == HOME:
                assert record.migrated_at is None
                assert not record.replicas
            else:
                assert record.migrated_at == self.left_home[record.name]

    @invariant()
    def window_never_exceeds_lifetime(self):
        if not hasattr(self, "graph"):
            return
        for record in self.graph.documents():
            assert record.window_hits <= record.hits


LDGMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestLDGMachine = LDGMachine.TestCase
