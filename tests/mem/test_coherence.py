"""Tests for the MSI directory protocol."""

from repro.mem.coherence import CoherenceAction, CoherenceState, MSIDirectory


BLOCK = 0x1000


class TestReads:
    def test_first_read_fetches_from_memory(self):
        directory = MSIDirectory()
        response = directory.read(0, BLOCK)
        assert (0, CoherenceAction.FETCH_FROM_MEMORY) in response.actions
        assert response.new_state is CoherenceState.SHARED
        assert directory.state_of(0, BLOCK) is CoherenceState.SHARED

    def test_second_reader_shares(self):
        directory = MSIDirectory()
        directory.read(0, BLOCK)
        directory.read(1, BLOCK)
        assert directory.state_of(0, BLOCK) is CoherenceState.SHARED
        assert directory.state_of(1, BLOCK) is CoherenceState.SHARED

    def test_read_of_modified_block_downgrades_owner(self):
        directory = MSIDirectory()
        directory.write(0, BLOCK)
        response = directory.read(1, BLOCK)
        assert (0, CoherenceAction.DOWNGRADE) in response.actions
        assert directory.state_of(0, BLOCK) is CoherenceState.SHARED
        assert directory.state_of(1, BLOCK) is CoherenceState.SHARED


class TestWrites:
    def test_write_gains_modified(self):
        directory = MSIDirectory()
        response = directory.write(2, BLOCK)
        assert response.new_state is CoherenceState.MODIFIED
        assert directory.state_of(2, BLOCK) is CoherenceState.MODIFIED

    def test_write_invalidates_sharers(self):
        directory = MSIDirectory()
        directory.read(0, BLOCK)
        directory.read(1, BLOCK)
        response = directory.write(2, BLOCK)
        invalidated = {c for c, a in response.actions if a is CoherenceAction.INVALIDATE}
        assert invalidated == {0, 1}
        assert directory.state_of(0, BLOCK) is CoherenceState.INVALID
        assert directory.state_of(1, BLOCK) is CoherenceState.INVALID

    def test_write_invalidates_other_owner(self):
        directory = MSIDirectory()
        directory.write(0, BLOCK)
        response = directory.write(1, BLOCK)
        assert (0, CoherenceAction.INVALIDATE) in response.actions
        assert directory.state_of(1, BLOCK) is CoherenceState.MODIFIED
        assert directory.state_of(0, BLOCK) is CoherenceState.INVALID

    def test_upgrade_from_shared_needs_no_memory_fetch(self):
        directory = MSIDirectory()
        directory.read(0, BLOCK)
        response = directory.write(0, BLOCK)
        assert (0, CoherenceAction.FETCH_FROM_MEMORY) not in response.actions

    def test_silent_write_hit_by_owner(self):
        directory = MSIDirectory()
        directory.write(0, BLOCK)
        response = directory.write(0, BLOCK)
        assert response.actions == []


class TestEviction:
    def test_evict_clears_sharer(self):
        directory = MSIDirectory()
        directory.read(0, BLOCK)
        directory.evict(0, BLOCK)
        assert directory.state_of(0, BLOCK) is CoherenceState.INVALID
        assert directory.tracked_blocks == 0

    def test_evict_owner(self):
        directory = MSIDirectory()
        directory.write(1, BLOCK)
        directory.evict(1, BLOCK)
        assert directory.state_of(1, BLOCK) is CoherenceState.INVALID

    def test_evict_unknown_block_is_noop(self):
        directory = MSIDirectory()
        directory.evict(0, BLOCK)
        assert directory.tracked_blocks == 0


class TestInvariants:
    def test_single_writer_multiple_reader(self):
        """At any point: either one M owner and no sharers, or only sharers."""
        directory = MSIDirectory()
        operations = [
            ("r", 0), ("r", 1), ("w", 2), ("r", 3), ("w", 0), ("r", 1), ("r", 2),
        ]
        for op, core in operations:
            if op == "r":
                directory.read(core, BLOCK)
            else:
                directory.write(core, BLOCK)
            states = [directory.state_of(c, BLOCK) for c in range(4)]
            owners = states.count(CoherenceState.MODIFIED)
            sharers = states.count(CoherenceState.SHARED)
            assert owners <= 1
            assert not (owners == 1 and sharers > 0)
