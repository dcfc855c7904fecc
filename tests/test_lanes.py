from operator import ge, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lane
from preproj.errors import DomainError
from preproj.lanes import Lanes, pack


def lanes_of(row: int, lanes: Lanes) -> list[bool]:
    """Lane t's guard bit of a row, for each t."""
    return [bool(row >> lanes.width * (t + 1) - 1 & 1) for t in range(lanes.size)]


vectors = st.integers(0, 6).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(0, 2**70), min_size=k, max_size=k), max_size=12),
    st.lists(st.integers(0, 2**70), min_size=k, max_size=k)))


class TestLanes:
    @given(vectors, st.sampled_from([0, 5, 2**70]))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_entrywise_comparisons(self, drawn, top):
        targets, a = drawn
        lanes = Lanes(targets, max([top, *a, *(x for v in targets for x in v)]))
        assert lanes_of(lanes.at_least(a), lanes) == [all(map(ge, v, a)) for v in targets]
        assert lanes_of(lanes.at_most(a), lanes) == [all(map(le, v, a)) for v in targets]
        assert [lane(lanes, t) for t in range(len(targets))] == [tuple(v) for v in targets]

    @given(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3), min_size=1,
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_lanes_as_narrow_as_their_entries(self, targets):
        # every lane borders others at the width its largest entry needs
        lanes = Lanes(targets, max(map(max, targets)))
        for a in targets:
            assert lanes_of(lanes.at_least(a), lanes) == [all(map(ge, v, a)) for v in targets]
            assert lanes_of(lanes.at_most(a), lanes) == [all(map(le, v, a)) for v in targets]

    def test_empty_vectors_bound_everything(self):
        lanes = Lanes([(), (), ()], 0)
        assert lanes.at_least(()) == lanes.at_most(()) == lanes.guard
        assert lanes_of(lanes.guard, lanes) == [True] * 3

    def test_no_vectors(self):
        lanes = Lanes([], 5)
        assert lanes.size == lanes.at_least(()) == lanes.at_most(()) == 0

    def test_lengths_must_agree(self):
        with pytest.raises(DomainError, match="vectors of different lengths"):
            Lanes([(1, 2), (1,)], 2)
        with pytest.raises(DomainError, match="lengths 1 and 2 differ"):
            Lanes([(1, 2)], 2).at_least((1,))

    def test_pack_puts_row_t_in_lane_t(self):
        assert pack([[1, 2], [3, 4]], 4) == [3 << 4 | 1, 4 << 4 | 2]
        assert pack([], 4) == []
