"""Tests for crossover finding, pinned to the paper's Section 4 claims."""

from repro.analysis.crossover import (
    expected_write_crossover_p,
    first_crossing,
    quantity_crossover_n,
)
from repro.core.config import Configuration


class TestFirstCrossing:
    def test_simple_crossing(self):
        assert first_crossing(lambda x: x, lambda x: 100, [1, 3, 7, 9]) == 1

    def test_crossing_mid_sweep(self):
        assert first_crossing(lambda x: -x, lambda x: -5, [1, 3, 7, 9]) == 7

    def test_requires_staying_below(self):
        f_values = {1: 0, 3: 10, 7: 0, 9: 0}
        assert first_crossing(
            lambda x: f_values[x], lambda x: 5, [1, 3, 7, 9]
        ) == 7

    def test_none_when_never_crossing(self):
        assert first_crossing(lambda x: 9, lambda x: 5, [1, 2, 3]) is None


class TestPaperCrossovers:
    SIZES = (15, 31, 63, 127, 255, 511)

    def test_hqc_read_load_overtakes_arbitrary(self):
        """HQC's n^-0.37 dips below ARBITRARY's 1/4 past n ~ 43."""
        crossing = quantity_crossover_n(
            Configuration.HQC, Configuration.ARBITRARY,
            "read_load", self.SIZES,
        )
        assert crossing == 63  # first swept size past the analytic 42.6

    def test_hqc_beats_binary_early(self):
        """The paper's 'least of the first four when n > 15' vs BINARY."""
        crossing = quantity_crossover_n(
            Configuration.HQC, Configuration.BINARY,
            "read_load", self.SIZES,
        )
        assert crossing is not None and crossing <= 31

    def test_arbitrary_write_load_beats_everyone_from_31(self):
        for rival in (
            Configuration.BINARY,
            Configuration.HQC,
            Configuration.UNMODIFIED,
        ):
            crossing = quantity_crossover_n(
                Configuration.ARBITRARY, rival, "write_load", self.SIZES,
            )
            assert crossing is not None and crossing <= 31, rival

    def test_expected_write_crossover_near_08(self):
        """ARBITRARY's expected write load overtakes HQC's around p ~ 0.8
        at large n (the paper's 'p < 0.8' discussion)."""
        crossing = expected_write_crossover_p(511)
        assert crossing is not None
        assert 0.72 <= crossing <= 0.88

    def test_small_n_arbitrary_wins_at_the_papers_p(self):
        """At small n ARBITRARY already has the smallest expected write
        load at the paper's plotting point p = 0.7 (the crossover sits
        well below 0.7, unlike at large n where it is ~0.8)."""
        crossing = expected_write_crossover_p(31)
        assert crossing is not None and crossing <= 0.7
        large_crossing = expected_write_crossover_p(511)
        assert large_crossing is not None and large_crossing > crossing
