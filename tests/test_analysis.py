"""Analysis utilities: the paper-target registry."""

import pytest

from repro.analysis import PAPER_TARGETS, Target, check_value


class TestTargetRegistry:
    def test_every_headline_claim_present(self):
        for name in (
            "fig11.improvement_vs_dnic.avg",
            "fig11.improvement_vs_inic.avg",
            "fig4.zcpy_improvement.2000B",
            "fig5.max_pressure_fraction",
            "fig7.lines_per_burst",
            "fig12a.improvement_vs_dnic.25ns",
            "fig12b.l3f_best_improvement",
            "bandwidth.netdimm_gbps",
        ):
            assert name in PAPER_TARGETS

    def test_bands_are_sane(self):
        for target in PAPER_TARGETS.values():
            assert target.low <= target.high, target.name
            assert target.source, target.name

    def test_most_bands_contain_paper_value(self):
        # Bands are centered on the paper's number except where our
        # model intentionally deviates (documented in EXPERIMENTS.md).
        containing = sum(
            1
            for target in PAPER_TARGETS.values()
            if target.low <= target.paper_value <= target.high
        )
        assert containing >= len(PAPER_TARGETS) - 1

    def test_check_value_inside(self):
        ok, target = check_value("fig5.max_pressure_fraction", 0.28)
        assert ok
        assert isinstance(target, Target)

    def test_check_value_outside(self):
        ok, _target = check_value("fig5.max_pressure_fraction", 0.99)
        assert not ok

    def test_unknown_target_keyerror(self):
        with pytest.raises(KeyError):
            check_value("fig99.unicorns", 1.0)

    def test_target_check_boundaries_inclusive(self):
        target = Target(name="t", source="s", paper_value=1.0, low=0.5, high=1.5)
        assert target.check(0.5)
        assert target.check(1.5)
        assert not target.check(0.49)
