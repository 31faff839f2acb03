"""The poll-detection cost model."""

from repro.driver.polling import detection_cost
from repro.units import ns


class TestDetectionCost:
    def test_half_period_plus_probe(self):
        assert detection_cost(probe_cost=100, loop_cost=20) == 60 + 100

    def test_cheaper_probe_detects_faster(self):
        """Sec. 4.2.2: polling NetDIMM beats polling a PCIe NIC because
        the status read is cheaper."""
        pcie = detection_cost(probe_cost=ns(390), loop_cost=ns(30))
        netdimm = detection_cost(probe_cost=ns(60), loop_cost=ns(30))
        assert netdimm < pcie
