"""The composed NetDIMM buffer device (Sec. 4.1, Fig. 6)."""

import dataclasses

import pytest

from repro.core.netdimm import NNIC_PRIORITY, PHY_PRIORITY, NetDIMMDevice
from repro.core.rowclone import CloneMode
from repro.dram.geometry import DRAMGeometry
from repro.params import SystemParams
from repro.sim import Simulator
from repro.units import CACHELINE, PAGE


@pytest.fixture
def device(sim):
    return NetDIMMDevice(sim, "nd")


class TestAddressHandling:
    def test_zone_base_subtracted(self, sim):
        device = NetDIMMDevice(sim, "nd", zone_base=1 << 26)
        sim.run_until(device.device_read(1 << 26, CACHELINE))
        sim.run()  # drain the prefetches the demand miss launched
        # The nMC saw DIMM-local addresses; 1 demand + degree prefetches.
        assert (
            device.nmc.stats.get_counter("reads")
            == 1 + device.params.netdimm.nprefetch_degree
        )

    def test_below_zone_base_rejected(self, sim):
        device = NetDIMMDevice(sim, "nd", zone_base=1 << 26)
        with pytest.raises(ValueError):
            device.device_read(0, CACHELINE)

    def test_below_zone_base_write_rejected(self, sim):
        device = NetDIMMDevice(sim, "nd", zone_base=1 << 26)
        with pytest.raises(ValueError):
            device.device_write(0, CACHELINE)

    def test_prefetch_fetch_checks_the_zone(self, sim):
        device = NetDIMMDevice(sim, "nd", zone_base=1 << 26)
        with pytest.raises(ValueError):
            device.nprefetcher.fetch_line(0)
        sim.run_until(device.nprefetcher.fetch_line((1 << 26) + CACHELINE))
        assert device.nmc.stats.get_counter("reads") == 1


class TestHostReads:
    def test_miss_goes_to_local_dram(self, sim, device):
        sim.run_until(device.device_read(0x1000, CACHELINE))
        sim.run()  # drain prefetches
        assert device.stats.get_counter("ncache_misses") == 1
        # 1 demand read plus nprefetch_degree prefetch reads.
        assert (
            device.nmc.stats.get_counter("reads")
            == 1 + device.params.netdimm.nprefetch_degree
        )

    def test_header_hit_served_from_ncache(self, sim, device):
        device.ncache.fill_header(0x1000)
        nmc_reads_before = device.nmc.stats.get_counter("reads")
        sim.run_until(device.device_read(0x1000, CACHELINE))
        assert device.stats.get_counter("ncache_hits") == 1
        assert device.nmc.stats.get_counter("reads") == nmc_reads_before

    def test_hit_faster_than_miss(self, sim, device):
        device.ncache.fill_header(0x1000)
        start = sim.now
        sim.run_until(device.device_read(0x1000, CACHELINE))
        hit_time = sim.now - start
        start = sim.now
        sim.run_until(device.device_read(0x2000, CACHELINE))
        miss_time = sim.now - start
        assert hit_time < miss_time

    def test_header_read_does_not_prefetch(self, sim, device):
        device.ncache.fill_header(0x1000)
        sim.run_until(device.device_read(0x1000, CACHELINE))
        sim.run()
        assert device.nprefetcher.stats.get_counter("launched") in (0, None) or (
            device.nprefetcher.stats.get_counter("launched") == 0
        )

    def test_payload_miss_triggers_prefetch(self, sim, device):
        sim.run_until(device.device_read(0x3000, CACHELINE))
        sim.run()
        # Next-line prefetches landed in nCache.
        assert device.ncache.contains(0x3000 + CACHELINE)

    def test_multi_line_read_fetches_all(self, sim, device):
        sim.run_until(device.device_read(0x5000, 1514))
        assert device.stats.get_counter("ncache_misses") == 24


class TestHostWrites:
    def test_write_goes_to_nmc(self, sim, device):
        sim.run_until(device.device_write(0x1000, 128))
        sim.run()
        assert device.nmc.stats.get_counter("writes") == 1

    def test_write_snoops_ncache(self, sim, device):
        device.ncache.fill_header(0x1000)
        sim.run_until(device.device_write(0x1000, CACHELINE))
        assert not device.ncache.contains(0x1000)
        assert device.stats.get_counter("snoop_invalidations") == 1

    def test_write_accepted_quickly(self, sim, device):
        start = sim.now
        sim.run_until(device.device_write(0x1000, 1514))
        accepted = sim.now - start
        assert accepted <= device.params.netdimm.ncontroller_latency + 1


class TestNICReceive:
    def test_rx_deposits_and_caches_header(self, sim, device):
        sim.run_until(device.nic_receive_dma(0x10000, 1514, 0x200))
        assert device.stats.get_counter("rx_packets") == 1
        assert device.stats.get_counter("rx_bytes") == 1514
        # Header split: first line is in nCache, flagged.
        hit, was_first = device.ncache.host_read(0x10000)
        assert hit and was_first

    def test_rx_descriptor_roundtrip(self, sim, device):
        sim.run_until(device.nic_receive_dma(0x10000, 64, 0x200))
        # Descriptor fetch (read) + payload write + descriptor writeback.
        assert device.nmc.stats.get_counter("reads") == 1
        assert device.nmc.stats.get_counter("writes") == 2

    def test_rx_overwrite_snoops_stale_lines(self, sim, device):
        device.ncache.fill_prefetch(0x10000 + CACHELINE)
        sim.run_until(device.nic_receive_dma(0x10000, 1514, 0x200))
        hit, _ = device.ncache.host_read(0x10000 + CACHELINE)
        assert not hit  # stale payload line was invalidated


class TestNICTransmit:
    def test_tx_reads_payload(self, sim, device):
        sim.run_until(device.nic_transmit_dma(0x20000, 1514, 0x300))
        assert device.stats.get_counter("tx_packets") == 1
        assert device.stats.get_counter("tx_bytes") == 1514
        assert device.nmc.stats.get_counter("reads") == 2  # desc + payload

    def test_tx_latency_scales_modestly_with_size(self, sim, device):
        start = sim.now
        sim.run_until(device.nic_transmit_dma(0, 64, 0x300))
        small = sim.now - start
        start = sim.now
        sim.run_until(device.nic_transmit_dma(0x40000, 1514, 0x300))
        large = sim.now - start
        assert small < large < small + 24 * device.params.netdimm_dram.tBURST * 3


class TestArbitration:
    """Sec. 4.1: nNIC accesses have priority over PHY accesses."""

    def test_priorities_defined(self):
        assert NNIC_PRIORITY < PHY_PRIORITY

    def test_nnic_traffic_delays_host_reads(self, sim, device):
        # Unloaded host read:
        start = sim.now
        sim.run_until(device.device_read(0x9000, CACHELINE))
        unloaded = sim.now - start
        sim.run()  # drain prefetches
        # Saturate the nMC with nNIC receive traffic; let the bursts
        # reach the nMC queues, then read again from the host side.
        for i in range(50):
            device.nic_receive_dma(0x100000 + i * 2048, 1514, 0x200)
        sim.run(until=sim.now + 200_000)  # 200 ns into the storm
        start = sim.now
        sim.run_until(device.device_read(0xA00000, CACHELINE))
        loaded = sim.now - start
        assert loaded > unloaded


class TestClone:
    def test_clone_mirrors_header_at_destination(self, sim, device):
        geometry = device.geometry
        src = geometry.encode(rank=0, bank=0, subarray=0, row=0)
        dst = geometry.encode(rank=0, bank=0, subarray=0, row=10)
        sim.run_until(device.clone(dst, src, 1514))
        hit, was_first = device.ncache.host_read(dst)
        assert hit and was_first

    def test_clone_mode_exposed(self, sim, device):
        geometry = device.geometry
        src = geometry.encode(rank=0, bank=0, subarray=0, row=0)
        dst = geometry.encode(rank=0, bank=0, subarray=0, row=10)
        assert device.clone_mode(dst, src) is CloneMode.FPM

    def test_clone_snoops_destination(self, sim, device):
        geometry = device.geometry
        src = geometry.encode(rank=0, bank=0, subarray=0, row=0)
        dst = geometry.encode(rank=0, bank=0, subarray=0, row=10)
        device.ncache.fill_prefetch(dst + CACHELINE)
        sim.run_until(device.clone(dst, src, 1514))
        hit, _ = device.ncache.host_read(dst + CACHELINE)
        assert not hit


class TestNCacheDisabled:
    def test_ablation_switch_disables_header_caching(self, sim):
        params = SystemParams()
        params = dataclasses.replace(
            params, netdimm=dataclasses.replace(params.netdimm, ncache_enabled=False)
        )
        device = NetDIMMDevice(sim, "nd", params)
        sim.run_until(device.nic_receive_dma(0x10000, 1514, 0x200))
        assert not device.ncache.contains(0x10000)
        sim.run_until(device.device_read(0x10000, CACHELINE))
        assert device.stats.get_counter("ncache_hits") == 0
