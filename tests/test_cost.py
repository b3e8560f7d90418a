"""Cost model and simulated network accounting."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from repro import Catalog, NetworkLink, PlannerOptions, SimulatedNetwork
from repro.core.cardinality import Estimator
from repro.core.cost import Cost, CostModel
from repro.core.logical import RelColumn
from repro.core.pages import Page
from repro.core.physical import ExecutionContext
from repro.datatypes import DataType
from repro.errors import GISError


class TestNetworkLink:
    def test_transfer_time_formula(self):
        link = NetworkLink(latency_ms=10.0, bandwidth_bytes_per_s=1000.0,
                           message_overhead_bytes=0)
        # 10ms latency + 500 bytes at 1KB/s = 500 ms.
        assert link.transfer_time_ms(500, 1) == pytest.approx(510.0)

    def test_messages_multiply_latency(self):
        link = NetworkLink(latency_ms=10.0, bandwidth_bytes_per_s=1e9,
                           message_overhead_bytes=0)
        assert link.transfer_time_ms(0, 5) == pytest.approx(50.0)

    def test_overhead_charged_per_message(self):
        link = NetworkLink(latency_ms=0.0, bandwidth_bytes_per_s=1000.0,
                           message_overhead_bytes=100)
        assert link.transfer_time_ms(0, 2) == pytest.approx(200.0)

    def test_zero_messages_rejected(self):
        with pytest.raises(GISError):
            NetworkLink().transfer_time_ms(10, 0)


class TestSimulatedNetwork:
    def test_per_source_accounting(self):
        network = SimulatedNetwork()
        network.set_link("fast", NetworkLink(1.0, 1e9))
        network.set_link("slow", NetworkLink(100.0, 1e3))
        network.record_transfer("fast", 1000, 10, 1)
        network.record_transfer("slow", 1000, 10, 1)
        ledgers = network.per_source()
        assert ledgers["slow"].simulated_ms > ledgers["fast"].simulated_ms
        assert network.total.rows == 20
        assert network.total.messages == 2

    def test_parallel_elapsed_is_max(self):
        network = SimulatedNetwork()
        network.set_link("a", NetworkLink(10.0, 1e9))
        network.set_link("b", NetworkLink(50.0, 1e9))
        network.record_transfer("a", 0, 0, 1)
        network.record_transfer("b", 0, 0, 1)
        assert network.parallel_elapsed_ms() == pytest.approx(
            network.per_source()["b"].simulated_ms
        )

    def test_reset_clears_counters_keeps_links(self):
        network = SimulatedNetwork()
        network.set_link("x", NetworkLink(123.0, 1e6))
        network.record_transfer("x", 10, 1, 1)
        network.reset()
        assert network.total.rows == 0
        assert network.per_source() == {}
        assert network.link_for("x").latency_ms == 123.0

    def test_default_link_used_for_unknown_source(self):
        network = SimulatedNetwork(NetworkLink(latency_ms=77.0))
        assert network.link_for("anything").latency_ms == 77.0


def _transfers():
    """Charges whose float costs round differently in different orders."""
    rng = random.Random(11)
    return [
        (f"s{index % 4}", rng.uniform(1.0, 5000.0), rng.randrange(1, 50))
        for index in range(400)
    ]


def _order_free_network():
    network = SimulatedNetwork()
    for index in range(4):
        network.set_link(
            f"s{index}", NetworkLink(0.1 + index / 7.0, 333_333.3 * (index + 1))
        )
    return network


def _charge_from_threads(transfers, charge, workers=4):
    """Charge ``transfers`` from several threads started together, with a
    short switch interval so their charges interleave."""
    barrier = threading.Barrier(workers)

    def run(share):
        barrier.wait(timeout=10)
        for transfer in share:
            charge(*transfer)

    threads = [
        threading.Thread(target=run, args=(transfers[index::workers],))
        for index in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestOrderFreeLedger:
    """The virtual ledgers are functions of the multiset of charges."""

    def test_shuffled_concurrent_charges_read_one_bit_pattern(self):
        transfers = _transfers()
        network = _order_free_network()
        costs = [
            network.link_for(source).transfer_time_ms(payload)
            for source, payload, _ in transfers
        ]
        exact = float(sum(map(Fraction, costs)))
        naive = set()
        readings = set()
        for seed in range(6):
            order = list(range(len(transfers)))
            random.Random(seed).shuffle(order)
            naive.add(sum(costs[i] for i in order).hex())
            network = _order_free_network()
            _charge_from_threads(
                [transfers[i] for i in order],
                lambda source, payload, rows: network.record_transfer(
                    source, payload, rows
                ),
            )
            per_source = network.per_source()
            readings.add((
                network.total.simulated_ms.hex(),
                network.total.bytes.hex(),
                tuple(
                    (name, ledger.simulated_ms.hex(), ledger.bytes.hex())
                    for name, ledger in sorted(per_source.items())
                ),
            ))
        assert len(naive) > 1  # float addition in arrival order would differ
        assert len(readings) == 1
        assert network.total.simulated_ms == exact
        assert network.total.rows == sum(rows for _, _, rows in transfers)

    def test_query_network_ms_is_order_free(self):
        transfers = _transfers()
        readings = set()
        for seed in range(6):
            shuffled = list(transfers)
            random.Random(seed).shuffle(shuffled)
            ctx = ExecutionContext(
                Catalog(), _order_free_network(), PlannerOptions()
            )
            _charge_from_threads(
                shuffled,
                lambda source, payload, rows: ctx.charge_transfer(
                    source, Page.empty(0), 1, lambda page: payload
                ),
            )
            assert ctx.metrics.messages == len(transfers)
            readings.add(
                (ctx.metrics.network_ms.hex(), ctx.network.total.simulated_ms.hex())
            )
        assert len(readings) == 1
        network_ms, total_ms = readings.pop()
        assert network_ms == total_ms


class TestCost:
    def test_addition_and_ordering(self):
        a = Cost(cpu_ms=1.0, network_ms=2.0)
        b = Cost(cpu_ms=0.5, network_ms=0.5)
        assert (a + b).total_ms == pytest.approx(4.0)
        assert b < a

    def test_cost_model_transfer(self):
        network = SimulatedNetwork()
        network.set_link("src", NetworkLink(10.0, 1e6, message_overhead_bytes=0))
        model = CostModel(network, Estimator(Catalog()))
        column = RelColumn("x", DataType.INTEGER)
        cost = model.transfer("src", rows=1000, columns=[column], page_rows=100)
        # 10 messages × 10ms latency + 8000 bytes / 1MB/s = 100ms + 8ms.
        assert cost.network_ms == pytest.approx(108.0)

    def test_cpu_scales_with_rows(self):
        model = CostModel(SimulatedNetwork(), Estimator(Catalog()), cpu_row_ms=0.01)
        assert model.cpu(100).cpu_ms == pytest.approx(1.0)
        assert model.cpu(100, factor=2.0).cpu_ms == pytest.approx(2.0)

    def test_sort_is_superlinear(self):
        model = CostModel(SimulatedNetwork(), Estimator(Catalog()))
        assert model.sort(10_000).cpu_ms > model.cpu(10_000).cpu_ms

    def test_hash_join_components(self):
        model = CostModel(SimulatedNetwork(), Estimator(Catalog()))
        cost = model.hash_join(100, 1000, 50)
        assert cost.cpu_ms > 0 and cost.network_ms == 0
