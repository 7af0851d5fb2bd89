"""Tests for the discrete-event simulator, network model, machines and cost model."""

from __future__ import annotations

import pytest

from repro.runtime.cluster import Cluster
from repro.runtime.cost import CostModel
from repro.runtime.machine import ActivityKind, Machine
from repro.runtime.network import Network, NetworkParameters
from repro.runtime.simulator import Environment, Get, SimulationError, Timeout


class TestSimulator:
    def test_timeout_ordering(self):
        env = Environment()
        order = []

        def worker(name, delay):
            yield Timeout(delay)
            order.append(name)

        env.process(worker("slow", 2.0))
        env.process(worker("fast", 1.0))
        env.run()
        assert order == ["fast", "slow"]
        assert env.now == pytest.approx(2.0)

    def test_store_put_get(self):
        env = Environment()
        store = env.store()
        received = []

        def consumer():
            item = yield Get(store)
            received.append(item)

        def producer():
            yield Timeout(1.5)
            store.put("payload")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == ["payload"]
        assert env.now == pytest.approx(1.5)

    def test_blocked_process_reported_unfinished(self):
        env = Environment()
        store = env.store()

        def consumer():
            yield Get(store)

        env.process(consumer(), name="stuck")
        env.run()
        assert [p.name for p in env.unfinished_processes()] == ["stuck"]

    def test_unknown_request_rejected(self):
        env = Environment()

        def bad():
            yield "not-a-request"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.schedule(-1.0, lambda: None)

    def test_pids_are_per_environment(self):
        # Back-to-back simulations must be independently reproducible: a fresh
        # environment numbers its processes from 1 rather than continuing a
        # process-global counter.
        def idle():
            yield Timeout(0.0)

        first = Environment()
        first.process(idle(), name="a")
        first.process(idle(), name="b")
        second = Environment()
        second.process(idle(), name="c")
        assert [process.pid for process in first.processes] == [1, 2]
        assert [process.pid for process in second.processes] == [1]
        assert second.processes[0].name == "c"


class TestMachine:
    def test_compute_accumulates_busy_time(self):
        env = Environment()
        machine = Machine(env, "m0")

        def work():
            yield from machine.compute(0.5, ActivityKind.CODE_GENERATION)
            yield from machine.compute(0.25, ActivityKind.CODE_GENERATION)

        env.process(work())
        env.run()
        assert machine.busy_time == pytest.approx(0.75)
        assert machine.utilization(env.now) == pytest.approx(1.0)
        # Contiguous same-kind intervals are coalesced for the timeline.
        assert len(machine.activity) == 1

    def test_single_cpu_serialises_colocated_processes(self):
        env = Environment()
        machine = Machine(env, "m0")

        def work():
            yield from machine.compute(1.0)

        env.process(work())
        env.process(work())
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_speed_scales_compute(self):
        env = Environment()
        machine = Machine(env, "fast", speed=2.0)

        def work():
            yield from machine.compute(1.0)

        env.process(work())
        env.run()
        assert env.now == pytest.approx(0.5)


class TestNetwork:
    def test_transfer_time_and_stats(self):
        env = Environment()
        parameters = NetworkParameters(
            bandwidth_bytes_per_second=1000, message_latency=0.1,
            per_message_overhead_bytes=0,
        )
        network = Network(env, parameters)
        mailbox = env.store()
        network.send("a", "b", mailbox, "msg", 500)
        env.run()
        # 500 bytes at 1000 B/s + 0.1 s latency.
        assert env.now == pytest.approx(0.6)
        assert network.stats.messages == 1
        assert network.stats.bytes_sent == 500

    def test_shared_medium_serialises_transfers(self):
        env = Environment()
        parameters = NetworkParameters(
            bandwidth_bytes_per_second=1000, message_latency=0.0,
            per_message_overhead_bytes=0,
        )
        network = Network(env, parameters)
        mailbox = env.store()
        network.send("a", "b", mailbox, "one", 1000)
        network.send("c", "d", mailbox, "two", 1000)
        env.run()
        assert env.now == pytest.approx(2.0)


class TestCluster:
    def test_local_delivery_is_free(self):
        cluster = Cluster(2)
        machine = cluster.machine(0)
        cluster.send(machine, machine, "hello", 10_000)
        cluster.run()
        assert cluster.now == pytest.approx(0.0)
        assert len(machine.mailbox) == 1

    def test_remote_delivery_uses_network(self):
        cluster = Cluster(2)
        cluster.send(cluster.machine(0), cluster.machine(1), "hello", 10_000)
        cluster.run()
        assert cluster.now > 0.0
        assert cluster.network_stats().messages == 1

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(2, machine_speeds=[1.0])


class TestCostModel:
    def test_rule_costs(self):
        model = CostModel()
        assert model.rule_cost(10) == pytest.approx(10 * model.rule_base_cost)
        assert model.rule_cost(0, extra=2.0) == pytest.approx(2.0 * model.rule_unit_cost)

    def test_dynamic_task_costs_more_than_static(self):
        from repro.evaluation.base import TaskResult

        model = CostModel()
        result = TaskResult(rules_evaluated=1, dependency_work=3)
        assert model.task_cost(result, dynamic=True) > model.task_cost(result, dynamic=False)

    def test_scaled(self):
        model = CostModel()
        faster = model.scaled(0.5)
        assert faster.rule_base_cost == pytest.approx(model.rule_base_cost * 0.5)
        assert faster.bytes_per_tree_node == model.bytes_per_tree_node

    def test_memory_model(self):
        from repro.evaluation.base import EvaluationStatistics

        model = CostModel()
        stats = EvaluationStatistics(dependency_vertices=10, dependency_edges=20)
        assert model.dynamic_graph_memory(stats) == 10 * model.bytes_per_dependency_vertex + 20 * model.bytes_per_dependency_edge
