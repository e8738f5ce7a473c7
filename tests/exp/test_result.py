"""One result type: ``run_experiment``, a worker process and the result
cache all hand back the same plain :class:`ExperimentResult`, and its
per-node counter table is exactly what the benches used to read off the
live network."""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.energy import EnergyModel
from repro.exp import ExperimentConfig, ExperimentRunner, run_experiment
from repro.exp.parallel import ParallelEngine

from tests.support import LINE4


def _line4(**overrides) -> ExperimentConfig:
    config = ExperimentConfig.from_yaml(Path(LINE4).read_text())
    return dataclasses.replace(config, **overrides)


#: An observed run (every channel on), an 802.15.4 run and a self-forming
#: mesh: the three network builders, and every optional result field.
PATHS = {
    "observed": _line4(trace=True, spans=True, metrics=True),
    "802154": _line4(link_layer="802154"),
    "dynamic": _line4(topology="dynamic", warmup_s=30.0, duration_s=5.0),
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_one_result_whichever_path_made_it(name):
    config = PATHS[name]
    local = run_experiment(config)
    [outcome] = ParallelEngine(max_workers=2).run([config])
    assert outcome.ok, outcome.error
    assert local == outcome.result
    assert pickle.loads(pickle.dumps(local)) == local


#: The benches' counter-reading configurations, short.
COUNTER_CASES = {
    # Fig. 9(b)'s burst regime: the event-abort ablation's cell, which
    # loses one connection (whose CRC aborts neither expression counts)
    "abort-regime": dict(
        conn_interval="2000", producer_interval_s=1.0, producer_jitter_s=0.5,
        duration_s=60.0, warmup_s=25.0, drain_s=15.0, seed=10,
    ),
    # Fig. 9(a): overload, losses at the packet buffers
    "fig9a": dict(
        producer_interval_s=0.1, producer_jitter_s=0.05, duration_s=30.0,
        seed=10,
    ),
    # the fragmentation bench's 500-byte 802.15.4 cell
    "fragmentation": dict(
        link_layer="802154", topology="line", n_nodes=3, payload_len=500,
        producer_interval_s=2.0, producer_jitter_s=1.0, duration_s=60.0,
        seed=16, base_ber=2.0e-4,
    ),
    # Fig. 10's 802.15.4 stack: losses at MAC retry exhaustion
    "802154": dict(link_layer="802154", duration_s=30.0, seed=11),
}


def _bench_expressions(net, config) -> dict:
    """The expressions the benches evaluated on the live network."""
    is_ble = config.link_layer == "ble"
    out = {
        "pktbuf_drops": sum(n.netif.drops_pktbuf for n in net.nodes),
        "pktbuf_peak": max(n.pktbuf.peak_used for n in net.nodes),
    }
    if is_ble:
        out["crc_aborts"] = sum(
            ep.stats.events_crc_abort
            for node in net.nodes
            for conn in node.controller.connections
            for ep in (conn.coord, conn.sub)
            if conn.coord.controller is node.controller
        )
        out["current_ua"] = [
            EnergyModel().controller_current_ua(
                n.controller, config.total_runtime_s
            )
            for n in net.nodes
        ]
    else:
        out["mac_drops"] = sum(n.netif.drops_mac for n in net.nodes)
        out["fragmented"] = sum(
            n.netif.tx_fragmented_datagrams for n in net.nodes
        )
        out["reassembly_timeouts"] = sum(
            n.netif.reassembler.timeouts for n in net.nodes
        )
    return out


@pytest.mark.parametrize("case", sorted(COUNTER_CASES))
def test_node_table_is_what_the_benches_read(case):
    config = ExperimentConfig(name=case, **COUNTER_CASES[case])
    runner = ExperimentRunner(config)
    result = runner.run()
    expected = _bench_expressions(runner.network, config)
    nodes = result.nodes
    assert len(nodes) == config.n_nodes
    got = {
        "pktbuf_drops": sum(n.pktbuf_drops for n in nodes),
        "pktbuf_peak": max(n.pktbuf_peak for n in nodes),
    }
    if config.link_layer == "ble":
        got["crc_aborts"] = sum(n.crc_aborts for n in nodes)
        got["current_ua"] = [n.current_ua for n in nodes]
        assert all(n.mac_drops == n.fragmented == 0 for n in nodes)
        assert expected["crc_aborts"] > 0
    else:
        got["mac_drops"] = sum(n.mac_drops for n in nodes)
        got["fragmented"] = sum(n.fragmented for n in nodes)
        got["reassembly_timeouts"] = sum(n.reassembly_timeouts for n in nodes)
        assert all(n.crc_aborts == 0 and n.current_ua is None for n in nodes)
        assert expected["mac_drops"] > 0
    assert got == expected
