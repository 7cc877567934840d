"""Fault injection: the chaos config, injector, and the full loop.

The chaos contract is sharp: faults are injected *above* the protocol
layer, so a correct client observes frame gaps and EOFs — never
malformed bytes.  The end-to-end tests here hold the serving stack to
it: under injected drops, delays, and resets, every client reconnects
under backoff, every stream completes, and neither side reports a
single protocol error.
"""

import asyncio
import dataclasses

import pytest

from repro.serving.chaos import ChaosConfig, parse_chaos_spec
from repro.serving.client import LoadgenConfig, LoadgenReport, run_loadgen
from repro.serving.frames import FrameBank
from repro.serving.protocol import StreamSetup
from repro.serving.server import ServeConfig, ServerReport, StreamServer
from repro.streaming.loss import Backoff

SIZES = (80_000, 40_000, 20_000, 10_000, 5_000)


def _bank() -> FrameBank:
    return FrameBank.from_rung_streams([SIZES])


async def _serve_and_load(config: ServeConfig, load: LoadgenConfig):
    server = StreamServer(config)
    await server.start()
    try:
        load = dataclasses.replace(load, host=config.host, port=server.port)
        loadgen = await run_loadgen(load)
    finally:
        report = await server.stop()
    return report, loadgen


class TestChaosConfig:
    def test_defaults_are_inactive(self):
        config = ChaosConfig()
        assert not config.is_active

    def test_any_rate_activates(self):
        assert ChaosConfig(drop_prob=0.1).is_active
        assert ChaosConfig(delay_prob=0.1).is_active
        assert ChaosConfig(reset_prob=0.1).is_active

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_bad_probabilities(self, bad):
        with pytest.raises(ValueError):
            ChaosConfig(drop_prob=bad)
        with pytest.raises(ValueError):
            ChaosConfig(reset_prob=bad)

    def test_rejects_rates_summing_past_one(self):
        with pytest.raises(ValueError, match="<= 1"):
            ChaosConfig(drop_prob=0.5, delay_prob=0.4, reset_prob=0.2)

    def test_rejects_bad_delay_and_seed(self):
        with pytest.raises(ValueError, match="delay_ms"):
            ChaosConfig(delay_ms=-1.0)
        with pytest.raises(ValueError, match="delay_ms"):
            ChaosConfig(delay_ms=float("nan"))
        with pytest.raises(ValueError, match="seed"):
            ChaosConfig(seed=-1)


class TestParseChaosSpec:
    def test_full_spec(self):
        config = parse_chaos_spec("drop=0.05,delay=0.1:25,reset=0.02,seed=7")
        assert config.drop_prob == pytest.approx(0.05)
        assert config.delay_prob == pytest.approx(0.1)
        assert config.delay_ms == pytest.approx(25.0)
        assert config.reset_prob == pytest.approx(0.02)
        assert config.seed == 7

    def test_delay_without_ms_uses_default(self):
        config = parse_chaos_spec("delay=0.2")
        assert config.delay_prob == pytest.approx(0.2)
        assert config.delay_ms == pytest.approx(25.0)

    @pytest.mark.parametrize(
        "spec", ["", "drop", "drop=x", "jitter=0.1", "drop=0.05,oops=1"]
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_chaos_spec(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [("drop=0.1,drop=0.2", "drop"), ("delay=0.1:5,reset=0.01,delay=0.2", "delay")],
    )
    def test_rejects_repeated_keys(self, spec, key):
        """A repeated key is an error, not a silent last-one-wins."""
        with pytest.raises(ValueError, match=f"repeated chaos key '{key}'"):
            parse_chaos_spec(spec)


class TestChaosInjector:
    def test_same_seed_same_index_same_sequence(self):
        config = ChaosConfig(drop_prob=0.2, delay_prob=0.2, reset_prob=0.1, seed=3)
        a = [config.injector(5).frame_action() for _ in range(1)]
        first = config.injector(5)
        second = config.injector(5)
        seq_a = [first.frame_action() for _ in range(200)]
        seq_b = [second.frame_action() for _ in range(200)]
        assert seq_a == seq_b
        assert a  # silence the unused-variable linter honestly

    def test_different_indices_diverge(self):
        config = ChaosConfig(drop_prob=0.3, reset_prob=0.1, seed=3)
        seq_a = [config.injector(0).frame_action() for _ in range(1)]
        first = config.injector(0)
        second = config.injector(1)
        assert [first.frame_action() for _ in range(100)] != [
            second.frame_action() for _ in range(100)
        ]
        assert seq_a

    def test_actions_are_known_and_counted(self):
        config = ChaosConfig(drop_prob=0.3, delay_prob=0.3, reset_prob=0.2, seed=0)
        injector = config.injector(0)
        actions = [injector.frame_action() for _ in range(500)]
        assert set(actions) <= {"reset", "drop", "delay", "send"}
        assert injector.drops == actions.count("drop")
        assert injector.delays == actions.count("delay")
        assert injector.resets == actions.count("reset")
        # With these rates every action occurs in 500 draws.
        assert injector.drops and injector.delays and injector.resets

    def test_inactive_config_always_sends(self):
        injector = ChaosConfig().injector(0)
        assert all(injector.frame_action() == "send" for _ in range(50))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="connection_index"):
            ChaosConfig(drop_prob=0.1).injector(-1)


class TestChaosEndToEnd:
    def test_drops_degrade_without_protocol_errors(self):
        """Pure frame drops: clients see gaps (resyncs), complete their
        streams, and nobody reports a protocol error."""
        setup = StreamSetup(
            scene="synthetic", target_fps=100.0, n_frames=25, controller="throughput"
        )
        report, loadgen = asyncio.run(
            _serve_and_load(
                ServeConfig(
                    bank=_bank(), port=0, deadline_s=10.0,
                    chaos=ChaosConfig(drop_prob=0.2, seed=5),
                ),
                LoadgenConfig(setup=setup, n_clients=3, timeout_s=30.0),
            )
        )
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0
        assert report.clean
        assert loadgen.completed_clients == 3
        assert report.chaos_drops > 0
        assert loadgen.total_resyncs > 0
        # Dropped frames never reach a socket.
        assert loadgen.frames_received + report.chaos_drops == 3 * 25

    def test_resets_ride_out_on_reconnects(self):
        """Connection resets mid-stream: clients reconnect under
        backoff and still finish; zero protocol errors anywhere."""
        setup = StreamSetup(
            scene="synthetic", target_fps=60.0, n_frames=30, controller="throughput"
        )
        report, loadgen = asyncio.run(
            _serve_and_load(
                ServeConfig(
                    bank=_bank(), port=0, deadline_s=10.0, drain_grace_s=5.0,
                    chaos=ChaosConfig(
                        drop_prob=0.08, reset_prob=0.04, delay_prob=0.05,
                        delay_ms=5.0, seed=11,
                    ),
                ),
                LoadgenConfig(
                    setup=setup, n_clients=4, timeout_s=30.0,
                    max_reconnects=10,
                    backoff=Backoff(base_s=0.01, factor=2.0, max_s=0.1),
                ),
            )
        )
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0
        assert report.clean
        assert loadgen.completed_clients == 4
        assert report.chaos_resets > 0
        assert loadgen.total_reconnects > 0
        assert loadgen.total_resyncs > 0

    def test_truncated_reset_is_not_a_protocol_error(self):
        """A reset writes half a frame then aborts — the decoder must
        treat the partial message as EOF, not garbage."""
        setup = StreamSetup(
            scene="synthetic", target_fps=60.0, n_frames=20, controller="throughput"
        )
        report, loadgen = asyncio.run(
            _serve_and_load(
                ServeConfig(
                    bank=_bank(), port=0, deadline_s=10.0,
                    chaos=ChaosConfig(reset_prob=0.08, seed=2),
                ),
                LoadgenConfig(
                    setup=setup, n_clients=3, timeout_s=30.0, max_reconnects=12,
                    backoff=Backoff(base_s=0.01, factor=2.0, max_s=0.1),
                ),
            )
        )
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0
        assert loadgen.completed_clients == 3

    def test_reconnect_budget_zero_keeps_legacy_behavior(self):
        """max_reconnects=0 (the default): a reset ends the client."""
        setup = StreamSetup(
            scene="synthetic", target_fps=60.0, n_frames=40, controller="throughput"
        )
        report, loadgen = asyncio.run(
            _serve_and_load(
                ServeConfig(
                    bank=_bank(), port=0, deadline_s=10.0,
                    chaos=ChaosConfig(reset_prob=0.15, seed=1),
                ),
                LoadgenConfig(setup=setup, n_clients=4, timeout_s=20.0),
            )
        )
        assert loadgen.total_reconnects == 0
        assert loadgen.protocol_errors == 0
        assert report.protocol_errors == 0

    def test_reconnect_against_dead_port_fails_fast(self):
        """A refused connect burns reconnect attempts and returns — no
        hang, no exception."""

        async def run():
            config = LoadgenConfig(
                port=1,  # nothing listens here
                setup=StreamSetup(scene="synthetic", n_frames=5),
                n_clients=2,
                timeout_s=5.0,
                max_reconnects=2,
                backoff=Backoff(base_s=0.01, factor=2.0, max_s=0.02),
            )
            return await run_loadgen(config)

        loadgen = asyncio.run(run())
        assert loadgen.completed_clients == 0
        assert loadgen.frames_received == 0
        assert loadgen.protocol_errors == 0


class TestChaosReportSerialization:
    def _run(self, chaos: ChaosConfig | None, max_reconnects: int = 10):
        setup = StreamSetup(
            scene="synthetic", target_fps=100.0, n_frames=15, controller="throughput"
        )
        return asyncio.run(
            _serve_and_load(
                ServeConfig(bank=_bank(), port=0, deadline_s=10.0, chaos=chaos),
                LoadgenConfig(
                    setup=setup, n_clients=2, timeout_s=30.0,
                    max_reconnects=max_reconnects,
                    backoff=Backoff(base_s=0.01, factor=2.0, max_s=0.1),
                ),
            )
        )

    def test_chaotic_reports_round_trip(self):
        report, loadgen = self._run(
            ChaosConfig(drop_prob=0.15, reset_prob=0.05, seed=4)
        )
        rebuilt = ServerReport.from_json(report.to_json())
        assert rebuilt == report
        assert rebuilt.summary() == report.summary()
        rebuilt_load = LoadgenReport.from_json(loadgen.to_json())
        assert rebuilt_load == loadgen
        assert rebuilt_load.total_reconnects == loadgen.total_reconnects
        assert rebuilt_load.total_resyncs == loadgen.total_resyncs

    def test_faithful_reports_omit_chaos_keys(self):
        """Chaos-free serializations stay byte-compatible with the
        pre-chaos format: no chaos, reconnect, or resync keys."""
        report, loadgen = self._run(None, max_reconnects=0)
        for text in (report.to_json(), loadgen.to_json()):
            assert '"chaos_drops"' not in text
            assert '"reconnects"' not in text
            assert '"resyncs"' not in text
            assert '"handshake_errors"' not in text
            assert '"unclean_closes"' not in text
