"""Fleet health machinery: transport-error classification, the
circuit-breaker state machine (threshold, half-open trial, cooldown
doubling), per-backend state folding, and the background prober's
up/degraded/down verdicts against live and dead endpoints."""

import http.client
import time

import pytest

from repro.service import (BackendHealth, BatchEngine, CircuitBreaker,
                           DesignCache, FleetHealth, ServerThread)
from repro.service.health import (STATE_VALUES, backoff_delays,
                                  classify_error)


class TestClassifyError:
    @pytest.mark.parametrize("exc, expected", [
        (ConnectionRefusedError(), "refused"),
        (ConnectionResetError(), "reset"),
        (BrokenPipeError(), "reset"),
        (ConnectionAbortedError(), "reset"),
        (http.client.RemoteDisconnected("gone"), "reset"),
        (TimeoutError(), "timeout"),
        (http.client.BadStatusLine("I AM NOT HTTP"), "protocol"),
        (OSError("no route"), "os_error"),
        (RuntimeError("misc"), "error"),
    ])
    def test_classes(self, exc, expected):
        assert classify_error(exc) == expected


class TestBackoffDelays:
    def test_jittered_exponential_capped(self):
        delays = backoff_delays(base_s=0.1, max_s=0.4, factor=2.0)
        first = next(delays)
        assert 0.05 <= first <= 0.15
        for expected in (0.2, 0.4, 0.4, 0.4):
            value = next(delays)
            assert expected * 0.5 <= value <= expected * 1.5

    def test_client_retries_pause_on_the_same_policy(self, monkeypatch):
        """ServiceClient's transport retries draw their pauses from
        backoff_delays: min(1 s, 20 ms·2ⁿ), jittered 0.5–1.5x."""
        import socket

        from repro.service import client as client_module

        pauses = []
        monkeypatch.setattr(client_module.time, "sleep", pauses.append)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = client_module.ServiceClient(port=port, retries=8)
        with pytest.raises(ConnectionRefusedError):
            client.request("GET", "/healthz")
        # GETs get 2 + retries attempts, so one pause fewer
        assert len(pauses) == 9
        for n, pause in enumerate(pauses):
            expected = min(1.0, 0.02 * 2 ** n)
            assert expected * 0.5 <= pause <= expected * 1.5


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("b0", threshold=3, cooldown_s=60)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allows()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("b0", threshold=3, cooldown_s=60)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_admits_one_trial(self):
        breaker = CircuitBreaker("b0", threshold=1, cooldown_s=0.01,
                                 max_cooldown_s=0.01)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.02)
        assert breaker.allows()          # open -> half_open, one trial
        assert breaker.state == "half_open"
        assert not breaker.allows()      # no second trial
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allows()

    def test_failed_trial_reopens(self):
        breaker = CircuitBreaker("b0", threshold=1, cooldown_s=0.01,
                                 max_cooldown_s=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_cooldown_doubles_per_trip_up_to_cap(self):
        breaker = CircuitBreaker("b0", threshold=1, cooldown_s=0.05,
                                 max_cooldown_s=0.2)
        for expected in (0.05, 0.1, 0.2, 0.2):
            before = time.monotonic()
            breaker.record_failure()
            assert breaker.state == "open"
            cooldown = breaker._retry_at - before
            assert cooldown == pytest.approx(expected, rel=0.1)
            # expire the cooldown so the next round starts half_open
            breaker._retry_at = time.monotonic()
            assert breaker.allows()

    def test_transitions_metric_counts(self):
        from repro.obs import get_registry
        breaker = CircuitBreaker("metric-test", threshold=1,
                                 cooldown_s=60)
        breaker.record_failure()
        snapshot = get_registry().snapshot()
        from repro.obs.history import snapshot_value
        assert snapshot_value(snapshot, "repro_breaker_transitions_total",
                              backend="metric-test", to="open") == 1.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestBackendHealth:
    def test_state_folds_breaker_and_probe(self):
        backend = BackendHealth("http://x", threshold=2, cooldown_s=60)
        assert backend.state == "up"  # optimistic start
        backend.record_failure("probe: refused")
        assert backend.state == "degraded"  # failing but not tripped
        backend.record_failure()
        assert backend.state == "down"      # breaker open
        assert backend.to_dict()["breaker"]["state"] == "open"
        assert backend.to_dict()["last_error"] == "probe: refused"
        backend.breaker._retry_at = 0.0
        backend.allows()                    # half_open trial
        assert backend.state == "degraded"  # mid-recovery
        backend.record_success()
        assert backend.state == "up"
        assert "last_error" not in backend.to_dict()

    def test_state_gauge_values(self):
        assert STATE_VALUES == {"up": 2.0, "degraded": 1.0, "down": 0.0}


class TestFleetHealth:
    def test_overall_verdicts(self):
        fleet = FleetHealth(["http://a", "http://b"], probe_interval_s=0,
                            threshold=1)
        assert fleet.overall() == "up"
        fleet.record(1, False, "refused")
        assert fleet.overall() == "degraded"
        fleet.record(0, False)
        assert fleet.overall() == "down"
        fleet.record(0, True)
        fleet.record(1, True)
        assert fleet.overall() == "up"

    def test_prober_marks_dead_backend_down(self, tmp_path):
        live = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "cache"))).start()
        try:
            fleet = FleetHealth([live.url, "http://127.0.0.1:9"],
                                probe_interval_s=0.1, threshold=2)
            fleet.start()
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if (fleet.state(0) == "up"
                            and fleet.state(1) == "down"):
                        break
                    time.sleep(0.02)
                assert fleet.state(0) == "up"
                assert fleet.state(1) == "down"
                assert fleet.overall() == "degraded"
                assert "refused" in fleet.describe(1)["last_error"] \
                    or "Connection" in fleet.describe(1)["last_error"]
            finally:
                fleet.stop()
        finally:
            live.stop()

    def test_probe_interval_zero_disables_thread(self):
        fleet = FleetHealth(["http://127.0.0.1:9"], probe_interval_s=0)
        fleet.start()
        assert fleet._thread is None
        fleet.stop()

    def test_manual_probe_records_verdict(self, tmp_path):
        live = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "cache"))).start()
        try:
            fleet = FleetHealth([live.url, "http://127.0.0.1:9"],
                                probe_interval_s=0, threshold=1)
            assert fleet.probe(0) is True
            assert fleet.probe(1) is False
            assert fleet.state(0) == "up"
            assert fleet.state(1) == "down"
        finally:
            live.stop()
