"""Tests for the injectable disk fault plane and crash points (repro.chaos)."""

from __future__ import annotations

import errno
import io
import os

import pytest

from repro import chaos
from repro.chaos import CrashPointRegistry, DiskFaults, FaultPlane, seeded_roll
from repro.io.atomic import atomic_write_bytes, atomic_write_text
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    chaos.uninstall()


# ----------------------------------------------------------------- schedule


def test_seeded_roll_is_deterministic():
    draws = [seeded_roll(7, "eio", f"journal:write-{i}", 0.3) for i in range(200)]
    again = [seeded_roll(7, "eio", f"journal:write-{i}", 0.3) for i in range(200)]
    assert draws == again
    assert any(draws) and not all(draws)


def test_seeded_roll_varies_with_seed_and_kind():
    keys = [f"k-{i}" for i in range(500)]
    a = [seeded_roll(1, "eio", k, 0.2) for k in keys]
    b = [seeded_roll(2, "eio", k, 0.2) for k in keys]
    c = [seeded_roll(1, "enospc", k, 0.2) for k in keys]
    assert a != b
    assert a != c


def test_zero_rate_never_fires():
    assert not any(seeded_roll(9, "torn", f"k-{i}", 0.0) for i in range(1000))


def test_rate_one_always_fires():
    assert all(seeded_roll(9, "torn", f"k-{i}", 1.0) for i in range(100))


# ------------------------------------------------------------------- config


def test_disk_config_validates_rates():
    with pytest.raises(ValueError):
        DiskFaults(eio_rate=1.5)
    with pytest.raises(ValueError):
        DiskFaults(slow_seconds=-1)


def test_disabled_when_all_rates_zero():
    assert not DiskFaults().enabled
    assert DiskFaults(torn_rate=0.01).enabled


# -------------------------------------------------------------------- plane


def test_passthrough_without_plane(tmp_path):
    path = tmp_path / "plain.txt"
    with open(path, "w") as handle:
        chaos.write(handle, "hello", label="plain")
        chaos.fsync(handle.fileno(), label="plain")
    assert path.read_text() == "hello"


def test_enospc_injection_writes_nothing():
    plane = FaultPlane(DiskFaults(enospc_rate=1.0, seed=1))
    buffer = io.StringIO()
    with pytest.raises(OSError) as excinfo:
        plane.write(buffer, "payload", label="test")
    assert excinfo.value.errno == errno.ENOSPC
    assert buffer.getvalue() == ""


def test_torn_injection_writes_a_strict_prefix():
    plane = FaultPlane(DiskFaults(torn_rate=1.0, seed=1))
    buffer = io.StringIO()
    with pytest.raises(OSError) as excinfo:
        plane.write(buffer, "0123456789", label="test")
    assert excinfo.value.errno == errno.EIO
    written = buffer.getvalue()
    assert 0 < len(written) < 10
    assert "0123456789".startswith(written)


def test_fsync_injection_raises_eio(tmp_path):
    plane = FaultPlane(DiskFaults(fsync_rate=1.0, seed=1))
    with open(tmp_path / "f", "w") as handle:
        with pytest.raises(OSError) as excinfo:
            plane.fsync(handle.fileno(), label="test")
    assert excinfo.value.errno == errno.EIO


def test_faults_are_transient_per_operation_counter():
    # A fresh key per operation means a partial rate eventually passes —
    # the degraded-mode probe loop relies on exactly this.
    plane = FaultPlane(DiskFaults(eio_rate=0.5, seed=11))
    outcomes = []
    for _ in range(50):
        buffer = io.StringIO()
        try:
            plane.write(buffer, "x", label="probe")
        except OSError:
            outcomes.append(False)
        else:
            outcomes.append(True)
    assert any(outcomes) and not all(outcomes)


def test_plane_counts_fired_faults_into_metrics():
    metrics = MetricsRegistry()
    plane = FaultPlane(DiskFaults(eio_rate=1.0, seed=1), metrics=metrics)
    with pytest.raises(OSError):
        plane.write(io.StringIO(), "x", label="test")
    snapshot = metrics.as_dict()["counters"]
    assert snapshot["chaos.faults_injected"] == 1
    assert snapshot["chaos.disk_eio"] == 1


def test_install_uninstall_routing(tmp_path):
    plane = FaultPlane(DiskFaults(eio_rate=1.0, seed=1))
    chaos.install(plane)
    assert chaos.active() is plane
    with open(tmp_path / "f", "w") as handle:
        with pytest.raises(OSError):
            chaos.write(handle, "x", label="test")
    chaos.uninstall()
    assert chaos.active() is None
    with open(tmp_path / "f", "w") as handle:
        chaos.write(handle, "x", label="test")


def test_atomic_write_survives_transient_faults(tmp_path):
    # atomic_write_* goes through the plane: with a partial fault rate the
    # target is either absent or complete, never torn.
    chaos.install(FaultPlane(DiskFaults(torn_rate=0.4, eio_rate=0.2, seed=5)))
    path = tmp_path / "out.json"
    wrote = 0
    for attempt in range(30):
        try:
            atomic_write_text(path, f"payload-{attempt}")
        except OSError:
            continue
        wrote += 1
        assert path.read_text() == f"payload-{attempt}"
    assert wrote > 0
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []


def test_atomic_write_bytes_under_enospc(tmp_path):
    chaos.install(FaultPlane(DiskFaults(enospc_rate=1.0, seed=5)))
    with pytest.raises(OSError):
        atomic_write_bytes(tmp_path / "never.bin", b"data")
    chaos.uninstall()
    assert not (tmp_path / "never.bin").exists()


# ------------------------------------------------------------- crash points


def test_crash_registry_counts_without_arming():
    registry = CrashPointRegistry(environ={})
    registry.hit("journal.sync.before_fsync")
    registry.hit("journal.sync.before_fsync")
    assert registry.seen["journal.sync.before_fsync"] == 2
    assert registry.armed is None


def test_crash_registry_arms_from_environment():
    registry = CrashPointRegistry(
        environ={
            chaos.ENV_CRASH_POINT: "snapshot.before_replace",
            chaos.ENV_CRASH_POINT_SKIP: "2",
        }
    )
    assert registry.armed == "snapshot.before_replace"
    assert registry.skip == 2
    # Two skipped crossings survive; a third would _exit (not tested
    # in-process — the torture harness covers the kill in a subprocess).
    registry.hit("snapshot.before_replace")
    registry.hit("snapshot.before_replace")
    assert registry.skip == 0


def test_crash_registry_ignores_other_points():
    registry = CrashPointRegistry(environ={chaos.ENV_CRASH_POINT: "a.b"})
    registry.hit("c.d")  # would _exit if name matched
    assert registry.seen == {"c.d": 1}


def test_crash_point_exit_code_is_distinctive():
    assert chaos.CRASH_EXIT_CODE == 86
    assert chaos.CRASH_EXIT_CODE not in (0, 1, 2)
    assert os.WEXITSTATUS(chaos.CRASH_EXIT_CODE << 8) == 86
