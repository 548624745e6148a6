"""Replay parity: a recovered WAL re-derives itself byte-for-byte.

The sequential-oracle discipline of the service parity tests, applied
across a (simulated) process crash: record a mixed grant/deny/revoke
stream into a WAL, tear the tail, recover, and replay the manifest in
a completely fresh coalition — fresh domains, fresh (unseeded) RSA
keys, fresh service.  Every recovered entry's ``payload_bytes()`` must
equal its replayed twin's.
"""

import os

import pytest

from repro.coalition.audit import AuditLog
from repro.storage.recovery import recover
from repro.storage.replay import ReplayManifest, replay_wal, run_scenario
from repro.storage.wal import list_segments, public_key_from_doc

SMOKE = os.environ.get("SERVICE_BENCH_SMOKE") == "1"
TOTAL = 120 if SMOKE else 500


@pytest.mark.parametrize("sync_every", [1, 4])
def test_round_trip_mixed_stream(tmp_path, sync_every):
    """Parity holds whether the WAL syncs after every append or every
    fourth."""
    manifest = ReplayManifest(
        total_requests=TOTAL,
        num_objects=6,
        read_fraction=0.4,
        deny_fraction=0.2,
        revoke_every=40,
        key_bits=128,
        seed=11,
    )
    wal_dir = str(tmp_path / "wal")
    result = run_scenario(manifest, wal_dir, sync_every=sync_every)
    assert len(result.entries) == TOTAL
    # The stream is genuinely mixed.
    assert result.granted > 0
    assert result.denied > 0
    assert result.revocations_published > 0

    # Tear the tail mid-frame: drop into the final entry's frame.
    last = list_segments(wal_dir)[-1]
    with open(last, "ab") as handle:
        handle.truncate(os.path.getsize(last) - 13)

    report = replay_wal(wal_dir, replay_dir=str(tmp_path / "scratch"))
    assert report.torn
    assert report.chain_verified
    assert report.recovered_entries == TOTAL - 1
    assert report.replayed_entries == TOTAL
    assert report.entries_matched, (
        f"first mismatch at entry {report.mismatch_index}"
    )
    assert report.epoch_records_matched
    assert report.ok


def test_clean_wal_replays_identically(tmp_path):
    manifest = ReplayManifest(
        total_requests=60, revoke_every=20, key_bits=128, seed=5
    )
    wal_dir = str(tmp_path / "wal")
    run_scenario(manifest, wal_dir)
    report = replay_wal(wal_dir)
    assert not report.torn
    assert report.recovered_entries == report.replayed_entries == 60
    assert report.ok


def test_recovered_chain_verifies_against_meta_key(tmp_path):
    manifest = ReplayManifest(total_requests=30, key_bits=128, seed=2)
    wal_dir = str(tmp_path / "wal")
    run_scenario(manifest, wal_dir)
    recovered = recover(wal_dir, truncate=False)
    public = public_key_from_doc(recovered.meta["public_key"])
    AuditLog.verify_chain(
        recovered.entries, public, expected_length=30
    )


def test_tampered_entry_fails_parity(tmp_path):
    """A flipped grant bit survives framing but not the byte comparison.

    Re-signing a tampered entry with the (stolen) on-disk signer keeps
    the frame, the signature, and the entry's own chain link valid —
    only the *next* entry's previous-digest snaps, so recovery keeps
    the forged entry in its structural prefix.  Replay is the layer
    that catches it: the re-derived decision disagrees byte-for-byte
    at exactly the forged index.
    """
    import dataclasses

    from repro.storage.wal import (
        RT_ENTRY,
        WriteAheadLog,
        entry_to_payload,
        load_keypair,
    )

    manifest = ReplayManifest(total_requests=20, key_bits=128, seed=7)
    wal_dir = str(tmp_path / "wal")
    run_scenario(manifest, wal_dir)
    recovered = recover(wal_dir, truncate=False)
    meta = recovered.meta
    signer = load_keypair(os.path.join(wal_dir, "signer.json"))
    victim = recovered.entries[10]
    forged = dataclasses.replace(victim, granted=not victim.granted)
    forged = dataclasses.replace(
        forged, signature=signer.private.sign(forged.payload_bytes())
    )
    # Rewrite the log with the forged entry spliced in.
    for seg in list_segments(wal_dir):
        os.unlink(seg)
    wal = WriteAheadLog(wal_dir, sync_every=0)
    wal.append_meta(meta)
    for entry in recovered.entries:
        wal.append(
            RT_ENTRY,
            entry_to_payload(forged if entry.sequence == 10 else entry),
        )
    wal.close()
    healed = recover(wal_dir, truncate=True)
    # Entry 11's previous-digest snaps against the forged digest, so
    # the structural prefix keeps 11 entries — forged one included.
    assert healed.torn is not None
    assert len(healed.entries) == 11
    report = replay_wal(wal_dir)
    assert not report.entries_matched
    assert report.mismatch_index == 10
    assert not report.ok


def test_manifest_from_an_older_meta_drops_unknown_keys():
    """A META record written when the manifest still had a shard count
    loads: unknown keys are dropped."""
    manifest = ReplayManifest(total_requests=7, seed=3)
    doc = dict(manifest.as_dict(), num_shards=4)
    assert ReplayManifest.from_dict(doc) == manifest
