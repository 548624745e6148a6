"""WAL wiring behind AuthorizationService and CoalitionServer."""

import os

from repro.coalition import (
    ACLEntry,
    Coalition,
    CoalitionServer,
    Domain,
    build_joint_request,
)
from repro.coalition.audit import AuditLog
from repro.pki import ValidityPeriod
from repro.service import AuthorizationService
from repro.storage.recovery import recover
from repro.storage.wal import list_segments


def _coalition(server, key_bits=128):
    domains = [Domain(f"SD{i}", key_bits=key_bits) for i in (1, 2, 3)]
    users = [
        d.register_user(f"SUser{i}", now=0)
        for i, d in enumerate(domains, start=1)
    ]
    coalition = Coalition("svc-wal", key_bits=key_bits)
    coalition.form(domains)
    coalition.attach_server(server)
    return coalition, users


def _run_traffic(service, coalition, users, n, start_now=1):
    tac = coalition.authority.issue_threshold_certificate(
        users, 1, "G_read", 0, ValidityPeriod(0, 10**9)
    )
    for i in range(n):
        request = build_joint_request(
            users[0], [], "read", "ObjW", tac,
            now=start_now + i, nonce=f"svcwal-{start_now + i}",
        )
        service.submit(request, now=start_now + i)
    if service.mode == "manual":
        service.pump()


class TestServiceWal:
    def test_every_decision_lands_in_the_wal(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        service = AuthorizationService(
            mode="manual", wal_dir=wal_dir, wal_sync_every=4
        )
        coalition, users = _coalition(service)
        service.register_object(
            "ObjW", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        _run_traffic(service, coalition, users, 10)
        assert len(service.audit_log) == 10
        service.close()
        recovered = recover(wal_dir, truncate=False)
        assert recovered.clean
        assert len(recovered.entries) == 10
        # The policy publish for ObjW was recorded as an epoch record.
        assert any(
            r.kind == "policy" and r.detail == "ObjW"
            for r in recovered.epoch_records
        )
        AuditLog.verify_chain(
            recovered.entries, service.audit_log.public_key
        )

    def test_restart_resumes_the_same_chain(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        service = AuthorizationService(
            mode="manual", wal_dir=wal_dir
        )
        coalition, users = _coalition(service)
        service.register_object(
            "ObjW", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        _run_traffic(service, coalition, users, 5)
        public = service.audit_log.public_key
        tail = service.audit_log.entries()[-1].digest()
        service.close()

        service2 = AuthorizationService(
            mode="manual", wal_dir=wal_dir
        )
        assert service2.recovered is not None and service2.recovered.clean
        assert len(service2.audit_log) == 5
        assert service2.audit_log.public_key == public
        coalition2, users2 = _coalition(service2)
        service2.register_object(
            "ObjW", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        _run_traffic(service2, coalition2, users2, 3, start_now=100)
        entries = service2.audit_log.entries()
        assert entries[5].previous_digest == tail
        service2.close()
        final = recover(wal_dir, truncate=False)
        assert final.clean and len(final.entries) == 8
        AuditLog.verify_chain(final.entries, public, expected_length=8)

    def test_restart_heals_torn_tail(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        service = AuthorizationService(
            mode="manual", wal_dir=wal_dir
        )
        coalition, users = _coalition(service)
        service.register_object(
            "ObjW", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        _run_traffic(service, coalition, users, 6)
        service.close()
        seg = list_segments(wal_dir)[-1]
        with open(seg, "ab") as handle:
            handle.truncate(os.path.getsize(seg) - 5)

        service2 = AuthorizationService(
            mode="manual", wal_dir=wal_dir
        )
        assert service2.recovered.torn is not None
        assert len(service2.audit_log) == 5
        service2.close()

    def test_wal_bound_log_keeps_entries_only_in_the_wal(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        service = AuthorizationService(
            mode="threaded", wal_dir=wal_dir
        )
        coalition, users = _coalition(service)
        service.register_object(
            "ObjW", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        _run_traffic(service, coalition, users, 12)
        log = service.audit_log
        assert log._entries == [] and len(log) == 12
        live = log.entries()
        assert live == recover(wal_dir, truncate=False).entries
        assert [e.sequence for e in live] == list(range(12))
        log.verify(expected_length=12)
        service.close()
        assert log.entries() == live, "a closed WAL still reads back"

    def test_threaded_mode_appends_through_audit_lock(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        service = AuthorizationService(
            mode="threaded", wal_dir=wal_dir
        )
        coalition, users = _coalition(service)
        service.register_object(
            "ObjW", [ACLEntry.of("G_read", ["read"])], admin_group="G_admin"
        )
        _run_traffic(service, coalition, users, 40)
        assert service.drain(timeout=30.0)
        service.close()
        recovered = recover(wal_dir, truncate=False)
        assert recovered.clean
        assert len(recovered.entries) == 40
        # Every append went through one audit lock, so the on-disk
        # order IS the chain order.
        AuditLog.verify_chain(
            recovered.entries, service.audit_log.public_key
        )


class TestCoalitionServerWal:
    def test_server_decisions_and_revocations_recorded(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        server = CoalitionServer("ServerP", wal_dir=wal_dir)
        coalition, users = _coalition(server)
        server.create_object(
            "ObjW", b"content",
            [ACLEntry.of("G_read", ["read"]), ACLEntry.of("G_write", ["write"])],
            admin_group="G_admin",
        )
        validity = ValidityPeriod(0, 10**9)
        read_tac = coalition.authority.issue_threshold_certificate(
            users, 1, "G_read", 0, validity
        )
        victim = coalition.authority.issue_threshold_certificate(
            users, 2, "G_victim", 0, validity
        )
        granted = server.handle_request(
            build_joint_request(
                users[0], [], "read", "ObjW", read_tac, now=1, nonce="cs-1"
            ),
            now=2,
        )
        assert granted.granted
        denied = server.handle_request(
            build_joint_request(
                users[0], [], "write", "ObjW", read_tac, now=3, nonce="cs-2"
            ),
            now=4,
            write_content=b"x",
        )
        assert not denied.granted
        revocation = coalition.authority.revoke_certificate(victim, now=5)
        server.receive_revocation(revocation, now=5)
        server.close()

        recovered = recover(wal_dir, truncate=False)
        assert recovered.clean
        assert len(recovered.entries) == 2
        assert recovered.entries[0].granted
        assert not recovered.entries[1].granted
        assert [r.kind for r in recovered.epoch_records] == ["revocation"]
        assert recovered.epoch_records[0].detail == victim.serial
        AuditLog.verify_chain(
            recovered.entries, server.audit_log.public_key
        )
