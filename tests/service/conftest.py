"""Service-layer fixtures: a coalition fronted by AuthorizationService."""

import pytest

from repro.coalition import ACLEntry, Coalition
from repro.pki import ValidityPeriod
from repro.service import AuthorizationService

WINDOW = 10**9

ACL_ENTRIES = [
    ACLEntry.of("G_read", ["read"]),
    ACLEntry.of("G_write", ["write"]),
]


@pytest.fixture()
def service_coalition(three_domains):
    """One formed coalition plus a factory for attached services.

    Returns ``(ctx, make_service)`` where ``ctx`` carries the
    coalition, users and live read/write certificates, and
    ``make_service(...)`` attaches a fresh service (ObjectO/ObjectP
    registered) to the same coalition — so several services, and any
    hand-built oracle protocol, all verify the same certificates.
    """
    domains, users = three_domains
    coalition = Coalition("svc-test", key_bits=256)
    coalition.form(domains)
    validity = ValidityPeriod(0, WINDOW)
    ctx = {
        "coalition": coalition,
        "users": users,
        "read_cert": coalition.authority.issue_threshold_certificate(
            users, 1, "G_read", 0, validity
        ),
        "write_cert": coalition.authority.issue_threshold_certificate(
            users, 2, "G_write", 0, validity
        ),
    }
    built = []

    def make_service(
        mode="manual",
        queue_depth=8,
        freshness_window=WINDOW,
        objects=("ObjectO", "ObjectP"),
        **service_kwargs,
    ):
        service = AuthorizationService(
            name="ServiceP",
            queue_depth=queue_depth,
            freshness_window=freshness_window,
            mode=mode,
            **service_kwargs,
        )
        coalition.attach_server(service)
        for obj in objects:
            service.register_object(obj, ACL_ENTRIES, admin_group="G_admin")
        built.append(service)
        return service

    yield ctx, make_service
    for service in built:
        service.close()
