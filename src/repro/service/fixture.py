"""The three-domain read/write coalition the CLI, replay and benches serve.

:func:`attach_coalition` forms three domains into a coalition, attaches
a service the caller has already built, registers ``Obj0..Obj{n-1}``
with ``G_read``/``G_write`` ACLs, and issues a 1-of-3 read certificate
and a 2-of-3 write certificate.  The caller owns the service (mode,
queue depth, WAL, chaos, tracing), so no second config object mirrors its
keywords.

:meth:`CoalitionFixture.stream` is the deterministic request stream
over that coalition, a function of its arguments alone: a read
(granted), a write presented with the read certificate (a genuine
deny), or a co-signed write (granted), with a revocation of a
``G_victim`` certificate published before every ``revoke_every``-th
arrival.  No request traffic uses ``G_victim``, so revocations add
epochs without flipping the grant mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..coalition import ACLEntry, Coalition, Domain, build_joint_request
from ..coalition.requests import JointAccessRequest
from ..pki import ValidityPeriod
from .service import AuthorizationService

__all__ = ["CoalitionFixture", "attach_coalition"]

VALIDITY = ValidityPeriod(0, 10**9)


@dataclass
class CoalitionFixture:
    """A formed coalition attached to a service, with its certificates."""

    service: AuthorizationService
    coalition: Coalition
    users: List[object]
    object_names: List[str]
    read_cert: object
    write_cert: object

    def stream(
        self,
        total: int,
        seed: int = 0,
        read_fraction: float = 0.5,
        deny_fraction: float = 0.0,
        revoke_every: int = 0,
    ) -> Iterator[Tuple[int, JointAccessRequest]]:
        """Yield ``(now, request)`` for arrivals ``0..total-1``.

        Arrival ``i`` is due at ``now = i + 1``.  Before arrival ``i``
        (``i`` a non-zero multiple of ``revoke_every``) a fresh victim
        certificate is revoked and published to the service at
        ``now = i``, so the epoch boundary falls between arrivals.
        """
        rng = random.Random(seed)
        authority = self.coalition.authority
        users = self.users
        for i in range(total):
            if revoke_every and i and i % revoke_every == 0:
                victim = authority.issue_threshold_certificate(
                    users, 2, "G_victim", 0, VALIDITY
                )
                revocation = authority.revoke_certificate(victim, now=i)
                self.service.publish_revocation(revocation, now=i)
            obj = rng.choice(self.object_names)
            now = i + 1
            roll = rng.random()
            if roll < read_fraction:
                request = build_joint_request(
                    users[0], [], "read", obj,
                    self.read_cert, now=now, nonce=f"fx-r-{i}",
                )
            elif roll < read_fraction + deny_fraction:
                # The read certificate cannot authorize a write: denied.
                request = build_joint_request(
                    users[0], [], "write", obj,
                    self.read_cert, now=now, nonce=f"fx-d-{i}",
                )
            else:
                request = build_joint_request(
                    users[0], [users[1]], "write", obj,
                    self.write_cert, now=now, nonce=f"fx-w-{i}",
                )
            yield now, request


def attach_coalition(
    service: AuthorizationService, num_objects: int = 8, key_bits: int = 256
) -> CoalitionFixture:
    """Form the coalition around ``service`` and return its fixture."""
    domains = [Domain(f"D{i}", key_bits=key_bits) for i in (1, 2, 3)]
    users = [
        d.register_user(f"User_D{i}", now=0)
        for i, d in enumerate(domains, start=1)
    ]
    coalition = Coalition("fixture", key_bits=key_bits)
    coalition.form(domains)
    coalition.attach_server(service)
    object_names = [f"Obj{i}" for i in range(num_objects)]
    for name in object_names:
        service.register_object(
            name,
            [ACLEntry.of("G_read", ["read"]), ACLEntry.of("G_write", ["write"])],
            admin_group="G_admin",
        )
    return CoalitionFixture(
        service=service,
        coalition=coalition,
        users=users,
        object_names=object_names,
        read_cert=coalition.authority.issue_threshold_certificate(
            users, 1, "G_read", 0, VALIDITY
        ),
        write_cert=coalition.authority.issue_threshold_certificate(
            users, 2, "G_write", 0, VALIDITY
        ),
    )
