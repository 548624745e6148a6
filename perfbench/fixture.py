"""Coalitions, services and signed requests for the benchmark.

Everything here goes through the public API of ``repro``: domains,
users, :class:`Coalition`, the coalition authority, the threaded
:class:`AuthorizationService` and :class:`CoalitionServer`.  Users and
certificates are valid for ``10**9`` ticks and the replay window is as
wide, so no request is ever denied for expiry or staleness: the only
denies are the ones the plan expects.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.coalition import (
    ACLEntry,
    Coalition,
    CoalitionServer,
    Domain,
    build_joint_request,
)
from repro.pki import ValidityPeriod
from repro.service.service import AuthorizationService

from plan import NUM_OBJECTS, Op, cert_kind

KEY_BITS = 256
FOREVER = 10**9
OBJECTS = [f"Obj{i}" for i in range(NUM_OBJECTS)]
ACL = [ACLEntry.of("G_read", ["read"]), ACLEntry.of("G_write", ["write"])]


@dataclass
class Population:
    """Three domains, their users and the formed coalition."""

    coalition: Coalition
    users: List[object]  # domain-major: users[d * per_domain + k]
    per_domain: int
    form_s: float

    def subjects(self, cert: int) -> List[object]:
        """Certificate ``cert``'s subjects: one user from each domain.

        A revocation defeats the membership statement (subjects, group,
        threshold), not just one certificate, so every read or write
        certificate gets its own set of subjects.
        """
        p = self.per_domain
        m = cert // 2
        if m >= p ** 3:
            raise ValueError(f"{p} users per domain give only {2 * p ** 3} certificates")
        picks = (m % p, (m // p) % p, (m // (p * p)) % p)
        return [self.users[d * p + k] for d, k in enumerate(picks)]


def form_population(per_domain: int = 1) -> Population:
    domains = [Domain(f"BD{i}", key_bits=KEY_BITS) for i in (1, 2, 3)]
    users = [
        domain.register_user(f"BUser{d}{k}", now=0, validity_ticks=FOREVER)
        for d, domain in enumerate(domains, start=1)
        for k in range(per_domain)
    ]
    coalition = Coalition("perfbench", key_bits=KEY_BITS)
    t0 = time.perf_counter()
    coalition.form(domains)
    form_s = time.perf_counter() - t0
    return Population(coalition, users, per_domain, form_s)


def issue(population: Population, cert: int):
    """Certificate ``cert``: 1-of-3 ``G_read`` or 2-of-3 ``G_write``."""
    read = cert_kind(cert) == "read"
    return population.coalition.authority.issue_threshold_certificate(
        population.subjects(cert), 1 if read else 2,
        "G_read" if read else "G_write", 0, ValidityPeriod(0, FOREVER),
    )


def new_service(population: Population, shards: int, **kwargs) -> AuthorizationService:
    service = AuthorizationService(
        name="ServiceP",
        num_shards=shards,
        freshness_window=FOREVER,
        mode="threaded",
        **kwargs,
    )
    population.coalition.attach_server(service)
    for name in OBJECTS:
        service.register_object(name, ACL, admin_group="G_admin")
    return service


def new_sequential_server(population: Population) -> CoalitionServer:
    server = CoalitionServer("ServerP", freshness_window=FOREVER)
    population.coalition.attach_server(server)
    for name in OBJECTS:
        server.create_object(name, b"perfbench", ACL, admin_group="G_admin")
    return server


@dataclass
class Signer:
    """Turns plan ops into signed requests (client-side work)."""

    users: List[object]  # the requestor first, then the co-signer
    certs: Dict[int, object]  # certificate id -> certificate; -1/-2 shared
    subjects_of: Optional[object] = None  # cert id -> subjects (churn)
    tag: str = "p"
    _signed: Dict[int, object] = field(default_factory=dict)

    def request(self, op: Op):
        """The signed request for ``op``; a replay returns its original."""
        if op.replay_of >= 0:
            return self._signed[op.replay_of]
        if op.cert >= 0:
            signers = self.subjects_of(op.cert)
            cert = self.certs[op.cert]
        else:
            signers = self.users
            cert = self.certs[-1 if op.op == "read" else -2]
        co_signers = [] if op.op == "read" else [signers[1]]
        request = build_joint_request(
            signers[0], co_signers, op.op, OBJECTS[op.obj], cert,
            now=op.index + 1, nonce=f"{self.tag}-{op.index}",
        )
        self._signed[op.index] = request
        return request


def edge_signer(users, read_cert, write_cert, tag: str = "e") -> Signer:
    return Signer(users=list(users[:2]), certs={-1: read_cert, -2: write_cert}, tag=tag)


def run_dir(root: str) -> str:
    """Scratch directory inside the checkout for WAL segments and spans."""
    path = os.path.join(root, ".perfbench_run")
    os.makedirs(path, exist_ok=True)
    return path

