"""Grant proofs of a seeded request stream, pinned.

A decision WAL records each grant's ``proof.digest()``; replaying it
recomputes the digest and fails on a mismatch (DESIGN §13).  So a
faster derivation must build the very same proof trees and receipts.
This test runs one seeded stream of about 200 requests through
:class:`AuthorizationProtocol` on a coalition whose keys come from a
seeded generator, and compares every decision with the record in
``pinned_proofs.json``: for a grant its proof digest,
``derivation_steps`` and receipts digest, for a deny its reason.

The stream holds 1-of-3 reads, 2-of-3 writes, a replay, requests whose
two parts come from one user, and an identity certificate re-issued
after the CA revoked it.  To record the file again (only for a change
meant to alter proofs), run this module as a script from the repository
root with ``PYTHONPATH=src``.
"""

import json
import pathlib
import random
import sys

import pytest

from repro.coalition import (
    ACLEntry,
    Coalition,
    CoalitionServer,
    Domain,
    build_joint_request,
)
from repro.coalition.protocol import _receipts_digest
from repro.crypto import (
    biprimality,
    boneh_franklin,
    numtheory,
    refresh,
    sharing,
    threshold,
)
from repro.pki import ValidityPeriod

PINNED = pathlib.Path(__file__).with_name("pinned_proofs.json")
SEED = 2302
REQUESTS = 200


class _SeededSecrets:
    """The two ``secrets`` calls key generation makes, from one seed."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def randbits(self, k):
        return self._rng.getrandbits(k)

    def randbelow(self, n):
        return self._rng.randrange(n)


def _form(seed):
    """A 3-domain coalition whose every key is a function of ``seed``."""
    seeded = _SeededSecrets(seed)
    with pytest.MonkeyPatch.context() as patch:
        for module in (biprimality, boneh_franklin, numtheory, refresh, sharing, threshold):
            patch.setattr(module, "secrets", seeded)
        domains = [Domain(f"D{i}", key_bits=256) for i in (1, 2, 3)]
        users = [
            d.register_user(f"User_D{i}", now=0)
            for i, d in enumerate(domains, start=1)
        ]
        coalition = Coalition("pinned", key_bits=256)
        coalition.form(domains)
    server = CoalitionServer("ServerP")
    coalition.attach_server(server)
    server.create_object(
        "ObjectO",
        b"content",
        [ACLEntry.of("G_write", ["write"]), ACLEntry.of("G_read", ["read"])],
        admin_group="G_admin",
    )
    return coalition, server, domains, users


def record(seed=SEED, total=REQUESTS):
    """One line per request: the decision's pinned fields."""
    coalition, server, domains, users = _form(seed)
    protocol = server.protocol
    acl = server.object_acl("ObjectO")
    authority = coalition.authority
    validity = ValidityPeriod(0, 10_000)
    read_cert = authority.issue_threshold_certificate(users, 1, "G_read", 0, validity)
    write_cert = authority.issue_threshold_certificate(users, 2, "G_write", 0, validity)
    rng = random.Random(seed)
    lines = []
    last_grant = None
    for i in range(total):
        now = i + 1
        if i == 80:
            # The CA of D3 revokes User_D3's identity certificate ...
            protocol.apply_revocation(
                domains[2].ca.revoke(users[2].identity_certificate.serial, now=now),
                now=now,
            )
        if i == 120:
            # ... and re-issues one for the same key, with a fresh
            # write certificate stated after the revocation.
            domains[2].reissue_identity(users[2], now=now)
            write_cert = authority.issue_threshold_certificate(
                users, 2, "G_write", now, ValidityPeriod(now, 10_000)
            )
        roll = rng.random()
        if i % 50 == 49 and last_grant is not None:
            request = last_grant  # a replay of an accepted request
        elif i % 25 == 7:
            user = rng.choice(users)
            cert = write_cert if rng.random() < 0.5 else read_cert
            op = "write" if cert is write_cert else "read"
            request = build_joint_request(
                user, [user], op, "ObjectO", cert, now=now, nonce=f"same-{i}"
            )
        elif roll < 0.45:
            request = build_joint_request(
                rng.choice(users), [], "read", "ObjectO", read_cert,
                now=now, nonce=f"r-{i}",
            )
        else:
            first, second = rng.sample(users, 2)
            request = build_joint_request(
                first, [second], "write", "ObjectO", write_cert,
                now=now, nonce=f"w-{i}",
            )
        decision = protocol.authorize(request, acl, now)
        signers = request.signer_names()
        if decision.granted:
            last_grant = request
            lines.append(
                {
                    "now": now,
                    "signers": signers,
                    "proof": decision.proof.digest().hex(),
                    "steps": decision.derivation_steps,
                    "receipts": _receipts_digest(decision.receipts).hex(),
                }
            )
        else:
            lines.append({"now": now, "signers": signers, "denied": decision.reason})
    return lines


def test_stream_covers_every_case():
    pinned = json.loads(PINNED.read_text())
    reasons = [line.get("denied", "") for line in pinned]
    assert sum("proof" in line for line in pinned) >= 150
    assert any("replayed" in reason for reason in reasons)
    assert any("derivation failed" in reason for reason in reasons)
    assert any(
        len(set(line["signers"])) < len(line["signers"]) for line in pinned
    )
    # User_D3 is denied after the revocation and granted after the re-issue.
    d3 = [line for line in pinned if "User_D3" in line["signers"]]
    assert any("key binding for K_User_D3" in line.get("denied", "") for line in d3)
    assert any("proof" in line for line in d3 if line["now"] > 121)


def test_grant_proofs_match_the_record():
    pinned = json.loads(PINNED.read_text())
    got = record()
    assert len(got) == len(pinned)
    for line, expected in zip(got, pinned):
        assert line == expected, f"request at now={expected['now']} changed"


if __name__ == "__main__":
    sys.stdout.write(
        "[\n" + ",\n".join(json.dumps(line, sort_keys=True) for line in record()) + "\n]\n"
    )
