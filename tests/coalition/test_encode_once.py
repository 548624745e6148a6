"""A warm request encodes its signed parts only, not its certificates.

A certificate's canonical bytes, subject key and key id are memoized on
the frozen object, and the wire decoder hands a repeated certificate
back as one shared object, so what a request brings that is new is its
signed parts.  Every signature is still verified on every request.
"""

import json

import pytest

from repro.coalition import build_joint_request, requests
from repro.crypto.boneh_franklin import SharedRSAPublicKey
from repro.crypto.rsa import RSAPublicKey
from repro.pki import certificates
from repro.service.wire import request_from_dict, request_to_dict

REQUESTS = 200


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("via_wire", [False, True], ids=["inproc", "wire"])
def test_canonical_bytes_once_per_signed_part(
    formed_coalition, read_certificate, write_certificate, monkeypatch, via_wire
):
    _c, server, _d, users = formed_coalition

    def request(i):
        if i % 2:
            return build_joint_request(
                users[0], [users[1]], "write", "ObjectO", write_certificate,
                now=i, nonce=f"enc-{i}",
            )
        return build_joint_request(
            users[0], [], "read", "ObjectO", read_certificate,
            now=i, nonce=f"enc-{i}",
        )

    def handle(req, now):
        if via_wire:
            req = request_from_dict(json.loads(json.dumps(request_to_dict(req))))
        decision = server.handle_request(req, now=now, write_content=b"w").decision
        assert decision.granted, decision.reason
        return req

    handle(request(1), 1)
    handle(request(2), 2)  # warm: both certificates admitted and encoded
    batch = [request(i) for i in range(3, 3 + REQUESTS)]
    encodes, verifies = [], []
    for owner in (certificates, requests):
        _count_calls(monkeypatch, owner, "canonical_bytes", encodes)
    for key_type in (RSAPublicKey, SharedRSAPublicKey):
        _count_calls(monkeypatch, key_type, "verify", verifies)

    for now, req in enumerate(batch, start=3):
        handle(req, now)

    parts = sum(len(req.parts) for req in batch)
    assert len(encodes) == parts
    # Step 0 still checks every signature: identity certificates, the
    # threshold certificate and each part.
    signed = sum(len(req.identity_certificates) + 1 + len(req.parts) for req in batch)
    assert len(verifies) == signed
