"""E4 companion — independent proof checking (decision audit) cost.

The server's decisions carry proof trees; an auditor re-validates them
by re-applying every cited axiom.  This bench measures that audit cost
next to the original derivation cost — auditing should be cheaper than
deriving (no crypto, no search, pure rule application).
"""

import itertools

from repro.coalition import build_joint_request
from repro.core.checker import ProofChecker

_nonce = itertools.count()


def _granted_decision(bench_coalition):
    users = bench_coalition["users"]
    server = bench_coalition["server"]
    cert = bench_coalition["write_cert"]
    request = build_joint_request(
        users[0], [users[1]], "write", "ObjectO", cert,
        now=1, nonce=f"audit-{next(_nonce)}",
    )
    decision = server.protocol.authorize(
        request, server.object_acl("ObjectO"), now=2
    )
    assert decision.granted
    return server, decision


def test_audit_structure_only(benchmark, bench_coalition):
    """Inference-structure check (no premise trust store)."""
    server, decision = _granted_decision(bench_coalition)
    aliases = server.protocol.engine.alias_map()

    def audit():
        checker = ProofChecker(accept_all_premises=True, aliases=aliases)
        assert checker.check(decision.proof)

    benchmark(audit)


def test_audit_with_premise_trust(benchmark, bench_coalition):
    """Full audit: every leaf checked against the trusted belief set."""
    server, decision = _granted_decision(bench_coalition)
    premises = server.protocol.trusted_premises(decision)
    aliases = server.protocol.engine.alias_map()

    def audit():
        checker = ProofChecker(trusted_premises=premises, aliases=aliases)
        assert checker.check(decision.proof)

    benchmark(audit)
