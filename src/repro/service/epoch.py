"""Epoch-based policy snapshots for the authorization service.

Policy state — trust anchors, ACLs, admitted revocations, and the
certificate-admission cache — is read-mostly with bursty updates
(revocations, ACL changes).  Rather than guarding one mutable
:class:`~repro.coalition.protocol.AuthorizationProtocol` with a big
lock, the service publishes policy state as a sequence of **immutable
epochs**:

* Epoch ``k`` pins one forked protocol — the paper's single verifier
  with one belief set — plus an ACL table.  Every ticket is decided
  against that one protocol.
  Requests are stamped with the current epoch at *admission* and always
  evaluate against that epoch's state, however late they run.
* ``publish_revocation`` forks the protocol once (copy-on-write via
  :meth:`repro.core.store.BeliefStore.fork`), applies the revocation to
  the fork once, then swaps the epoch reference in one assignment.  A
  request therefore either sees the revocation (admitted at epoch
  >= k) or does not (admitted earlier) — never a half-applied state.
* ACL-only publishes reuse the protocol (belief state did not change)
  and replace just the ACL table, keeping admission caches warm.

A fork copies the store's belief map (O(beliefs) pointer copies) and
shares its index buckets copy-on-write.  The store holds standing
beliefs only — premises, plus the receipt and conclusion of each
admitted certificate or revocation — so publish cost follows the
certificate population, not the number of requests served.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..coalition.acl import ACL, ACLEntry
from ..coalition.protocol import AuthorizationProtocol
from ..pki.certificates import RevocationCertificate

__all__ = ["PolicyEntry", "Epoch", "EpochManager"]


@dataclass(frozen=True)
class PolicyEntry:
    """One object's published policy: its ACL and admin group.

    Treated as immutable once inside an epoch — updates build a new
    entry (version bumped) and publish a new epoch.
    """

    acl: ACL
    admin_group: str
    version: int = 0

    def updated(self, entries: Sequence[ACLEntry]) -> "PolicyEntry":
        return PolicyEntry(
            acl=ACL(list(entries)),
            admin_group=self.admin_group,
            version=self.version + 1,
        )


@dataclass(frozen=True)
class Epoch:
    """An immutable snapshot of the service's policy state.

    ``protocol`` is the one protocol every ticket decides against.
    Evaluation *does* mutate it (certificate admissions warm its store
    and cache), but only under the service's protocol lock and only
    with request-derived facts; the policy-visible state (trust
    anchors, revocations, ACLs) never changes after publish — that is
    what the epoch pins.
    """

    epoch_id: int
    protocol: AuthorizationProtocol
    acls: Mapping[str, PolicyEntry]
    revocations_applied: int = 0


@dataclass
class EpochStats:
    epochs_published: int = 0
    revocations_published: int = 0
    policy_updates_published: int = 0
    forks_taken: int = 0


class EpochManager:
    """Publishes epochs atomically; readers pin via :attr:`current`.

    ``protocol_lock`` is the evaluation lock: a fork must not race an
    in-flight evaluation that is warming the same store, so the
    protocol is forked while holding it.  Reading :attr:`current` needs
    no lock — the epoch reference is swapped in a single assignment and
    every epoch is immutable.
    """

    def __init__(
        self, protocol: AuthorizationProtocol, protocol_lock: threading.Lock
    ):
        self._publish_lock = threading.Lock()
        self._protocol_lock = protocol_lock
        self._epoch = Epoch(epoch_id=0, protocol=protocol, acls={})
        self.stats = EpochStats()

    @property
    def current(self) -> Epoch:
        return self._epoch

    def staleness_of(self, epoch_id: int) -> int:
        """How many epochs behind ``current`` an observed id is (>= 0).

        Health probes use this for queued-ticket epoch staleness; the reference is a single read of the current
        epoch, so no lock is needed.
        """
        return max(0, self._epoch.epoch_id - epoch_id)

    # ------------------------------------------------------- publishing

    def _swap(self, **changes) -> Epoch:
        """Publish the next epoch: the current one with ``changes``."""
        new = replace(self._epoch, epoch_id=self._epoch.epoch_id + 1, **changes)
        self.stats.epochs_published += 1
        self._epoch = new
        return new

    def publish_mutation(self, mutate, is_revocation: bool = False) -> Epoch:
        """Fork the protocol, apply ``mutate(protocol)``, swap atomically.

        The generic publish path for anything that changes belief state
        (revocations, late trust-anchor changes after a coalition
        re-key).  In-flight evaluations pinned to the previous epoch
        keep its (unforked) protocol; everything admitted after the
        swap sees the mutation.
        """
        with self._publish_lock:
            with self._protocol_lock:
                fork = self._epoch.protocol.fork()
            self.stats.forks_taken += 1
            mutate(fork)
            self.stats.revocations_published += int(is_revocation)
            return self._swap(
                protocol=fork,
                revocations_applied=(
                    self._epoch.revocations_applied + int(is_revocation)
                ),
            )

    def publish_revocation(
        self, revocation: RevocationCertificate, now: int
    ) -> Epoch:
        """Fork, apply the revocation once, swap atomically."""
        return self.publish_mutation(
            lambda protocol: protocol.apply_revocation(revocation, now),
            is_revocation=True,
        )

    def publish_policy(self, name: str, entry: PolicyEntry) -> Epoch:
        """Publish an ACL table change (new or updated object policy).

        Belief state is untouched, so the protocol is carried over
        as-is — admission caches stay warm across policy epochs.
        """
        with self._publish_lock:
            self.stats.policy_updates_published += 1
            return self._swap(acls={**self._epoch.acls, name: entry})
