"""Epoch-based policy snapshots for the sharded authorization service.

Policy state — trust anchors, ACLs, admitted revocations, and the
certificate-admission cache — is read-mostly with bursty updates
(revocations, ACL changes).  Rather than guarding one mutable
:class:`~repro.coalition.protocol.AuthorizationProtocol` with a big
lock, the service publishes policy state as a sequence of **immutable
epochs**:

* Epoch ``k`` pins one forked protocol per shard plus an ACL table.
  Requests are stamped with the current epoch at *admission* and always
  evaluate against that epoch's state, however late they run.
* ``publish_revocation`` forks every shard protocol (copy-on-write via
  :meth:`repro.core.store.BeliefStore.fork`), applies the revocation to
  the forks, then swaps the epoch reference in one assignment.  A
  request therefore either sees the revocation everywhere (admitted at
  epoch >= k) or nowhere (admitted earlier) — never a half-applied
  state.
* ACL-only publishes reuse the shard protocols (belief state did not
  change) and replace just the ACL table, keeping admission caches warm.

A fork copies each shard store's belief map (O(beliefs) pointer copies)
and shares its index buckets copy-on-write.  The store holds standing
beliefs only — premises plus certificate and revocation admission
chains, never per-request derivations — so publish cost follows the
certificate population, not the number of requests served.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

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

    ``protocols`` holds one protocol per shard.  Workers *do* mutate
    their shard's protocol while evaluating (certificate admissions warm
    its store and cache), but only single-threaded per shard and only
    with request-derived facts; the policy-visible state (trust anchors,
    revocations, ACLs) never changes after publish — that is what the
    epoch pins.
    """

    epoch_id: int
    protocols: Tuple[AuthorizationProtocol, ...]
    acls: Mapping[str, PolicyEntry]
    revocations_applied: int = 0

    @property
    def num_shards(self) -> int:
        return len(self.protocols)


@dataclass
class EpochStats:
    epochs_published: int = 0
    revocations_published: int = 0
    policy_updates_published: int = 0
    forks_taken: int = 0


class EpochManager:
    """Publishes epochs atomically; readers pin via :attr:`current`.

    ``shard_locks`` are the per-shard evaluation locks: a fork must not
    race an in-flight evaluation that is warming the same store, so each
    shard's protocol is forked while holding that shard's lock.  Reading
    :attr:`current` needs no lock — the epoch reference is swapped in a
    single assignment and every epoch is immutable.
    """

    def __init__(
        self,
        protocols: Sequence[AuthorizationProtocol],
        shard_locks: Sequence[threading.Lock],
        acls: Optional[Dict[str, PolicyEntry]] = None,
    ):
        if len(protocols) != len(shard_locks):
            raise ValueError("one evaluation lock per shard protocol required")
        self._publish_lock = threading.Lock()
        self._shard_locks = list(shard_locks)
        self._epoch = Epoch(
            epoch_id=0, protocols=tuple(protocols), acls=dict(acls or {})
        )
        self.stats = EpochStats()

    @property
    def current(self) -> Epoch:
        return self._epoch

    def staleness_of(self, epoch_id: int) -> int:
        """How many epochs behind ``current`` an observed id is (>= 0).

        Health probes use this for queued-ticket and restarted-worker
        epoch staleness; the reference is a single read of the current
        epoch, so no lock is needed.
        """
        return max(0, self._epoch.epoch_id - epoch_id)

    # ------------------------------------------------------- publishing

    def _fork_protocols(self) -> Tuple[AuthorizationProtocol, ...]:
        forks = []
        for lock, protocol in zip(self._shard_locks, self._epoch.protocols):
            with lock:
                forks.append(protocol.fork())
        self.stats.forks_taken += len(forks)
        return tuple(forks)

    def publish_mutation(self, mutate, is_revocation: bool = False) -> Epoch:
        """Fork every shard, apply ``mutate(protocol)``, swap atomically.

        The generic publish path for anything that changes belief state
        (revocations, late trust-anchor changes after a coalition
        re-key).  In-flight evaluations pinned to the previous epoch
        keep their (unforked) protocols; everything admitted after the
        swap sees the mutation on every shard.
        """
        with self._publish_lock:
            old = self._epoch
            forks = self._fork_protocols()
            for fork in forks:
                mutate(fork)
            new = Epoch(
                epoch_id=old.epoch_id + 1,
                protocols=forks,
                acls=old.acls,
                revocations_applied=old.revocations_applied + int(is_revocation),
            )
            self.stats.epochs_published += 1
            if is_revocation:
                self.stats.revocations_published += 1
            self._epoch = new
            return new

    def publish_revocation(
        self, revocation: RevocationCertificate, now: int
    ) -> Epoch:
        """Fork, apply the revocation to every shard, swap atomically."""
        return self.publish_mutation(
            lambda protocol: protocol.apply_revocation(revocation, now),
            is_revocation=True,
        )

    def publish_policy(self, name: str, entry: PolicyEntry) -> Epoch:
        """Publish an ACL table change (new or updated object policy).

        Belief state is untouched, so the shard protocols are carried
        over as-is — admission caches stay warm across policy epochs.
        """
        with self._publish_lock:
            old = self._epoch
            acls = dict(old.acls)
            acls[name] = entry
            new = Epoch(
                epoch_id=old.epoch_id + 1,
                protocols=old.protocols,
                acls=acls,
                revocations_applied=old.revocations_applied,
            )
            self.stats.epochs_published += 1
            self.stats.policy_updates_published += 1
            self._epoch = new
            return new
