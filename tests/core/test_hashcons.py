"""Memoized structural hashes do not travel inside pickles; memoized
and generated ``repr`` texts equal the dataclass-generated ones.

A string's hash depends on ``PYTHONHASHSEED``, so a hash memo carried
from one process into another disagrees with the hash of an equal node
built there, and every dict or set lookup of the loaded node misses.
Any pickle that crosses a process boundary hits this, so it is
checked across two interpreters started with different seeds.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core import formulas, messages, temporal, terms
from repro.core.formulas import Not, SpeaksForGroup
from repro.core.temporal import Temporal
from repro.core.terms import CompoundPrincipal, Group, KeyRef, Principal

BUILD = textwrap.dedent(
    """
    from repro.core.formulas import Not, SpeaksForGroup
    from repro.core.temporal import Temporal
    from repro.core.terms import CompoundPrincipal, Group, KeyRef, Principal

    def build():
        members = [
            Principal(name).bound_to(KeyRef("k-" + name, "K_" + name))
            for name in ("alice", "bob", "carol")
        ]
        return Not(
            SpeaksForGroup(
                CompoundPrincipal.of(members).threshold(2),
                Temporal.all(3, 99),
                Group("G_write"),
            )
        )
    """
)

DUMP = BUILD + textwrap.dedent(
    """
    import pickle, sys
    formula = build()
    hash(formula)  # fill the memo on every node before pickling
    sys.stdout.buffer.write(pickle.dumps(formula))
    """
)

LOAD = BUILD + textwrap.dedent(
    """
    import pickle, sys
    loaded = pickle.loads(sys.stdin.buffer.read())
    fresh = build()
    assert loaded == fresh
    assert hash(loaded) == hash(fresh), "loaded node kept a foreign hash"
    assert loaded in {fresh: 1}
    assert loaded.body.subject in {fresh.body.subject}
    print("ok")
    """
)


def _python(code, seed, stdin=None):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        check=True,
        timeout=60,
    ).stdout


def test_pickled_formula_hashes_like_a_fresh_one_under_another_seed():
    pickled = _python(DUMP, seed=1)
    assert _python(LOAD, seed=2, stdin=pickled).strip() == b"ok"


def test_pickle_drops_only_the_hash_memo():
    formula = Not(
        SpeaksForGroup(
            CompoundPrincipal.of([Principal("u")]).threshold(1),
            Temporal.all(0, 5),
            Group("G"),
        )
    )
    hash(formula)
    assert "_memo___hash__" in formula.__dict__
    state = formula.__getstate__()
    assert "_memo___hash__" not in state
    assert "_memo___hash__" in formula.__dict__  # the live memo stays
    loaded = pickle.loads(pickle.dumps(formula))
    assert loaded == formula and hash(loaded) == hash(formula)
    key = KeyRef("k", "K")
    assert pickle.loads(pickle.dumps(key)) == key


CERT_BUILD = textwrap.dedent(
    """
    from repro.pki.certificates import (
        IdentityCertificate,
        ThresholdAttributeCertificate,
        ValidityPeriod,
    )

    def build():
        validity = ValidityPeriod(0, 99)
        identity = IdentityCertificate(
            "id-1", "alice", 3233, 17, "CA", "k-CA", 1, validity, 7
        )
        threshold = ThresholdAttributeCertificate(
            "tac-1", (("alice", "k-a"), ("bob", "k-b")), 2, "G_write",
            "AA", "k-AA", 1, validity, 11,
        )
        return identity, threshold
    """
)

CERT_DUMP = CERT_BUILD + textwrap.dedent(
    """
    import pickle, sys
    certs = build()
    for cert in certs:
        hash(cert)  # fill the memo before pickling
        assert "_memo___hash__" in cert.__dict__
        cert.payload_bytes()
    sys.stdout.buffer.write(pickle.dumps(certs))
    """
)

CERT_LOAD = CERT_BUILD + textwrap.dedent(
    """
    import pickle, sys
    loaded = pickle.loads(sys.stdin.buffer.read())
    for cert, fresh in zip(loaded, build()):
        assert cert == fresh
        assert hash(cert) == hash(fresh), "loaded cert kept a foreign hash"
        assert cert in {fresh: 1}
        assert cert.payload_bytes() == fresh.payload_bytes()
    print("ok")
    """
)


def test_pickled_certificate_hashes_like_a_fresh_one_under_another_seed():
    pickled = _python(CERT_DUMP, seed=1)
    assert _python(CERT_LOAD, seed=2, stdin=pickled).strip() == b"ok"


def _ast_classes():
    for module in (formulas, messages, terms, temporal):
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
            ):
                yield value


def _sample(cls):
    """An instance of ``cls`` with a distinct value in every field."""
    leaves = {
        "Principal": lambda: terms.Principal("P"),
        "KeyRef": lambda: terms.KeyRef("k-1", "K_1"),
        "Temporal": lambda: temporal.Temporal.all(2, 9, terms.Principal("P")),
    }
    if cls.__name__ in leaves:
        return leaves[cls.__name__]()
    if cls is terms.CompoundPrincipal:
        return terms.CompoundPrincipal.of([terms.Principal("A"), terms.Principal("B")])
    if cls is terms.ThresholdPrincipal:
        return _sample(terms.CompoundPrincipal).threshold(1)
    values = []
    for field in dataclasses.fields(cls):
        hint = str(field.type)
        if field.name in ("key",):
            values.append(_sample(terms.KeyRef))
        elif "Temporal" in hint:
            values.append(_sample(temporal.Temporal))
        elif hint == "int" or field.name in ("left", "right", "m"):
            values.append(3)
        elif hint == "str":
            values.append("it's \"quoted\"")
        elif field.name == "parts":
            values.append((messages.Data("a"), messages.Data("b")))
        elif field.name == "principal":
            values.append(_sample(terms.Principal))
        elif field.name == "compound":
            values.append(_sample(terms.CompoundPrincipal))
        else:
            values.append(messages.Data(f"{cls.__name__}.{field.name}"))
    return cls(*values)


def _dataclass_repr(value):
    """``repr`` as :mod:`dataclasses` generates it, from a twin class."""
    cls = type(value)
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, object, dataclasses.field(repr=f.repr))
            for f in dataclasses.fields(cls)
        ],
    )
    twin.__qualname__ = cls.__qualname__
    return repr(twin(*(getattr(value, f.name) for f in dataclasses.fields(cls))))


@pytest.mark.parametrize("cls", list(_ast_classes()), ids=lambda c: c.__name__)
def test_repr_equals_the_dataclass_generated_text(cls):
    value = _sample(cls)
    assert repr(value) == _dataclass_repr(value)
    assert repr(value) == repr(value)  # a memoized text reads back equal

