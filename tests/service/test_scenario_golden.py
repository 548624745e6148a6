"""The decisions of every registered scenario, pinned.

Each scenario runs in manual mode at seed 0 (the CI scenario smoke's
settings) and must reproduce the ``decision_digest`` and
``event_trace_digest`` recorded here.  The same scenarios run again in
threaded mode, the caller-thread engine the edge serves and perfbench
measures; they are pinned in ``THREADED``.  A change that alters any
decision, or the order of events, fails in the tier-1 suite rather
than at the benchmark's correctness gate.  The digests are the same on
Python 3.9, 3.11 and 3.12.  If a change is meant to alter decisions,
the failure message prints the new digests to paste below.
"""

import pytest

from repro.service.scenarios import SCENARIOS, run_scenario

# name -> (decision_digest, event_trace_digest)
GOLDEN = {
    "chaos-storm": (
        "9abebbf2c6c3e9feb5508d7eb8ade113071a917d0a93d8a56f37ea93b9391028",
        "fcc87c22cd148b237f1299228acf8aca4e7b02e5c61cc2ec52d9c39c29f98520",
    ),
    "federation": (
        "107dde8fbfa820607420843de0e8950fb66e55d880f9729197a7f716ebc063f9",
        "df6a9a98387a45041bdb02b339cd15ee1b01cc01a33c1fb6fe88af77cd526ef0",
    ),
    "flash-crowd": (
        "125589b8e72785ec6dabc4523932155fceb6ed4ed6bbac0a012684f46655645f",
        "82b39b06d2485049da946bdd9240ae721e3590865842b00e93cbab1a18d1274b",
    ),
    "membership-storm": (
        "0ed863bd50d7720260e6f49e35c03a0251a12dcfdd47d746b0c838ee33f8bea1",
        "9f2b3c9a95ba6661b156609528fec87bb561d7e849d0a4b67a7a7fd2ae1f64a4",
    ),
    "stale-cert-adversary": (
        "2fdba7af09962b25bab84ca6d2a2db74a02dcafb216e83bd36f55f6b361576c0",
        "57534f88d1f8268780d705a1b09ac7076c6d4a3593baf5b64214acbc35225e40",
    ),
    "threshold-mix": (
        "7ecbf2706ea2ae53bbae031300e2fece1dfc33cb0cf38e66c61038aa78b0811c",
        "dcdcc211b7c57c98cda489589d74d7e89a5ac6cdd47b9f080cf073822d003657",
    ),
}

# Threaded mode decides each traffic event as it is submitted, so its
# queue holds less: flash-crowd sheds 116 requests there, against 122
# in manual mode, and only its decision digest differs.
THREADED = dict(
    GOLDEN,
    **{
        "flash-crowd": (
            "3d21c17ddc647012d0b03f047b95bd931f9c116b32bcb16ae3181dc0cabe2208",
            GOLDEN["flash-crowd"][1],
        ),
    },
)
PINS = {"manual": GOLDEN, "threaded": THREADED}


def test_every_registered_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize(
    "name,mode",
    [pytest.param(name, "manual", id=name) for name in sorted(GOLDEN)]
    + [
        pytest.param(name, "threaded", id=f"threaded-{name}")
        for name in sorted(THREADED)
    ],
)
def test_scenario_digests_match(name, mode):
    report = run_scenario(name, seed=0, mode=mode)
    assert report.ok, report.violations()
    got = (report.decision_digest, report.event_trace_digest)
    assert got == PINS[mode][name], (
        f"{name} ({mode}) changed its decisions or events; new digests:\n"
        f'    "{name}": (\n        "{got[0]}",\n        "{got[1]}",\n    ),'
    )
