"""Every case of the behaviour contract (tests/behaviour.json) gives the
recorded outputs: probe rows, verdicts, coupon tails and CLI calls.

The file is written by tests/behaviour.py; see its docstring for when
and how to rewrite it.
"""

import json

import pytest

import behaviour

CONTRACT = json.loads(behaviour.PATH.read_text(encoding="utf-8"))
SHOWN = 8


def test_contract_names_its_library_versions():
    recorded, here = CONTRACT["versions"], behaviour.versions()
    print(f"behaviour.json written with {recorded}; compared with {here}")
    assert set(recorded) == {"python", "numpy", "scipy"}


@pytest.mark.parametrize("group", behaviour.group_names(CONTRACT))
def test_behaviour_matches_the_contract(group):
    new = json.loads(json.dumps(behaviour.run_group(group, CONTRACT)))
    diffs = behaviour.moved(CONTRACT["records"][group], new, group)
    lines = [f"{path}: {old!r} -> {now!r}" for path, old, now in diffs[:SHOWN]]
    assert not diffs, (
        f"{len(diffs)} recorded values moved (written with {CONTRACT['versions']}, "
        f"run with {behaviour.versions()}); first {len(lines)}:\n" + "\n".join(lines))
