"""The slot engine reproduces its committed golden digests exactly.

``golden_engine.json`` holds SHA-256 digests of packed results and of
per-replication JSONL event streams for a fixed scenario matrix (see
:mod:`tests.golden_engine`).  Any change to a result byte, a store
payload, or a traced event fails here with the scenario named.
"""

from __future__ import annotations

import json

import pytest

from tests import golden_engine as golden

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix():
    expected = set(golden.BROADCAST_CASES) | set(golden.REPLICATE_CASES)
    assert expected | {"channel-users"} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(golden.BROADCAST_CASES))
def test_run_broadcast_reproduces_golden(name):
    got = golden.broadcast_case(name)
    assert len(got["streams"]) == len(golden.SEEDS)
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", golden.REPLICATE_CASES)
def test_traced_replicate_reproduces_golden(name):
    assert golden.replicate_case(name) == GOLDEN[name]


def test_channel_users_reproduce_golden():
    assert golden.channel_users() == GOLDEN["channel-users"]
