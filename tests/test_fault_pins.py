"""Byte pins on the fault layer's CLI output.

Each argv's stdout is hashed whole.  The first exercises retries,
timeouts, failovers and lost buckets at once; the second is the
``make faults`` stream; the third loses and rebuilds a device.  A
refactor of the failure model must leave every digest unchanged.
"""

import hashlib

import pytest

from repro.cli import main

PINS = {
    "faults run --fields 8,8 --devices 8 --queries 100 --fail 2,3 "
    "--error-rate 0.1 --slow 1:2.0 --timeout 40 --replicate --json":
        "0b0b003b404e1cb6dc8a487ecdc74d9daf3c7d982b8486ab6418429b270076da",
    "faults run --fields 8,8 --devices 8 --queries 100 --fail 2 "
    "--error-rate 0.05 --replicate --json":
        "54649b58259d6c1d5876468152c26f05f77664de2731f59ef8781fc5d2bbdf3d",
    "recover rebuild --fields 4,4 --devices 8 --records 200 --lose 2 "
    "--queries 20 --json":
        "b2a984c44c9532ea1e5d583b09c3107046e16ee8da0e2dd7c58456317b03dafb",
}


@pytest.mark.parametrize("argv", sorted(PINS))
def test_output_digest_pinned(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]
