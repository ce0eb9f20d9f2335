"""The three families of tests/sweep.py, pinned by digest.

The sweep records every case's whole output, so a digest that moves means
a build, a field certificate, a classification or a CLI output changed.
The digests were recorded on Python 3.11 only, and the families draw from
the random module, whose streams Python does not promise across versions,
so the pins skip on other versions.  The cli family takes about 10 s; a
digest that moves is traced to its case by
``python tests/sweep.py --against OTHER_CHECKOUT``."""

import sys
from pathlib import Path

import pytest

import indmorse
import sweep

SRC = Path(indmorse.__file__).resolve().parents[1]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded on Python 3.11"
)
@pytest.mark.parametrize(
    "family, pinned",
    [
        ("builds", "0528b531c42dec9a"),
        ("fields", "21c8279c205ace4b"),
        ("cli", "c55914b8553f6f8c"),
    ],
)
def test_sweep_family_digest_is_pinned(family, pinned):
    assert sweep.digest(sweep._side(SRC, family)) == pinned
