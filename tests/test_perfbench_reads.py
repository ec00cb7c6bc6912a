"""The names the benchmark reads from the package stay in the package.

`perfbench/*.py` reach into the imported package as `hb.<module>.<name>`:
`hb.cli.main` runs every command and `hb.cli.parse_result` reads each
result document for the run's fingerprint.  A clean-up that drops one of
these names fails every benchmark run, so each must resolve.  These tests
only read `perfbench/`.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import hbmatch
import hbmatch.cli  # perfbench/run.py imports the package this way

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def chains() -> list[str]:
    """Every `hb.<module>.<name>` chain in the benchmark's sources."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        found.update(re.findall(r"\bhb\.(\w+\.\w+)", path.read_text()))
    return sorted(found)


def test_the_known_chains_are_found():
    assert set(chains()) >= {
        "cli.main", "cli.parse_result", "cli.serialize_instance",
        "instances.GeneratorSpec", "instances.generate", "instances.SplitMix64",
        "params.parse_rational", "core.BipartiteHypergraph",
    }


@pytest.mark.parametrize("chain", chains())
def test_chain_resolves(chain):
    module, name = chain.split(".")
    assert hasattr(getattr(hbmatch, module, None), name), f"hb.{chain}"
