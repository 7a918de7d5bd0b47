"""Exact-output gate: every study ``repro run all`` executes, at tiny scale.

Each study's ``FigureResult.rows`` is hashed in canonical JSON (sorted
keys, no whitespace, numpy scalars as Python numbers — the form
``benchmarks/e2e/golden.py`` uses) and compared with the committed
digest in ``study_digests.json``.  The digests do not depend on the
worker count, the engine tier or whether a C compiler is present; they
change only in a change that bumps ``SIM_VERSION`` in
``repro/harness/parallel.py``, which must regenerate them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import STUDIES

DIGESTS = json.loads((Path(__file__).parent / "study_digests.json").read_text())


def rows_digest(rows) -> str:
    text = json.dumps(
        rows, sort_keys=True, separators=(",", ":"),
        default=lambda value: value.item(),
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_study_has_a_digest():
    assert set(DIGESTS) == set(STUDIES)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_rows_match_digest(name):
    figure = STUDIES[name].driver(scale="tiny", seed=0)
    assert rows_digest(figure.rows) == DIGESTS[name]
