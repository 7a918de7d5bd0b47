"""The paper's claims as a gate: every study's claims hold at test scale.

Each case runs one study driver at ``scale="test"`` on its own defaults
and evaluates the claims function declared next to it (``STUDIES`` in
:mod:`repro.experiments`): who wins, by roughly what factor, where the
crossovers fall.  A failure lists every claim that does not hold, with
the numbers or the rows behind it.
"""

import pytest

from repro.experiments import CLAIMS, STUDIES


@pytest.mark.parametrize("name", list(CLAIMS))
def test_claims_hold_at_test_scale(name):
    study = STUDIES[name]
    claims = study.claims(study.driver(scale="test"), "test")
    failing = [claim.verdict() for claim in claims if not claim.ok]
    assert claims and not failing, "\n".join([name, *failing])
