"""Decision-journal pin: what the scheduler records, not only what it
decides.

The golden files pin job records; these digests pin every line of the
decision journal of a TOPO-AWARE-P and a TOPO-AWARE-PM run (see
``JOURNAL_RUNS`` in ``regen_golden.py``), so a refactor that changes
what a decision record says fails here even when every placement is
the same.  Regenerate with ``python tests/sim/regen_golden.py`` only
after an intentional change to the records.
"""

import json
from pathlib import Path

import pytest

from tests.sim.regen_golden import JOURNAL_RUNS, journal_digest, journal_lines

DIGESTS = Path(__file__).parent / "golden" / "journal_digests.json"
#: the verdict each run writes for a job postponed in an earlier round
#: (besides ``placed`` and ``postponed``)
GUARDED = {"scenario2-topo-aware-p": "no-fit", "scenario2-topo-aware-pm": "evict"}


@pytest.fixture(scope="module")
def journals():
    return {name: journal_lines(name) for name in JOURNAL_RUNS}


@pytest.mark.parametrize("name", sorted(JOURNAL_RUNS))
def test_decision_journal_matches_its_digest(name, journals):
    pinned = json.loads(DIGESTS.read_text())
    assert journal_digest(journals[name]) == pinned[name]


@pytest.mark.parametrize("name", sorted(JOURNAL_RUNS))
def test_every_verdict_states_the_postponements_so_far(name, journals):
    """A decision record's ``postponements`` is the number of
    ``postponed`` records of its job up to and including it, whatever
    the verdict; and the pinned runs hold the verdicts that test it."""
    seen: dict[str, int] = {}
    tested = set()
    for line in journals[name]:
        record = json.loads(line)
        if record["kind"] != "decision":
            continue
        job_id = record["job_id"]
        if record["verdict"] == "postponed":
            seen[job_id] = seen.get(job_id, 0) + 1
        assert record["postponements"] == seen.get(job_id, 0), record
        if seen.get(job_id):
            tested.add(record["verdict"])
    assert GUARDED[name] in tested
