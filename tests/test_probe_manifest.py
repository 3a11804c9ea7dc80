"""The n = 24 slice of the solve matrix (`probe_matrix.py`) against its
committed manifest, so a change to the globalization fails here instead of
in a hand comparison.  Rebuild with

    python tests/probe_matrix.py --manifest

and list the rows that move, as for a moved pin."""

import json

import pytest

import probe_matrix
from test_acceptance import DIGESTS, library_versions


@pytest.fixture(scope="module")
def manifests():
    """(committed, now): the manifest on file and the slice solved now."""
    out, _ = probe_matrix.solve_rows(probe_matrix.slice_rows(probe_matrix.MANIFEST_N))
    return (json.loads(probe_matrix.MANIFEST.read_text()),
            probe_matrix.manifest(out))


def test_statuses_and_messages_match_the_manifest(manifests):
    committed, now = manifests
    assert now.keys() == committed.keys()

    def status(row):
        return row["status"], row.get("message")

    assert [k for k, row in now.items() if status(row) != status(committed[k])] == []


def test_counts_and_digests_match_the_manifest(manifests):
    # another numpy or scipy may round differently: Newton and factor counts
    # and value digests are compared only under the versions that made the
    # manifest, those of the acceptance digests
    pinned = json.loads(DIGESTS.read_text())["versions"]
    if pinned != library_versions():
        pytest.skip("manifest made with numpy %(numpy)s and scipy %(scipy)s"
                    % pinned + "; this is numpy %(numpy)s and scipy %(scipy)s"
                    % library_versions())
    committed, now = manifests
    assert {k: (committed[k], row) for k, row in now.items()
            if row != committed[k]} == {}
