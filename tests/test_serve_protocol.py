"""Tests for the serve wire protocol (repro.serve.protocol)."""

import json

import pytest

from repro.errors import ServeError
from repro.exec import JobSpec, WorkloadSpec
from repro.serve import is_job_id, parse_submission, submission_body
from repro.sim import SystemConfig


def spec(seed=0, policy="lap") -> JobSpec:
    return JobSpec(
        system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
        workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
        policy=policy,
        refs_per_core=400,
    )


def encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


class TestParseSubmission:
    def test_single_job_round_trip(self):
        body = encode(submission_body([spec()], client="alice"))
        client, specs = parse_submission(body)
        assert client == "alice"
        assert specs == [spec()]

    def test_batch_round_trip_preserves_order(self):
        originals = [spec(seed=s) for s in range(3)]
        client, specs = parse_submission(encode(submission_body(originals)))
        assert specs == originals

    def test_submission_key_matches_cache_key(self):
        """The wire round trip must not perturb the content address —
        dedup and cache hits both hang off this identity."""
        original = spec()
        _, [parsed] = parse_submission(encode(submission_body([original])))
        assert parsed.key() == original.key()

    def test_default_client(self):
        _, body = "x", submission_body([spec()])
        del body["client"]
        client, _ = parse_submission(encode(body))
        assert client == "anonymous"

    @pytest.mark.parametrize("body", [
        b"not json",
        b"[1,2,3]",
        b'{"client": "a"}',                      # no job at all
        b'{"client": "", "job": {}}',            # empty client
        b'{"client": "a", "jobs": []}',          # empty batch
        b'{"client": "a", "jobs": [42]}',        # non-object job
        b'{"client": "a", "job": {"policy": "lap"}}',  # malformed spec
    ])
    def test_malformed_submissions_raise(self, body):
        with pytest.raises(ServeError) as err:
            parse_submission(body)
        assert err.value.status == 400

    def test_job_and_jobs_together_rejected(self):
        payload = {"client": "a", "job": spec().to_dict(),
                   "jobs": [spec().to_dict()]}
        with pytest.raises(ServeError, match="pick one"):
            parse_submission(encode(payload))


class TestJobIds:
    def test_real_key_is_a_job_id(self):
        assert is_job_id(spec().key())

    @pytest.mark.parametrize("bad", [
        "", "abc", "x" * 64,
        # named ids: a job key changes whenever the job schema does
        pytest.param(spec().key().upper(), id="key-upper"),
        pytest.param(spec().key() + "a", id="key-plus-char"),
        None, 42,
    ])
    def test_rejects_malformed_ids(self, bad):
        assert not is_job_id(bad)
