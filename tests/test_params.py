import pytest

from parcelex import galechurch, hunalign, params


@pytest.mark.parametrize("mode", ["http_endpoint", "local"])
def test_a_fetch_source_is_a_local_directory(mode):
    assert params.FetchSource(mode=params.LOCAL_DIRECTORY, root=".").root == "."
    with pytest.raises(ValueError, match=f"unknown fetch mode '{mode}'"):
        params.FetchSource(mode=mode, root=".")


def test_stage_modules_re_export_the_parameter_classes():
    assert galechurch.GCParams is params.GCParams
    assert hunalign.HunParams is params.HunParams


def test_digests_of_valid_parameters_are_unchanged():
    # provenance.json records and lexicon headers hold these digests.
    assert params.GCParams().digest() == "554e8326ea32"
    assert params.GCParams(length_unit="words", mean_ratio=1, variance=3).digest() == "40ad89574076"
    assert params.HunParams().digest() == "098bebae3ee3"
    assert params.HunParams(rng_seed=7, w_length=0.4, w_identical=0.2).digest() == "49c5c82a3e0c"
