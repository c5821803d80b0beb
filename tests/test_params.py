from parcelex import celex, galechurch, hunalign, ingest, params


def test_fetch_source_defaults_to_the_lexuriserv_endpoint():
    # params spells the default out, so that reading a config loads no celex.
    assert params.FetchSource(mode=params.LOCAL_DIRECTORY, root=".").endpoint == celex.LEXURISERV


def test_stage_modules_re_export_the_parameter_classes():
    assert galechurch.GCParams is params.GCParams
    assert hunalign.HunParams is params.HunParams
    assert ingest.FetchSource is params.FetchSource


def test_digests_of_valid_parameters_are_unchanged():
    # Lexicon-cache keys and provenance.json hold these digests.
    assert params.GCParams().digest() == "554e8326ea32"
    assert params.GCParams(length_unit="words", mean_ratio=1, variance=3).digest() == "40ad89574076"
    assert params.HunParams().digest() == "098bebae3ee3"
    assert params.HunParams(rng_seed=7, w_length=0.4, w_identical=0.2).digest() == "49c5c82a3e0c"
