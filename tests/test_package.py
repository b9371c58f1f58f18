import datransport

# checks that the tests read and no command runs; they live in tests/theory.py
TEST_ONLY = ["path_cost", "MongeReport", "check_generalized_monge", "reciprocal_pair_cost",
             "XTwistCase", "XTwistReport", "check_xtwist", "monotone_rearrangement",
             "measure_to_csv", "measure_from_csv", "NonIncreasingTimesError"]


def test_public_names():
    names = datransport.__all__
    assert [name for name in names if not hasattr(datransport, name)] == []
    assert len(set(names)) == len(names)
    assert [name for name in TEST_ONLY if name in names or hasattr(datransport, name)] == []
