"""Tests for the policy-comparison extension experiment."""

import pytest

from repro.experiments import policy_comparison


@pytest.fixture(scope="module")
def result():
    # The kernels the policy-comparison note in
    # repro.experiments.markdown names; the full experiment takes
    # about 30 s.
    return policy_comparison.run_experiment(
        names=("bitcount", "dijkstra", "adpcm_enc", "adpcm_dec", "AES",
               "RSA"))


def rows_of(result, *names):
    rows = {row["benchmark"]: row for row in result["rows"]}
    return [rows[name] for name in names]


def test_all_policies_reported(result):
    for row in result["rows"]:
        for policy in policy_comparison.POLICIES:
            assert policy.name in row
            assert row[policy.name] > 0


def test_reliability_policies_beat_worst(result):
    for row in result["rows"]:
        assert row["best"] <= row["worst"]
        assert row["live-interval"] <= row["worst"]


def test_bit_vs_value_ratio(result):
    for row in result["rows"]:
        expected = 100.0 * row["best"] / row["live-interval"]
        assert row["bit_vs_value_percent"] == pytest.approx(expected)


def test_render_mentions_every_benchmark(result):
    rendered = policy_comparison.render(result)
    assert "bitcount" in rendered
    assert "live-interval" in rendered
    assert "% of value-level" in rendered


class TestPolicyComparison:
    """One test per sentence of the policy-comparison note in
    repro.experiments.markdown."""

    def test_bit_level_beats_or_matches_value_level(self, result):
        for row in rows_of(result, "bitcount", "dijkstra", "adpcm_dec"):
            assert row["best"] < row["live-interval"], row["benchmark"]
        for row in rows_of(result, "adpcm_enc", "RSA"):
            assert row["best"] == row["live-interval"], row["benchmark"]

    def test_both_beat_worst_and_neither_loses_to_original(self, result):
        for row in rows_of(result, "bitcount", "dijkstra", "adpcm_dec",
                           "adpcm_enc", "RSA"):
            for policy in ("best", "live-interval"):
                assert row[policy] < row["worst"], row["benchmark"]
                assert row[policy] <= row["original"], row["benchmark"]

    def test_aes_best_loses_to_value_level_and_original(self, result):
        (aes,) = rows_of(result, "AES")
        assert aes["bit_vs_value_percent"] == pytest.approx(100.79,
                                                            abs=0.005)
        assert (aes["best"], aes["original"]) == (1052481, 1040991)

    def test_policies_comparable_on_every_named_kernel(self, result):
        for row in result["rows"]:
            assert abs(row["bit_vs_value_percent"] - 100.0) < 1.0, \
                row["benchmark"]
