"""End-to-end test of the Section 6.4 survey at CI scale."""

import pytest

from repro.experiments import section64
from repro.experiments.config import CI


@pytest.fixture(scope="module")
def result():
    return section64.run(section64.Section64Config(preset=CI, seed=7))


class TestSection64:
    def test_all_six_protocols(self, result):
        names = [row.protocol for row in result.rows]
        assert names == ["NEO", "Algorand", "EOS", "Wave", "Vixify", "Filecoin"]

    def test_every_verdict_matches_paper(self, result):
        for row in result.rows:
            assert row.matches_paper(), row.protocol

    def test_algorand_absolutely_fair(self, result):
        row = next(r for r in result.rows if r.protocol == "Algorand")
        assert row.unfair_probability == 0.0
        assert row.equitability == pytest.approx(1.0)

    def test_eos_overpays_small_delegate(self, result):
        row = next(r for r in result.rows if r.protocol == "EOS")
        # A holds 10% against three 30% delegates: the flat proposer
        # reward pushes A's fraction above her share.
        assert row.mean_fraction > result.config.share * 1.15

    def test_neo_robust(self, result):
        row = next(r for r in result.rows if r.protocol == "NEO")
        assert row.unfair_probability < 0.5  # CI horizon; 0 at paper scale

    def test_wave_vixify_expectational(self, result):
        for name in ("Wave", "Vixify"):
            row = next(r for r in result.rows if r.protocol == name)
            assert row.mean_fraction == pytest.approx(
                result.config.share, abs=0.02
            )

    def test_render_and_dict(self, result):
        text = result.render()
        assert "Section 6.4" in text
        assert "Filecoin" in text
        payload = result.to_dict()
        assert payload["Algorand"]["matches_paper"]


class TestSection64UnderStats:
    def test_stats_mode_runs_and_matches_full_equitability(self):
        # reduce="stats" keeps moments, not samples: equitability must
        # come from their population variance, matching full mode (at
        # the same shard plan) to float tolerance.
        from repro.runtime import ParallelRunner, using_runtime

        config = section64.Section64Config(preset=CI, seed=7)
        by_mode = {}
        for mode in ("full", "stats"):
            with using_runtime(ParallelRunner(workers=1, reduce=mode)):
                by_mode[mode] = section64.run(config)
        full, stats = by_mode["full"], by_mode["stats"]
        assert [r.protocol for r in stats.rows] == [r.protocol for r in full.rows]
        for got, expected in zip(stats.rows, full.rows):
            assert got.equitability == pytest.approx(
                expected.equitability, rel=1e-9, abs=1e-12
            ), got.protocol
            assert got.mean_fraction == pytest.approx(
                expected.mean_fraction, rel=1e-9, abs=1e-12
            ), got.protocol
