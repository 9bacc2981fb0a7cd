"""Smoke/shape tests for the experiment harnesses (tiny scale)."""

import pytest

from repro.experiments import ablations, fig2, fig3, fig4, fig5, fig6, fig7, table1, table2
from repro.experiments.common import (
    ExperimentDefaults,
    baseline_config,
    defaults_from_env,
    format_mmss,
    format_si,
    optimized_config,
    render_series,
    render_table,
)

TINY = ExperimentDefaults(scale_shift=4, full=False, seed=1)


class TestCommon:
    def test_format_mmss(self):
        assert format_mmss(75.0) == "1:15.0"
        assert format_mmss(9.5) == "0:09.50"
        assert format_mmss(30.0) == "0:30.0"
        with pytest.raises(ValueError):
            format_mmss(-1)

    def test_format_si(self):
        assert format_si(1_468_365_182) == "1.5G"
        assert format_si(9_800_000) == "9.8M"
        assert format_si(22_000) == "22.0K"
        assert format_si(42) == "42"

    def test_render_table_alignment(self):
        out = render_table(["a", "bbb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2  # consistent widths

    def test_render_series(self):
        out = render_series({"s": {1: 0.5, 2: 0.25}}, "ranks", "time")
        assert "0.5000" in out and "ranks" in out

    def test_defaults_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_SHIFT", "3")
        monkeypatch.setenv("REPRO_FULL", "1")
        d = defaults_from_env()
        assert d.scale_shift == 3 and d.full

    def test_ranks_selection(self):
        d = ExperimentDefaults(scale_shift=0, full=True)
        assert d.ranks((1, 2, 3), (1,)) == [1, 2, 3]
        q = ExperimentDefaults(scale_shift=0, full=False)
        assert q.ranks((1, 2, 3), (1,)) == [1]

    def test_config_presets(self):
        opt = optimized_config(64)
        assert opt.dynamic_join and opt.subbuckets["edge"] == 8
        base = baseline_config(64)
        assert not base.dynamic_join and base.static_outer == "right"


class TestFig2:
    @pytest.fixture(scope="class")
    def rows(self):
        import repro.experiments.fig2 as f2

        orig = f2.QUICK_RANKS
        f2.QUICK_RANKS = (8, 16)
        try:
            return f2.run_fig2(TINY, n_sources=3)
        finally:
            f2.QUICK_RANKS = orig

    def test_rows_cover_grid(self, rows):
        assert {(r.n_ranks, r.variant) for r in rows} == {
            (8, "B"), (8, "O"), (16, "B"), (16, "O")
        }

    def test_optimized_beats_baseline(self, rows):
        speedups = fig2.speedup_summary(rows)
        assert all(s > 1.0 for s in speedups.values())

    def test_render(self, rows):
        out = fig2.render(rows)
        assert "Fig. 2" in out and "local_join" in out


class TestFig3:
    def test_subbuckets_reduce_imbalance(self):
        result = fig3.run_fig3(TINY, n_ranks=256)
        r1 = result.reports[1]
        r8 = result.reports[8]
        assert r8.ratio_max_mean < r1.ratio_max_mean
        assert r1.total_tuples == r8.total_tuples

    def test_cdf_monotone(self):
        result = fig3.run_fig3(TINY, n_ranks=128)
        xs, ys = result.cdf(1)
        assert (xs[1:] >= xs[:-1]).all()
        assert ys[-1] == pytest.approx(1.0)

    def test_render(self):
        out = fig3.render(fig3.run_fig3(TINY, n_ranks=64))
        assert "Fig. 3" in out and "max/mean" in out


class TestFig7:
    def test_trace_and_head_fraction(self):
        result = fig7.run_fig7(TINY, n_ranks=32, n_sources=3)
        assert len(result.trace) > 3
        assert 0 < result.head_fraction(3) <= 1.0
        out = fig7.render(result)
        assert "Fig. 7" in out and "admitted" in out


class TestScalingFigures:
    @pytest.fixture(scope="class")
    def fig5_result(self):
        import repro.experiments.fig5 as f5

        orig = f5.QUICK_RANKS
        f5.QUICK_RANKS = (16, 64)
        try:
            return f5.run_fig5(TINY, n_sources=3)
        finally:
            f5.QUICK_RANKS = orig

    def test_totals_and_speedup(self, fig5_result):
        assert set(fig5_result.total) == {16, 64}
        sp = fig5_result.speedup()
        assert sp[16] == 1.0
        assert sp[64] > 0

    def test_reduction_percent(self, fig5_result):
        assert fig5_result.reduction_percent() < 100

    def test_render(self, fig5_result):
        assert "Fig. 5" in fig5.render(fig5_result)

    def test_fig6_runs(self):
        # fig6 imported the name from fig5, so it is fig6's binding that
        # run_fig6 reads (patching fig5's ran CC up to 16,384 ranks).
        orig = fig6.QUICK_RANKS
        fig6.QUICK_RANKS = (16, 32)
        try:
            result = fig6.run_fig6(TINY)
        finally:
            fig6.QUICK_RANKS = orig
        assert result.query == "cc"
        assert set(result.total) == {16, 32}
        assert "Fig. 6" in fig6.render(result)


class TestFig4:
    def test_runs_and_renders(self):
        import repro.experiments.fig4 as f4

        orig = f4.QUICK_RANKS
        f4.QUICK_RANKS = (16, 32)
        try:
            result = f4.run_fig4(TINY)
        finally:
            f4.QUICK_RANKS = orig
        assert set(result.local_join) == {1, 8}
        assert "Fig. 4" in fig4.render(result)


class TestTables:
    def test_table1_cells_and_render(self):
        cells = table1.run_table1(TINY, graphs=("topcats",))
        assert len(cells) == 2 * 3 * 3  # queries x engines x threads
        out = table1.render(cells)
        assert "Table I" in out and "paralagg" in out
        assert "*" in out  # winners marked

    def test_table2_rows_and_render(self):
        rows = table2.run_table2(TINY, graphs=("flickr", "freescale1"))
        assert len(rows) == 2
        for r in rows:
            assert r.sssp_iters > 0
            assert r.n_paths > 0
            assert r.n_components >= 1
            assert r.sssp_seconds[256] > 0 and r.cc_seconds[512] > 0
        out = table2.render(rows)
        assert "Table II" in out and "flickr" in out

    def test_table2_mesh_needs_more_iterations(self):
        rows = table2.run_table2(TINY, graphs=("flickr", "stokes"))
        by_name = {r.graph: r for r in rows}
        # mesh diameter >> social diameter (paper Table II's "Iters" column)
        assert by_name["stokes"].sssp_iters > by_name["flickr"].sssp_iters


class TestAblations:
    def test_join_order(self):
        import repro.experiments.ablations as ab

        orig = ab.N_RANKS
        ab.N_RANKS = 32
        try:
            rows = ab.run_join_order_ablation(TINY)
        finally:
            ab.N_RANKS = orig
        names = [r.name for r in rows]
        assert len(rows) == 3
        by_name = dict(zip(names, rows))
        # serializing the static edge relation must be the worst layout
        worst = max(rows, key=lambda r: r.comm_bytes)
        assert "edges" in worst.name

    def test_aggregation_placement(self):
        import repro.experiments.ablations as ab

        orig = ab.N_RANKS
        ab.N_RANKS = 32
        try:
            rows = ab.run_aggregation_placement_ablation(TINY)
        finally:
            ab.N_RANKS = orig
        fused, global_ = rows
        assert global_.comm_bytes > fused.comm_bytes
        assert "Ablation" in ablations.render(rows, "Ablation — test")

    def test_subbucket_sweep(self):
        rows = ablations.run_subbucket_ablation(TINY, counts=(1, 4), n_ranks=64)
        assert len(rows) == 2
