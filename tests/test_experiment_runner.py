"""Tests for the experiment batch runner and registry plumbing."""

from repro.cli import main
from repro.experiments import ALL_FIGURES, CLAIMS, EXTENSION_STUDIES, STUDIES
from repro.workloads import (
    get_blocked_mm_trace,
    get_blocked_mv_trace,
    get_kernel_trace,
)


class TestRegistries:
    def test_paper_figures_complete(self):
        # One driver per paper figure: 1a/b, 3a/b, 4a/b, 6a/b, 7a/b,
        # 8a/b, 9a/b, 10a/b, 11a/b, 12.
        assert len(ALL_FIGURES) == 19

    def test_no_overlap_between_registries(self):
        # The two driver views partition the table, in its order.
        assert list(ALL_FIGURES) + list(EXTENSION_STUDIES) == list(STUDIES)

    def test_claims_name_known_studies(self):
        assert set(CLAIMS) | {"ablation-writepolicy"} == set(STUDIES)
        assert STUDIES["ablation-writepolicy"].claims is None

    def test_all_drivers_accept_scale(self):
        import inspect

        for name, study in STUDIES.items():
            parameters = inspect.signature(study.driver).parameters
            assert "scale" in parameters, name


class TestBatteryMain:
    def test_single_figure(self, capsys):
        # The battery prints the table to stdout and the wall time to
        # stderr only, so stdout stays comparable across runs.
        assert main(["run", "fig4b", "--scale", "tiny"]) == 0
        captured = capsys.readouterr()
        assert "fig4b" in captured.out and "[fig4b:" not in captured.out
        assert "[fig4b:" in captured.err


class TestTraceRegistries:
    def test_kernel_trace_cached(self):
        a = get_kernel_trace("ADM", "tiny")
        b = get_kernel_trace("ADM", "tiny")
        assert a is b

    def test_blocked_traces_cached_by_parameters(self):
        a = get_blocked_mv_trace(10, "tiny")
        b = get_blocked_mv_trace(10, "tiny")
        c = get_blocked_mv_trace(20, "tiny")
        assert a is b and a is not c

    def test_blocked_mm_copy_flag_distinguished(self):
        a = get_blocked_mm_trace(116, False, "tiny")
        b = get_blocked_mm_trace(116, True, "tiny")
        assert a is not b
        assert len(b) > len(a)  # the copy phase adds references
