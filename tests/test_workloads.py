"""Tests for the benchmark profiles and workload generators."""

import pytest

from repro.constraints.model import ConstraintKind
from repro.preprocess.hvn import offline_variable_substitution
from repro.workloads.profiles import BENCHMARK_ORDER, BENCHMARKS, default_scale
from repro.workloads.synthetic import generate_workload


class TestProfiles:
    def test_all_six_benchmarks_present(self):
        assert set(BENCHMARK_ORDER) == set(BENCHMARKS)
        assert len(BENCHMARKS) == 6

    def test_paper_totals_consistent(self):
        """Table 2: base + simple + complex == reduced constraint count."""
        for profile in BENCHMARKS.values():
            assert profile.base + profile.simple + profile.complex == (
                profile.reduced_constraints
            )

    def test_paper_reduction_band(self):
        """The paper reports 60-77% reduction across the suite."""
        for profile in BENCHMARKS.values():
            assert 0.60 <= profile.reduction_ratio <= 0.77

    def test_wine_has_highest_fanout(self):
        wine = BENCHMARKS["wine"]
        assert all(
            wine.fanout > p.fanout for p in BENCHMARKS.values() if p.name != "wine"
        )

    def test_scaled_counts_positive(self):
        for profile in BENCHMARKS.values():
            base, simple, complex_ = profile.scaled_counts(1 / 1024)
            assert base > 0 and simple > 0 and complex_ > 0

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "128")
        assert default_scale() == pytest.approx(1 / 128)
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_workload("emacs", scale=1 / 256, seed=3)
        b = generate_workload("emacs", scale=1 / 256, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_workload("emacs", scale=1 / 256, seed=3)
        b = generate_workload("emacs", scale=1 / 256, seed=4)
        assert a != b

    def test_accepts_profile_object(self):
        profile = BENCHMARKS["emacs"]
        system = generate_workload(profile, scale=1 / 256, seed=1)
        assert len(system) > 0

    def test_mix_tracks_profile(self):
        """The reduced-form mix should be close to Table 2's proportions."""
        profile = BENCHMARKS["linux"]
        system = generate_workload("linux", scale=1 / 64, seed=1, reduced=True)
        counts = system.kind_counts()
        total = len(system)
        expected_base = profile.base / profile.reduced_constraints
        actual_base = counts[ConstraintKind.BASE] / total
        assert abs(actual_base - expected_base) < 0.10
        expected_complex = profile.complex / profile.reduced_constraints
        actual_complex = system.complex_count() / total
        assert abs(actual_complex - expected_complex) < 0.10

    def test_unreduced_is_larger(self):
        reduced = generate_workload("gimp", scale=1 / 128, seed=1, reduced=True)
        raw = generate_workload("gimp", scale=1 / 128, seed=1, reduced=False)
        assert len(raw) > len(reduced)

    def test_expansion_approximates_paper_ratio(self):
        # gimp has the highest original/reduced ratio of the profiles.
        raw = generate_workload("gimp", scale=1 / 64, seed=1)
        ovs = offline_variable_substitution(raw)
        # OVS should remove most of the injected temporaries.
        assert ovs.reduction_ratio > 0.5

    def test_has_indirect_calls(self):
        system = generate_workload("linux", scale=1 / 64, seed=1)
        offsets = {c.offset for c in system.constraints}
        assert any(k > 0 for k in offsets)
        assert len(system.functions) > 0

    def test_all_profiles_generate(self):
        for name in BENCHMARK_ORDER:
            system = generate_workload(name, scale=1 / 512, seed=1)
            assert system.num_vars > 0
            assert len(system) > 0

    def test_larger_scale_means_more_constraints(self):
        small = generate_workload("emacs", scale=1 / 512, seed=1)
        big = generate_workload("emacs", scale=1 / 128, seed=1)
        assert len(big) > len(small)

    def test_wine_denser_than_linux(self):
        """Wine's hallmark: bigger average points-to sets than Linux."""
        from repro.solvers.registry import solve

        wine = generate_workload("wine", scale=1 / 256, seed=1, reduced=True)
        linux = generate_workload("linux", scale=1 / 256, seed=1, reduced=True)
        wine_avg = solve(wine, "lcd+hcd").average_size()
        linux_avg = solve(linux, "lcd+hcd").average_size()
        assert wine_avg > linux_avg
