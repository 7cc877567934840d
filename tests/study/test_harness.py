"""Tests for the simulated user-study harness (Fig. 14)."""

import pytest

from repro import PerceptualCodec
from repro.study.harness import StudyConfig, run_user_study


@pytest.fixture(scope="module")
def quick_config():
    return StudyConfig(height=64, width=64, n_frames=1, seed=7)


@pytest.fixture(scope="module")
def study(quick_config):
    return run_user_study(config=quick_config)


class TestStructure:
    def test_one_outcome_per_scene(self, study, quick_config):
        assert [o.scene for o in study.outcomes] == list(quick_config.scene_names)

    def test_observer_counts(self, study):
        for outcome in study.outcomes:
            assert outcome.n_observers == 11
            assert 0 <= outcome.not_noticing <= 11

    def test_probabilities_valid(self, study):
        for outcome in study.outcomes:
            assert all(0.0 <= p <= 1.0 for p in outcome.detection_probabilities)

    def test_sensitivities_recorded(self, study):
        assert len(study.observer_sensitivities) == 11
        assert all(s > 0 for s in study.observer_sensitivities)

    def test_by_scene_lookup(self, study):
        assert study.by_scene()["office"].scene == "office"


class TestDeterminism:
    def test_same_seed_same_outcome(self, quick_config):
        a = run_user_study(config=quick_config)
        b = run_user_study(config=quick_config)
        assert [o.noticed for o in a.outcomes] == [o.noticed for o in b.outcomes]

    def test_different_seed_can_differ(self, quick_config, study):
        other = run_user_study(
            config=StudyConfig(height=64, width=64, n_frames=1, seed=8)
        )
        assert other.observer_sensitivities != study.observer_sensitivities


class TestPaperShape:
    def test_most_observers_notice_nothing(self, study):
        """The headline: little to no perceived degradation."""
        assert study.mean_noticing < 5.5

    def test_exceedances_above_unit(self, study):
        """Shifts saturate the model ellipsoids, so the effective
        (reliability-corrected) exceedance sits near or above 1."""
        for outcome in study.outcomes:
            assert 0.8 < outcome.exceedance < 2.0

    def test_green_scene_is_safest(self, study):
        by_scene = study.by_scene()
        fortnite = by_scene["fortnite"].exceedance
        dark_worst = max(by_scene["dumbo"].exceedance, by_scene["monkey"].exceedance)
        assert fortnite < dark_worst

    def test_disabled_encoder_shows_nothing(self, quick_config):
        """With an infinite foveal bypass the encoder is a no-op and
        nobody can see artifacts."""
        encoder = PerceptualCodec(foveal_radius_deg=1e6)
        result = run_user_study(encoder=encoder, config=quick_config)
        assert all(o.not_noticing == 11 for o in result.outcomes)


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="n_observers"):
            StudyConfig(n_observers=0)
        with pytest.raises(ValueError, match="n_frames"):
            StudyConfig(n_frames=0)
